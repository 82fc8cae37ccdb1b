(* bench/scaling — the domain-scaling harness on its own.

   Sweeps the profiling suite across jobs=1/2/4 with the pool probe
   feeding an Obs registry (see Impact_harness.Perf.scaling_sweep):
   per-level wall clock, queue-vs-run time and GC deltas, an unclamped
   diagnostic level with the literal top job count, and the verdict
   (Perf.diagnose) explaining the curve.  Writes the sweep as a standalone
   BENCH_scaling.json and fails when the jobs=4 vs jobs=1 speedup falls
   below IMPACT_SCALING_FLOOR (default 1.0: asking for more parallelism
   must never cost wall time).

   Usage: scaling.exe [--out FILE] [--jobs N,N,...]
   Built by `dune build @bench-scaling`. *)

module Perf = Impact_harness.Perf
module Sink = Impact_obs.Sink

let fail fmt =
  Printf.ksprintf (fun msg -> prerr_endline ("scaling: " ^ msg); exit 1) fmt

let scaling_floor () =
  match Sys.getenv_opt "IMPACT_SCALING_FLOOR" with
  | None | Some "" -> 1.0
  | Some v -> (
    match float_of_string_opt v with
    | Some f when f >= 0. -> f
    | Some _ | None -> fail "bad IMPACT_SCALING_FLOOR '%s'" v)

let parse_jobs s =
  let parts = String.split_on_char ',' s in
  let jobs =
    List.map
      (fun p ->
        match int_of_string_opt (String.trim p) with
        | Some j when j >= 1 -> j
        | Some _ | None -> fail "bad job count '%s' in '%s'" p s)
      parts
  in
  match jobs with [] -> fail "empty job list '%s'" s | js -> js

let () =
  let out_file = ref "BENCH_scaling.json" in
  let job_counts = ref [ 1; 2; 4 ] in
  let rec parse_args = function
    | [] -> ()
    | "--out" :: v :: rest -> out_file := v; parse_args rest
    | "--jobs" :: v :: rest -> job_counts := parse_jobs v; parse_args rest
    | arg :: _ -> fail "unknown argument '%s'" arg
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let sc = Perf.scaling_sweep ~job_counts:!job_counts () in
  Impact_support.Atomic_io.write_string !out_file
    (Sink.json_to_string (Perf.scaling_to_json sc) ^ "\n");
  List.iter
    (fun (l : Perf.scaling_level) ->
      Printf.printf
        "scaling: %d job(s) -> %d domain(s): %.0f ms (queue %.1f ms, run %.1f \
         ms, %d minor / %d major gc)\n"
        l.Perf.sl_jobs l.Perf.sl_effective_jobs l.Perf.sl_wall_ms
        l.Perf.sl_flight.Impact_obs.Obs.f_queue_ms
        l.Perf.sl_flight.Impact_obs.Obs.f_run_ms
        l.Perf.sl_flight.Impact_obs.Obs.f_minor_collections
        l.Perf.sl_flight.Impact_obs.Obs.f_major_collections)
    sc.Perf.sc_levels;
  Printf.printf "scaling: unclamped diagnostic, %d domain(s): %.0f ms\n"
    sc.Perf.sc_unclamped.Perf.sl_jobs sc.Perf.sc_unclamped.Perf.sl_wall_ms;
  Printf.printf "scaling: verdict: %s\n" sc.Perf.sc_verdict;
  Printf.printf "scaling: recommended domains: %d measured, %d runtime -> %s\n"
    sc.Perf.sc_recommended sc.Perf.sc_recommended_runtime !out_file;
  let jobs = List.map (fun l -> l.Perf.sl_jobs) sc.Perf.sc_levels in
  let lo = List.fold_left min max_int jobs in
  let hi = List.fold_left max 1 jobs in
  let wall j =
    match List.find_opt (fun l -> l.Perf.sl_jobs = j) sc.Perf.sc_levels with
    | Some l -> l.Perf.sl_wall_ms
    | None -> 0.
  in
  let w_lo = wall lo and w_hi = wall hi in
  let speedup = if w_hi > 0. then w_lo /. w_hi else 0. in
  let eff j =
    match List.find_opt (fun l -> l.Perf.sl_jobs = j) sc.Perf.sc_levels with
    | Some l -> l.Perf.sl_effective_jobs
    | None -> 1
  in
  let floor = scaling_floor () in
  if eff lo = eff hi && speedup < floor then
    (* Identical post-clamp configuration at both ends: the delta is
       measurement noise, not a scaling cost. *)
    Printf.printf
      "scaling: guard ok: jobs=%d clamps to the jobs=%d configuration (%d \
       domain(s)); wall delta %.2fx is noise (floor %.2f)\n"
      hi lo (eff lo) speedup floor
  else if speedup < floor then
    fail
      "floor violated: jobs=%d sweep %.0f ms vs jobs=%d %.0f ms (%.2fx < %.2f \
       floor after %d attempt(s); set IMPACT_SCALING_FLOOR to override)"
      hi w_hi lo w_lo speedup floor sc.Perf.sc_attempts
  else
    Printf.printf "scaling: guard ok: jobs=%d %.2fx vs jobs=%d (floor %.2f)\n"
      hi speedup lo floor
