(* bench/perf — compile-time benchmarks of the tool chain itself.

   Times the whole suite end to end (wall clock), each pipeline stage
   per benchmark with Bechamel — including profiling under both
   interpreter cores (threaded vs. reference) — and a domain scaling
   sweep of parallel profiling, then writes a BENCH_perf.json summary.

   The profiling modes are compared by their exact instrumentation
   store counts: the run fails if min-coverage profiling executes more
   stores than full profiling on any benchmark.  Their wall clocks are
   reported, not guarded.

   With --baseline FILE, the fresh suite wall clock is guarded against
   the committed baseline: the run fails if it regresses by more than
   IMPACT_PERF_TOLERANCE percent (default 25).

   A warm stage-cache rerun of the suite must compute no content
   checksum (each hit carries its own): the run fails if it counts any.

   The scaling sweep runs with the flight recorder attached and is
   guarded too: the run fails when the jobs=4 vs jobs=1 speedup falls
   below IMPACT_SCALING_FLOOR (default 1.0 — more parallelism must
   never cost wall time).

   Usage: perf.exe [--out FILE] [--quota SECONDS] [--baseline FILE]
   Built by `dune build @bench-perf`. *)

module Perf = Impact_harness.Perf
module Pipeline = Impact_harness.Pipeline
module Sink = Impact_obs.Sink

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("perf: " ^ msg); exit 1) fmt

let warn fmt = Printf.ksprintf (fun msg -> prerr_endline ("perf: warning: " ^ msg)) fmt

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let tolerance_pct () =
  match Sys.getenv_opt "IMPACT_PERF_TOLERANCE" with
  | None | Some "" -> 25.
  | Some v -> (
    match float_of_string_opt v with
    | Some t when t >= 0. -> t
    | Some _ | None -> fail "bad IMPACT_PERF_TOLERANCE '%s'" v)

(* Minimum acceptable jobs=hi vs jobs=lo speedup of the clamped scaling
   sweep.  The default 1.0 encodes the PR-level guarantee: asking for
   more parallelism must never cost wall time. *)
let scaling_floor () =
  match Sys.getenv_opt "IMPACT_SCALING_FLOOR" with
  | None | Some "" -> 1.0
  | Some v -> (
    match float_of_string_opt v with
    | Some f when f >= 0. -> f
    | Some _ | None -> fail "bad IMPACT_SCALING_FLOOR '%s'" v)

(* Min-coverage profiling counts a subset of full's sites on the same
   runs, so it can never execute more instrumentation stores: an exact
   guard, with no noise to absorb. *)
let guard_profiling (costs : Perf.profiling_cost list) =
  let module Coverage = Impact_profile.Coverage in
  List.iter
    (fun (pc : Perf.profiling_cost) ->
      let full = Perf.profiling_stores pc Coverage.Full in
      let min_s = Perf.profiling_stores pc Coverage.Min in
      if min_s > full then
        fail
          "min-coverage profiling executed more instrumentation stores than \
           full on %s: %d vs %d"
          pc.Perf.pc_bench min_s full)
    costs;
  let sum f = List.fold_left (fun a pc -> a + f pc) 0 costs in
  let wall mode =
    List.fold_left (fun a pc -> a +. Perf.profiling_wall pc mode) 0. costs
  in
  let stores mode = sum (fun pc -> Perf.profiling_stores pc mode) in
  let counted = sum (fun pc -> pc.Perf.pc_counted_sites) in
  let all_sites = sum (fun pc -> pc.Perf.pc_total_sites) in
  Printf.printf
    "  profiling modes: full %d stores in %.0f ms, min %d stores in %.0f ms \
     over the suite; min instruments %d of %d sites (%.0f%%)\n"
    (stores Coverage.Full) (wall Coverage.Full) (stores Coverage.Min)
    (wall Coverage.Min) counted all_sites
    (100. *. float_of_int counted /. float_of_int (max all_sites 1));
  Printf.printf
    "  profiling guard ok: min stores <= full stores on every benchmark\n"

let level_wall (sc : Perf.scaling) jobs =
  match List.find_opt (fun l -> l.Perf.sl_jobs = jobs) sc.Perf.sc_levels with
  | Some l -> l.Perf.sl_wall_ms
  | None -> 0.

let guard_scaling (sc : Perf.scaling) =
  let level jobs =
    List.find_opt (fun l -> l.Perf.sl_jobs = jobs) sc.Perf.sc_levels
  in
  let jobs = List.map (fun l -> l.Perf.sl_jobs) sc.Perf.sc_levels in
  let lo = List.fold_left min max_int jobs in
  let hi = List.fold_left max 1 jobs in
  let w_lo = level_wall sc lo and w_hi = level_wall sc hi in
  let speedup = if w_hi > 0. then w_lo /. w_hi else 0. in
  let same_config =
    match (level lo, level hi) with
    | Some a, Some b -> a.Perf.sl_effective_jobs = b.Perf.sl_effective_jobs
    | _ -> false
  in
  let floor = scaling_floor () in
  if same_config && speedup < floor then
    (* Both levels clamped to the same domain count, so they ran the
       identical configuration: the wall-clock delta is measurement
       noise, not a scaling cost.  Report it, don't fail on it. *)
    Printf.printf
      "  scaling guard ok: jobs=%d clamps to the jobs=%d configuration (%d \
       domain(s)); wall delta %.2fx is noise (floor %.2f)\n"
      hi lo
      (match level lo with Some l -> l.Perf.sl_effective_jobs | None -> 1)
      speedup floor
  else if speedup < floor then
    fail
      "scaling floor violated: jobs=%d sweep %.0f ms vs jobs=%d %.0f ms \
       (%.2fx < %.2f floor after %d attempt(s); set IMPACT_SCALING_FLOOR to \
       override)"
      hi w_hi lo w_lo speedup floor sc.Perf.sc_attempts
  else
    Printf.printf "  scaling guard ok: jobs=%d %.2fx vs jobs=%d (floor %.2f)\n"
      hi speedup lo floor

let baseline_wall_ms path =
  match Sink.json_of_string (read_file path) with
  | json -> (
    match Sink.mem "suite_wall_ms" json with
    | Sink.Float ms -> ms
    | Sink.Int n -> float_of_int n
    | _ -> fail "baseline %s lacks suite_wall_ms" path)
  | exception Sink.Parse_error msg -> fail "baseline %s: %s" path msg
  | exception Sys_error msg -> fail "baseline: %s" msg

let () =
  let out_file = ref "BENCH_perf.json" in
  let quota = ref 0.1 in
  let baseline = ref None in
  let rec parse_args = function
    | [] -> ()
    | "--out" :: v :: rest -> out_file := v; parse_args rest
    | "--baseline" :: v :: rest -> baseline := Some v; parse_args rest
    | "--quota" :: v :: rest -> (
      match float_of_string_opt v with
      | Some q when q > 0. -> quota := q; parse_args rest
      | Some _ | None -> fail "bad quota '%s'" v)
    | arg :: _ -> fail "unknown argument '%s'" arg
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  (* End-to-end wall clock for one full suite run — the headline number
     that must not regress.  Sequential on purpose (and recorded as
     such in the artefact): the baseline guard compares wall clocks, so
     the job count must be pinned, not inherited from the machine. *)
  let suite_jobs = 1 in
  let t0 = Unix.gettimeofday () in
  let results = Pipeline.run_suite ~jobs:suite_jobs () in
  let suite_wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  if not (List.for_all (fun r -> r.Pipeline.outputs_match) results) then
    fail "inlined outputs diverge from the un-inlined run";
  let perfs = Perf.measure_suite ~quota:!quota () in
  let profiling = Perf.profiling_costs () in
  let scaling = Perf.scaling_sweep () in
  let cache = Perf.cache_cold_warm ~jobs:suite_jobs () in
  let devirt = Perf.devirt_ablation () in
  let json =
    Perf.to_json ~suite_wall_ms ~suite_jobs ~scaling ~cache ~profiling ~devirt
      perfs
  in
  Impact_support.Atomic_io.write_string !out_file (Sink.json_to_string json ^ "\n");
  let threaded = Perf.stage_total "profile" perfs in
  let reference = Perf.stage_total "profile_reference" perfs in
  let engine_speedup = if threaded > 0. then reference /. threaded else 0. in
  Printf.printf
    "bench-perf ok: suite %.0f ms, profile %.0f us threaded vs %.0f us reference \
     (%.2fx), expand %.0f us -> %s\n"
    suite_wall_ms (threaded /. 1e3) (reference /. 1e3) engine_speedup
    (Perf.stage_total "expand" perfs /. 1e3)
    !out_file;
  List.iter
    (fun (l : Perf.scaling_level) ->
      Printf.printf "  profile sweep, %d job(s) -> %d domain(s): %.0f ms\n"
        l.Perf.sl_jobs l.Perf.sl_effective_jobs l.Perf.sl_wall_ms)
    scaling.Perf.sc_levels;
  Printf.printf "  unclamped diagnostic, %d domain(s): %.0f ms\n"
    scaling.Perf.sc_unclamped.Perf.sl_jobs
    scaling.Perf.sc_unclamped.Perf.sl_wall_ms;
  Printf.printf "  scaling verdict: %s\n" scaling.Perf.sc_verdict;
  Printf.printf "  recommended domains: %d measured, %d runtime\n"
    scaling.Perf.sc_recommended scaling.Perf.sc_recommended_runtime;
  Printf.printf
    "  stage cache: cold %.0f ms, warm %.0f ms (%.1fx; warm %d hit(s), %d miss(es), \
     %d checksum(s), %d key byte(s))\n"
    cache.Perf.cache_cold_ms cache.Perf.cache_warm_ms
    (if cache.Perf.cache_warm_ms > 0. then
       cache.Perf.cache_cold_ms /. cache.Perf.cache_warm_ms
     else 0.)
    cache.Perf.warm_hits cache.Perf.warm_misses cache.Perf.warm_checksums
    cache.Perf.warm_key_bytes;
  if cache.Perf.warm_misses > 0 then
    warn "warm cache rerun still missed %d stage(s)" cache.Perf.warm_misses;
  if cache.Perf.warm_checksums > 0 then
    fail "warm cache rerun computed %d checksum(s); every hit carries its own"
      cache.Perf.warm_checksums;
  List.iter
    (fun (row : Perf.devirt_row) ->
      Printf.printf
        "  devirt ablation: %s pointer residual %.1f%% -> %.1f%% (%d site(s) \
         speculated)\n"
        row.Perf.da_bench row.Perf.da_ptr_pct_off row.Perf.da_ptr_pct_on
        row.Perf.da_speculated)
    devirt;
  List.iter
    (fun (row : Perf.devirt_row) ->
      if not row.Perf.da_outputs_match then
        fail "devirted outputs diverge on %s" row.Perf.da_bench)
    devirt;
  guard_profiling profiling;
  guard_scaling scaling;
  if engine_speedup < 2. && engine_speedup > 0. then
    warn "threaded engine only %.2fx faster than reference (target: 2x)"
      engine_speedup;
  match !baseline with
  | None -> ()
  | Some path ->
    let base = baseline_wall_ms path in
    let tol = tolerance_pct () in
    let limit = base *. (1. +. (tol /. 100.)) in
    if suite_wall_ms > limit then
      fail
        "suite wall clock regressed: %.0f ms vs baseline %.0f ms (+%.0f%% > %.0f%% \
         tolerance; set IMPACT_PERF_TOLERANCE to override)"
        suite_wall_ms base
        (100. *. ((suite_wall_ms /. base) -. 1.))
        tol
    else
      Printf.printf "  perf guard ok: %.0f ms vs baseline %.0f ms (tolerance %.0f%%)\n"
        suite_wall_ms base tol
