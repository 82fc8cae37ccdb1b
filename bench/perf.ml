(* bench/perf — compile-time benchmarks of the tool chain itself.

   Times the whole suite end to end (wall clock), then runs it cold and
   warm through a fresh stage cache with an in-memory trace: the self
   time of every span Pipeline.run emits, per benchmark, becomes the
   BENCH_perf.json "stages" section.  Writes that summary along with
   the devirt ablation.

   With --baseline FILE, the fresh suite wall clock is guarded against
   the committed baseline: the run fails if it regresses by more than
   IMPACT_PERF_TOLERANCE percent (default 25).

   A warm stage-cache rerun of the suite must compute no content
   checksum (each hit carries its own): the run fails if it counts any.
   A rewarm rerun through the warm run's handle must also miss nothing
   and digest no profiling input: its key bytes plus the suite's input
   bytes must equal the warm run's exactly.

   The domain-scaling sweep and its guard live in bench/scaling.ml.

   Usage: perf.exe [--out FILE] [--baseline FILE]
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

(* The root "pipeline" spans' self time against their summed duration:
   what no step's span covers. *)
let root_share (stages : Perf.stage_ms) =
  let sum f = List.fold_left (fun acc (_, row) -> acc +. f row) 0. stages in
  let root = sum (fun row -> Option.value ~default:0. (List.assoc_opt "pipeline" row)) in
  let total = sum (List.fold_left (fun acc (_, ms) -> acc +. ms) 0.) in
  (root, total)

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
  let baseline = ref None in
  let rec parse_args = function
    | [] -> ()
    | "--out" :: v :: rest -> out_file := v; parse_args rest
    | "--baseline" :: v :: rest -> baseline := Some v; parse_args rest
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
  let cache = Perf.cache_cold_warm ~jobs:suite_jobs () in
  let devirt = Perf.devirt_ablation () in
  let json = Perf.to_json ~suite_wall_ms ~suite_jobs ~cache ~devirt in
  Impact_support.Atomic_io.write_string !out_file (Sink.json_to_string json ^ "\n");
  Printf.printf "bench-perf ok: suite %.0f ms -> %s\n" suite_wall_ms !out_file;
  List.iter
    (fun (pass, stages) ->
      let root, total = root_share stages in
      Printf.printf
        "  %s stages: %d benchmark(s), root self time %.1f of %.1f ms (%.1f%%)\n"
        pass (List.length stages) root total
        (100. *. root /. Float.max total 1e-9))
    [
      ("cold", cache.Perf.cold_stages);
      ("warm", cache.Perf.warm_stages);
      ("rewarm", cache.Perf.rewarm_stages);
    ];
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
  let input_bytes =
    List.fold_left
      (fun n (b : Impact_bench_progs.Benchmark.t) ->
        List.fold_left
          (fun n s -> n + String.length s)
          n (b.Impact_bench_progs.Benchmark.inputs ()))
      0 Impact_bench_progs.Suite.all
  in
  Printf.printf
    "  rewarm on the warm handle: %.0f ms (%d miss(es), %d checksum(s), %d key \
     byte(s) = %d - %d input byte(s))\n"
    cache.Perf.cache_rewarm_ms cache.Perf.rewarm_misses cache.Perf.rewarm_checksums
    cache.Perf.rewarm_key_bytes cache.Perf.warm_key_bytes input_bytes;
  if cache.Perf.rewarm_misses > 0 || cache.Perf.rewarm_checksums > 0 then
    fail "rewarm rerun missed %d stage(s) and computed %d checksum(s); expected none"
      cache.Perf.rewarm_misses cache.Perf.rewarm_checksums;
  if cache.Perf.rewarm_key_bytes + input_bytes <> cache.Perf.warm_key_bytes then
    fail
      "rewarm rerun digested %d key byte(s); the warm run's %d less the suite's %d \
       input byte(s) is %d"
      cache.Perf.rewarm_key_bytes cache.Perf.warm_key_bytes input_bytes
      (cache.Perf.warm_key_bytes - input_bytes);
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
