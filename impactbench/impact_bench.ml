(* impact_bench — the repository's benchmark driver.

     impact_bench.exe --workload NAME --seed N --seconds S --trace 0|1
     impact_bench.exe --compare A B

   One invocation runs one workload in this fresh process: set-up,
   then [--seconds] of measurement, then an output check that does not
   trust the inliner.  With [--trace 0] it reports the end-to-end
   metrics BENCHMARK.json lists; with [--trace 1] it reports the
   per-layer metrics from a traced run.  Every metric is printed by name
   with its unit; the last line of standard output is one JSON object
   ({"correct", "attempted", "failed", "metrics"}), and the exit code is
   non-zero when any output was wrong.  Each run also leaves a result
   file (and, traced, a JSONL span file) under impactbench/_results/.
   [--seconds] has no default: BENCHMARK.json's run_seconds is the one
   source of the run length.

   [--compare A B] checks two result files, or two directories of them,
   against BENCHMARK.json's bounds: one pass/fail row per end-to-end
   metric and workload, medians when a side holds several runs.

   impactbench/README.md describes the workloads and every metric. *)

module Pipeline = Impact_harness.Pipeline
module Cache = Impact_harness.Cache
module Benchmark = Impact_bench_progs.Benchmark
module Suite = Impact_bench_progs.Suite
module Config = Impact_core.Config
module Inliner = Impact_core.Inliner
module Machine = Impact_interp.Machine
module Profile = Impact_profile.Profile
module Profile_io = Impact_profile.Profile_io
module Protocol = Impact_serve.Protocol
module Rng = Impact_support.Rng
module Sink = Impact_obs.Sink

let now = Unix.gettimeofday

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("impact_bench: " ^ m);
      exit 2)
    fmt

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

(* Nearest-rank percentile, [q] in [0, 1]. *)
let percentile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median xs = percentile xs 0.5

let mean xs =
  if xs = [] then 0. else List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let number = function Sink.Int n -> float_of_int n | Sink.Float f -> f | _ -> nan

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let copy_dir src dst =
  mkdir_p dst;
  Array.iter
    (fun f ->
      Out_channel.with_open_bin (Filename.concat dst f) (fun oc ->
          Out_channel.output_string oc (read_file (Filename.concat src f))))
    (Sys.readdir src)

(* Peak resident set of a process, from the kernel's own accounting. *)
let peak_rss_mb pid =
  let line =
    String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%s/status" pid))
    |> List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* The twelve benchmarks with their inputs generated once, here, instead
   of on every [Pipeline.run]. *)
let pregenerated () =
  List.map
    (fun (b : Benchmark.t) ->
      let inputs = b.Benchmark.inputs () in
      { b with Benchmark.inputs = (fun () -> inputs) })
    Suite.all

(* ------------------------------------------------------------------ *)
(* Output checks                                                        *)
(* ------------------------------------------------------------------ *)

(* Runs the program before and after inlining on the small-step
   reference interpreter — not the threaded engine that profiled it —
   and requires equal outputs and exit codes on every input, and for the
   benchmarks with an oracle, the oracle's output. *)
let reference_check (r : Pipeline.result) =
  List.for_all
    (fun input ->
      let a = Machine.run_reference r.Pipeline.prog ~input in
      let b = Machine.run_reference r.Pipeline.inliner.Inliner.program ~input in
      a.Machine.output = b.Machine.output
      && a.Machine.exit_code = b.Machine.exit_code
      &&
      match Benchmark.expected_output r.Pipeline.bench input with
      | None -> true
      | Some expected -> a.Machine.output = expected)
    (r.Pipeline.bench.Benchmark.inputs ())

let clean (r : Pipeline.result) = r.Pipeline.outputs_match && r.Pipeline.degradations = []

(* Table 4's suite-wide numbers, as Report computes them, plus the
   dynamic instructions the inlined programs execute over all inputs. *)
let quality results =
  (* A fixed order, so the float sums do not depend on the pass's order. *)
  let results =
    List.sort
      (fun (a : Pipeline.result) (b : Pipeline.result) ->
        compare a.Pipeline.bench.Benchmark.name b.Pipeline.bench.Benchmark.name)
      results
  in
  let pct f = mean (List.map f results) in
  [
    ("code_growth_pct", pct Pipeline.code_increase);
    ("call_decrease_pct", pct Pipeline.call_decrease);
    ( "dyn_ils_post",
      Float.round
        (List.fold_left
           (fun acc (r : Pipeline.result) ->
             acc +. (r.Pipeline.post_profile.Profile.avg_ils *. float_of_int r.Pipeline.nruns))
           0. results) );
  ]

(* ------------------------------------------------------------------ *)
(* Run state                                                            *)
(* ------------------------------------------------------------------ *)

type run = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  work : string;  (* scratch directory of this process, removed at exit *)
  metrics : (string, float) Hashtbl.t;
  notes : (string, string) Hashtbl.t;  (* sample counts printed beside metrics *)
  mutable rows : (string * float) list;
      (* median compile latency per program (and request class, in
         serve), for the result file *)
  mutable attempted : int;
  mutable failures : string list;
  mutable setup_times : float list;
}

let set r name v = Hashtbl.replace r.metrics name v

let note r name fmt = Printf.ksprintf (Hashtbl.replace r.notes name) fmt

let failure r fmt = Printf.ksprintf (fun m -> r.failures <- m :: r.failures) fmt

(* Set-up runs three times; [setup_s] is the median, and the state of the
   last one is what the run measures. *)
let repeated_setup r ~teardown f =
  let rec go i =
    let t0 = now () in
    let state = f () in
    r.setup_times <- (now () -. t0) :: r.setup_times;
    if i < 3 then begin
      teardown state;
      go (i + 1)
    end
    else state
  in
  let state = go 1 in
  set r "setup_s" (median r.setup_times);
  note r "setup_s" "median of %d set-ups" (List.length r.setup_times);
  state

let fresh_dir r name =
  let dir = Filename.concat r.work name in
  rm_rf dir;
  mkdir_p dir;
  dir

(* Latency limit for [within_limit_frac]: 100 ms, a compile that a user
   waiting on it would call slow.  The metric belongs to serve, but every
   run reports every end-to-end metric.  On suite_cold the cold compile
   of grep alone takes 96-102 ms on a 2-vCPU x86-64 machine, so a 100 ms
   limit would count it in or out from run to run; there the limit is
   1 s, and the share stays 1 unless some cold compile gets about four
   times slower. *)
let limit_ms = function "suite_cold" -> 1000. | _ -> 100.

(* One measured compile.  [window] is its pass in the batch workloads and
   its 20-request block of the mix in serve; [label] is its program, and
   its request class in serve; [ms] runs from its due time in serve; [ok]
   is false for a failed or wrong compile. *)
type sample = { window : int; label : string; ms : float; ok : bool }

let medians_by_label samples =
  List.sort_uniq compare (List.map (fun s -> s.label) samples)
  |> List.map (fun l ->
         (l, median (List.filter_map (fun s -> if s.label = l then Some s.ms else None) samples)))

(* The end-to-end metrics of a measured phase.  The tails are taken
   within each window, which holds every program (every request class,
   in serve) once, and reported as the median over windows.  Pooled over
   the run, a tail rank lands on one or two compiles: on suite_cold the
   pooled p99 of ~180 compiles is one of lex's, and on serve the 8th
   slowest of 720 requests is one of 36 fresh compiles; both moved by
   18-20% between runs of the same commit, where the windowed medians
   stay steady.  The pooled value is printed beside each. *)
let compile_stats r ~samples ~suite_ms =
  let latencies = List.map (fun s -> s.ms) samples in
  let n = List.length samples in
  let count p = List.length (List.filter p samples) in
  let ok = count (fun s -> s.ok) in
  let within = count (fun s -> s.ok && s.ms <= limit_ms r.workload) in
  let windows =
    List.sort_uniq compare (List.map (fun s -> s.window) samples)
    |> List.map (fun w -> List.filter_map (fun s -> if s.window = w then Some s.ms else None) samples)
  in
  set r "suite_ms" suite_ms;
  set r "compile_ms_p50" (median latencies);
  note r "compile_ms_p50" "n=%d" n;
  List.iter
    (fun (name, q) ->
      set r name (median (List.map (fun w -> percentile w q) windows));
      note r name "median over %d windows of %d; pooled %.3f ms, n=%d, %d beyond"
        (List.length windows) (List.length (List.hd windows)) (percentile latencies q) n
        (n - int_of_float (ceil (q *. float_of_int n))))
    [ ("compile_ms_p90", 0.9); ("compile_ms_p99", 0.99) ];
  set r "within_limit_frac" (float_of_int within /. float_of_int n);
  note r "within_limit_frac" "%d of %d within %g ms" within n (limit_ms r.workload);
  set r "ok_frac" (float_of_int ok /. float_of_int n);
  note r "ok_frac" "%d of %d" ok n;
  r.rows <- medians_by_label samples

(* Values [Layers.record] sums, reported per traced pass (batch) or per
   replayed request (serve). *)
let summed_layers =
  [
    "interp.exec_ms"; "interp.decode_ms"; "interp.dyn_ils"; "profile.profile_ms";
    "profile.reprofile_ms"; "profile.checksum_ms"; "cache.key_ms"; "cstore.read_ms";
    "cache.decode_ms"; "cache.bytes_read"; "cache.hits"; "cache.misses"; "cache.put_ms";
    "cache.bytes_written"; "cfront.parse_ms"; "cfront.sema_ms"; "cfront.source_bytes";
    "il.lower_ms"; "il.instrs_lowered"; "opt.pre_inline_ms"; "callgraph.build_ms";
    "callgraph.arcs"; "core.classify_ms"; "core.inline_ms"; "core.select_ms"; "core.expand_ms";
    "core.sites_expanded";
  ]

(* [untraced_ms] is the untraced wall per unit. *)
let set_layers r (l : Layers.t) ~units ~untraced_ms =
  let per x = x /. float_of_int units in
  let g = Layers.get l in
  List.iter (fun name -> set r name (per (g name))) summed_layers;
  set r "cache.find_ms" (per (g "cstore.read_ms" +. g "cache.decode_ms"));
  set r "interp.ns_per_il"
    (if g "interp.dyn_ils" = 0. then 0. else 1e6 *. g "interp.exec_ms" /. g "interp.dyn_ils");
  set r "profile.instr_overhead_ms"
    (per
       (g "profile.profile_ms" +. g "profile.reprofile_ms" -. g "interp.exec_ms"
      -. g "interp.decode_ms"));
  let lookups = g "cache.hits" +. g "cache.misses" in
  set r "cache.hit_ratio" (if lookups = 0. then 0. else g "cache.hits" /. lookups);
  set r "pipeline.residual_ms" (untraced_ms -. per l.Layers.accounted_ms);
  note r "pipeline.residual_ms" "untraced %.3f ms per unit, %d units" untraced_ms units;
  set r "trace.overhead_pct" (100. *. (per l.Layers.traced_ms -. untraced_ms) /. untraced_ms);
  List.iter (failure r "cache replay: %s") (List.rev l.Layers.mismatches)

let serve_layers = [ "serve.server_ms_p50"; "serve.queue_ms"; "serve.run_ms"; "serve.wire_ms";
                     "serve.rejected"; "serve.frame_bytes"; "protocol.encode_ms";
                     "protocol.decode_ms"; "loadgen.late_ms_p99" ]

(* Two compiles of the same program and config agree on the pre- and
   post-inline programs and both profiles. *)
let checksums (x : Pipeline.result) =
  ( Profile_io.program_checksum x.Pipeline.prog,
    Profile_io.profile_checksum x.Pipeline.profile,
    Profile_io.program_checksum x.Pipeline.inliner.Inliner.program,
    Profile_io.profile_checksum x.Pipeline.post_profile )

(* [differs canonical x]: the compile of [x]'s program in [canonical]
   disagrees with [x]. *)
let differs canonical (x : Pipeline.result) =
  List.exists
    (fun (c : Pipeline.result) ->
      c.Pipeline.bench.Benchmark.name = x.Pipeline.bench.Benchmark.name
      && checksums c <> checksums x)
    canonical

(* ------------------------------------------------------------------ *)
(* Batch workloads: suite_cold, suite_warm, edit_loop                  *)
(* ------------------------------------------------------------------ *)

(* One pass: the programs in a seeded order, each with the workload's
   edit.  In edit_loop a program gets, with probability 0.35, a weight
   threshold of 5, 10 or 20: classification and inlining miss the first
   time a session sees the value (10 is the default, which set-up
   compiled), and re-profiling misses only when the selection changes,
   which at 5 and 20 it does for none of the twelve programs.  Otherwise
   it gets a unique appended comment: the front end misses and stores,
   and since the IL checksum is unchanged the later stages hit. *)
let plan_pass r rng ~pass benches =
  let arr = Array.of_list benches in
  Rng.shuffle rng arr;
  Array.to_list
    (Array.mapi
       (fun i (b : Benchmark.t) ->
         if r.workload <> "edit_loop" then (b, Config.default)
         else if Rng.int rng 100 < 35 then
           (b, { Config.default with Config.weight_threshold = [| 5.; 10.; 20. |].(Rng.int rng 3) })
         else
           ( { b with
               Benchmark.source =
                 b.Benchmark.source ^ Printf.sprintf "\n/* edit %d.%d.%d */\n" r.seed pass i },
             Config.default ))
       arr)

(* edit_loop measures whole sessions of this many passes, each starting
   from the cache as set-up left it.  Every store rewrites the store's
   whole index, so a cache that grew for the whole run would make each
   pass dearer than the last, and the numbers would depend on how many
   passes the machine managed; restoring the cache between sessions,
   outside the timed passes, keeps every session alike. *)
let session_passes = 20

let run_batch r =
  let rng = Rng.create r.seed in
  let setup () =
    let benches = pregenerated () in
    let cache =
      if r.workload = "suite_cold" then None else Some (Cache.create (fresh_dir r "cache"))
    in
    (* The warm-up pass of suite_cold; the cache fill of the others. *)
    let canonical = List.map (fun b -> Pipeline.run ?cache b) benches in
    (benches, cache, canonical)
  in
  let benches, cache, canonical =
    if r.trace then setup () else repeated_setup r ~teardown:ignore setup
  in
  let cache = ref cache in
  let cache_dir = Filename.concat r.work "cache" and setup_dir = Filename.concat r.work "cache-setup" in
  if r.workload = "edit_loop" then copy_dir cache_dir setup_dir;
  let layers = Layers.create ~workload:r.workload in
  let samples = ref [] and untraced_walls = ref [] and traced_passes = ref 0 in
  let last = ref [] in
  let t_start = now () in
  let pass = ref 1 in
  let session_start () = r.workload = "edit_loop" && (!pass - 1) mod session_passes = 0 in
  (* A traced run alternates untraced and traced passes, so both see the
     same cache state and the same machine conditions. *)
  while
    !pass <= 2
    || (r.workload = "edit_loop" && not (session_start ()))
    || now () -. t_start < r.seconds
  do
    if session_start () && !pass > 1 then begin
      rm_rf cache_dir;
      copy_dir setup_dir cache_dir;
      cache := Some (Cache.create cache_dir)
    end;
    let plan = plan_pass r rng ~pass:!pass benches in
    let traced = r.trace && !pass mod 2 = 0 in
    let t0 = now () in
    let results =
      List.filter_map
        (fun ((b : Benchmark.t), config) ->
          let name = b.Benchmark.name in
          r.attempted <- r.attempted + 1;
          if traced then begin
            (match Layers.record layers ?cache:!cache ~config ~pass:!pass b with
            | res ->
              if not (clean res) then failure r "%s: outputs differ or degraded (traced)" name;
              if config = Config.default && differs canonical res then
                failure r "%s: traced compile differs from the set-up compile" name
            | exception e -> failure r "%s: %s" name (Printexc.to_string e));
            None
          end
          else
            let c0 = now () in
            let res = try Ok (Pipeline.run ?cache:!cache ~config b) with e -> Error e in
            let ms = 1000. *. (now () -. c0) in
            match res with
            | Ok res ->
              if not (clean res) then failure r "%s: outputs differ or degraded" name;
              samples := { window = !pass; label = name; ms; ok = clean res } :: !samples;
              Some res
            | Error e ->
              failure r "%s: %s" name (Printexc.to_string e);
              samples := { window = !pass; label = name; ms; ok = false } :: !samples;
              None)
        plan
    in
    if traced then incr traced_passes
    else begin
      untraced_walls := (1000. *. (now () -. t0)) :: !untraced_walls;
      last := results
    end;
    incr pass
  done;
  let rss = peak_rss_mb "self" in
  (* The output check: the last untraced pass on the reference
     interpreter and, for the warm cache, against the cold compile. *)
  List.iter
    (fun (res : Pipeline.result) ->
      if not (reference_check res) then
        failure r "%s: reference interpreter disagrees" res.Pipeline.bench.Benchmark.name)
    !last;
  if r.workload = "suite_warm" then
    List.iter
      (fun (w : Pipeline.result) ->
        if differs canonical w then
          failure r "%s: warm result differs from the cold compile" w.Pipeline.bench.Benchmark.name)
      !last;
  if r.trace then begin
    set_layers r layers ~units:!traced_passes ~untraced_ms:(mean !untraced_walls);
    List.iter (fun name -> set r name 0.) serve_layers;
    Some layers
  end
  else begin
    compile_stats r ~samples:!samples ~suite_ms:(median !untraced_walls);
    note r "suite_ms" "%d passes, quartiles %.3f-%.3f ms" (List.length !untraced_walls)
      (percentile !untraced_walls 0.25) (percentile !untraced_walls 0.75);
    set r "peak_rss_mb" rss;
    (* edit_loop's last pass is edited; its canonical results are the
       set-up's compiles of the unedited suite. *)
    List.iter (fun (k, v) -> set r k v)
      (quality (if r.workload = "edit_loop" then canonical else !last));
    None
  end

(* ------------------------------------------------------------------ *)
(* serve                                                                *)
(* ------------------------------------------------------------------ *)

(* 48 requests a second for 15 s is 720 requests, a multiple of 240, so
   every program gets exactly the same number of requests of each class,
   and of each devirtualization threshold, in every seed.  At twice the
   rate the two connections are often both held by slow requests, and
   the generator's own lateness swamps the tail. *)
let serve_rate = 48.

type cls = Hit | Comment | Devirt | Fresh

let cls_name = function Hit -> "hit" | Comment -> "comment" | Devirt -> "devirt" | Fresh -> "fresh"

type request = {
  cls : cls;
  bench : Benchmark.t;
  index : int;  (* position of [bench] in the suite *)
  config : Config.t;
}

let job_of (q : request) =
  { Protocol.default_job with
    Protocol.j_source = q.bench.Benchmark.source;
    j_inputs = q.bench.Benchmark.inputs ();
    j_devirt = q.config.Config.devirt;
    j_devirt_threshold = q.config.Config.devirt_threshold }

(* The request mix, in blocks of 20 requests, each block a seeded
   shuffle of 14 unchanged programs (70%, cache hits), 3 comment edits
   (15%), 2 devirtualized compiles (10%) and 1 compile on fresh inputs
   (5%), so slow requests are spread evenly in time.  Within a class
   the programs take turns in a seeded order; a devirtualized compile
   takes threshold 0.6, 0.8 or 0.9 by turn.

   A fresh request cuts every input of its program at the same share of
   its length, chosen so that profiling the cut inputs executes about
   [fresh_ils] instructions (or all of them, for the cheapest program),
   less a seeded offset that differs on each turn so no two requests
   share a cache key.  Fresh compiles then cost about the same whichever
   program the seed draws, and the tail they set measures the daemon,
   not the draw. *)
let fresh_ils = 2e6

let block = Array.concat [ Array.make 14 Hit; Array.make 3 Comment; Array.make 2 Devirt; [| Fresh |] ]

let serve_mix r rng (refs : Pipeline.result array) ~n =
  let benches = Array.map (fun (c : Pipeline.result) -> c.Pipeline.bench) refs in
  let nb = Array.length benches in
  let deck =
    Array.concat
      (List.init (n / Array.length block) (fun _ ->
           let b = Array.copy block in
           Rng.shuffle rng b;
           b))
  in
  (* class -> (program order of the current turn, next position, turn) *)
  let turns = Hashtbl.create 4 in
  let next_program cls =
    let order, k, turn =
      match Hashtbl.find_opt turns cls with
      | Some (order, k, turn) when k < nb -> (order, k, turn)
      | previous ->
        let order = Array.init nb Fun.id in
        Rng.shuffle rng order;
        (order, 0, match previous with Some (_, _, t) -> t + 1 | None -> 0)
    in
    Hashtbl.replace turns cls (order, k + 1, turn);
    (order.(k), turn)
  in
  Array.mapi
    (fun i cls ->
      let index, turn = next_program cls in
      let b = benches.(index) in
      match cls with
      | Hit -> { cls; bench = b; index; config = Config.default }
      | Comment ->
        { cls;
          bench =
            { b with
              Benchmark.source =
                b.Benchmark.source ^ Printf.sprintf "\n/* edit %d.%d */\n" r.seed i };
          index;
          config = Config.default }
      | Devirt ->
        { cls; bench = b; index;
          config =
            { Config.default with
              Config.devirt = true;
              devirt_threshold = [| 0.6; 0.8; 0.9 |].(turn mod 3) } }
      | Fresh ->
        let profile = refs.(index).Pipeline.profile in
        let share =
          Float.min 1.
            (fresh_ils /. (profile.Profile.avg_ils *. float_of_int profile.Profile.nruns))
        in
        let inputs =
          List.map
            (fun s ->
              let base = max 1 (int_of_float (share *. float_of_int (String.length s))) in
              let step = max 1 (base / 100) in
              String.sub s 0 (max 1 (base - (turn * step) - Rng.int rng step)))
            (b.Benchmark.inputs ())
        in
        { cls; bench = { b with Benchmark.inputs = (fun () -> inputs) }; index;
          config = Config.default })
    deck

let check_response refs (q : request) payload =
  let num k = number (Sink.mem k payload) in
  Sink.mem "outputs_match" payload = Sink.Bool true
  && Sink.mem "degradations" payload = Sink.List []
  &&
  match q.cls with
  | Devirt | Fresh -> true
  | Hit | Comment ->
    let (c : Pipeline.result) = refs.(q.index) in
    let inl = c.Pipeline.inliner in
    num "code_before" = float_of_int inl.Inliner.size_before
    && num "code_after" = float_of_int inl.Inliner.size_after
    && num "expansions"
       = float_of_int (List.length inl.Inliner.expansion.Impact_core.Expand.expansions)
    && num "call_decrease_pct" = Pipeline.call_decrease c

let run_serve r =
  let n =
    Array.length block * max 1 (int_of_float (serve_rate *. r.seconds) / Array.length block)
  in
  let exe = "_build/default/bin/impactd.exe" in
  if not (Sys.file_exists exe) then die "%s is not built" exe;
  let socket = Filename.concat r.work "impactd.sock" in
  let setup () =
    let benches = pregenerated () in
    let dir = fresh_dir r "daemon-cache" in
    let cache = Cache.create dir in
    let refs = Array.of_list (List.map (fun b -> Pipeline.run ~cache b) benches) in
    let mix = serve_mix r (Rng.create r.seed) refs ~n in
    (* The traced run replays the load in this process over copies of
       the cache the daemon starts from. *)
    if r.trace then
      List.iter (fun name -> copy_dir dir (fresh_dir r name)) [ "replay-a"; "replay-b" ];
    let d = Loadgen.start ~exe ~socket ~cache_dir:dir in
    (mix, refs, d)
  in
  let mix, refs, d =
    if r.trace then setup ()
    else repeated_setup r ~teardown:(fun (_, _, d) -> Loadgen.stop d) setup
  in
  let stats_before = Loadgen.stats socket in
  let samples =
    Loadgen.run ~socket ~rate:serve_rate (Array.map (fun q -> Protocol.Compile (job_of q)) mix)
  in
  let stats_after = Loadgen.stats socket in
  let rss = peak_rss_mb (string_of_int d.Loadgen.pid) in
  Loadgen.stop d;
  r.attempted <- n;
  let ms a b = 1000. *. (b -. a) in
  let results =
    Array.to_list
      (Array.mapi
         (fun i (s : Loadgen.sample) ->
           let q = mix.(i) in
           let ok =
             match s.Loadgen.response with
             | Ok payload when check_response refs q payload -> true
             | Ok _ ->
               failure r "request %d (%s): wrong or degraded result" i q.bench.Benchmark.name;
               false
             | Error e ->
               failure r "request %d (%s): %s" i q.bench.Benchmark.name e;
               false
           in
           { window = i / Array.length block;
             label = cls_name q.cls ^ ":" ^ q.bench.Benchmark.name;
             ms = ms s.Loadgen.due s.Loadgen.finished;
             ok })
         samples)
  in
  if r.trace then begin
    let num path j = number (List.fold_left (fun j k -> Sink.mem k j) j path) in
    let delta path = num path stats_after -. num path stats_before in
    let tasks = delta [ "flight"; "tasks" ] in
    let queue = delta [ "flight"; "queue_ms" ] /. tasks
    and run = delta [ "flight"; "run_ms" ] /. tasks in
    let over f = Array.to_list (Array.map f samples) in
    set r "serve.server_ms_p50" (num [ "latency_ms"; "compile:full"; "p50" ] stats_after);
    set r "serve.queue_ms" queue;
    set r "serve.run_ms" run;
    set r "serve.wire_ms"
      (mean (over (fun (s : Loadgen.sample) -> ms s.Loadgen.sent s.Loadgen.finished))
      -. queue -. run);
    set r "serve.rejected" (delta [ "requests"; "rejected" ]);
    set r "loadgen.late_ms_p99"
      (percentile (over (fun (s : Loadgen.sample) -> ms s.Loadgen.due s.Loadgen.sent)) 0.99);
    (* Client-side protocol cost over this run's own requests and answers. *)
    let encode = ref 0. and decode = ref 0. and bytes = ref 0 in
    Array.iteri
      (fun i q ->
        let t0 = now () in
        let frame =
          Sink.json_to_string
            (Protocol.request_to_json
               { Protocol.rq_id = i; rq_kind = Protocol.Compile (job_of q) })
        in
        encode := !encode +. ms t0 (now ());
        bytes := !bytes + String.length frame;
        match samples.(i).Loadgen.response with
        | Ok payload ->
          let text = Sink.json_to_string (Protocol.ok_response ~id:i payload) in
          let t1 = now () in
          ignore (Protocol.parse_response (Sink.json_of_string text));
          decode := !decode +. ms t1 (now ())
        | Error _ -> ())
      mix;
    let per x = x /. float_of_int n in
    set r "protocol.encode_ms" (per !encode);
    set r "protocol.decode_ms" (per !decode);
    set r "serve.frame_bytes" (per (float_of_int !bytes));
    (* The stage layers: the same requests replayed in this process, each
       once untraced and once traced, over two copies of the cache as
       set-up left it. *)
    let replay name = Cache.create (Filename.concat r.work name) in
    let cache_a = replay "replay-a" and cache_b = replay "replay-b" in
    let layers = Layers.create ~workload:r.workload in
    let untraced = ref 0. in
    Array.iteri
      (fun i q ->
        let name = q.bench.Benchmark.name in
        let t0 = now () in
        let res = Pipeline.run ~cache:cache_a ~config:q.config q.bench in
        untraced := !untraced +. ms t0 (now ());
        let traced = Layers.record layers ~cache:cache_b ~config:q.config ~pass:i q.bench in
        if checksums res <> checksums traced then
          failure r "request %d (%s): traced replay differs" i name;
        match samples.(i).Loadgen.response with
        | Ok payload
          when Sink.mem "code_after" payload <> Sink.Int res.Pipeline.inliner.Inliner.size_after ->
          failure r "request %d (%s): daemon and in-process results differ" i name
        | _ -> ())
      mix;
    set_layers r layers ~units:n ~untraced_ms:(per !untraced);
    Some layers
  end
  else begin
    (* The unchanged suite through the daemon, one request per program. *)
    let suite_ms =
      List.fold_left
        (fun acc (label, ms) -> if String.starts_with ~prefix:"hit:" label then acc +. ms else acc)
        0. (medians_by_label results)
    in
    compile_stats r ~samples:results ~suite_ms;
    note r "suite_ms" "sum of the 12 programs' median latency over unchanged requests";
    let p99 = percentile (List.map (fun s -> s.ms) results) 0.99 in
    let beyond cls =
      List.length (List.filteri (fun i s -> s.ms > p99 && mix.(i).cls = cls) results)
    in
    note r "compile_ms_p99" "%s; beyond pooled: %d fresh, %d devirt, %d comment, %d hit"
      (Hashtbl.find r.notes "compile_ms_p99")
      (beyond Fresh) (beyond Devirt) (beyond Comment) (beyond Hit);
    set r "peak_rss_mb" rss;
    List.iter (fun (k, v) -> set r k v) (quality (Array.to_list refs));
    None
  end

(* ------------------------------------------------------------------ *)
(* Reporting                                                            *)
(* ------------------------------------------------------------------ *)

let workloads = [ "suite_cold"; "suite_warm"; "edit_loop"; "serve" ]

let string_field key j = match Sink.mem key j with Sink.String s -> s | _ -> ""

(* (name, unit, better, bound) of each metric in one BENCHMARK.json list. *)
let declared bench key =
  match Sink.mem key bench with
  | Sink.List l ->
    List.map
      (fun m ->
        (string_field "name" m, string_field "unit" m, string_field "better" m,
         number (Sink.mem "bound" m)))
      l
  | _ -> die "BENCHMARK.json has no %s list" key

let first_line cmd =
  match Unix.open_process_in cmd with
  | exception Unix.Unix_error _ -> "unknown"
  | ic ->
    let line = try String.trim (input_line ic) with End_of_file -> "unknown" in
    ignore (Unix.close_process_in ic);
    line

let git_commit () =
  match String.trim (read_file ".git/HEAD") with
  | head when String.starts_with ~prefix:"ref: " head ->
    (try String.trim (read_file (Filename.concat ".git" (String.sub head 5 (String.length head - 5))))
     with Sys_error _ -> "unknown")
  | head -> head
  | exception Sys_error _ -> "unknown"

let report r layers =
  let bench = Sink.json_of_string (read_file "BENCHMARK.json") in
  let wanted = declared bench (if r.trace then "per_layer" else "end_to_end") in
  List.iter
    (fun (name, _, _, _) -> if not (Hashtbl.mem r.metrics name) then die "no value for metric %s" name)
    wanted;
  Hashtbl.iter
    (fun name _ ->
      if not (List.exists (fun (n, _, _, _) -> n = name) wanted) then
        die "metric %s is not declared in BENCHMARK.json" name)
    r.metrics;
  let failed = List.length r.failures in
  List.iter (fun m -> prerr_endline ("FAIL " ^ m)) (List.rev r.failures);
  Printf.printf "workload %s, seed %d, %s run\n" r.workload r.seed
    (if r.trace then "traced" else "untraced");
  List.iter
    (fun (name, unit_, _, _) ->
      Printf.printf "  %-26s %16.6f %-8s %s\n" name (Hashtbl.find r.metrics name) unit_
        (Option.value ~default:"" (Hashtbl.find_opt r.notes name)))
    wanted;
  let metrics =
    Sink.Obj
      (List.map
         (fun (name, unit_, _, _) ->
           (name, Sink.Obj [ ("value", Sink.Float (Hashtbl.find r.metrics name)); ("unit", Sink.String unit_) ]))
         wanted)
  in
  let result =
    [
      ("correct", Sink.Bool (failed = 0));
      ("attempted", Sink.Int r.attempted);
      ("failed", Sink.Int failed);
      ("metrics", metrics);
    ]
  in
  let header =
    Sink.Obj
      [
        ("workload", Sink.String r.workload);
        ("seed", Sink.Int r.seed);
        ("seconds", Sink.Float r.seconds);
        ("trace", Sink.Int (if r.trace then 1 else 0));
        ("nproc", Sink.String (first_line "nproc 2>/dev/null"));
        ("recommended_domains", Sink.Int (Domain.recommended_domain_count ()));
        ("ocaml", Sink.String Sys.ocaml_version);
        ("commit", Sink.String (git_commit ()));
      ]
  in
  let dir = Filename.concat "impactbench" "_results" in
  mkdir_p dir;
  let base =
    Filename.concat dir (Printf.sprintf "%s-seed%d-trace%d" r.workload r.seed (if r.trace then 1 else 0))
  in
  Impact_support.Atomic_io.write_string (base ^ ".json")
    (Sink.json_to_string
       (Sink.Obj
          ((("header", header) :: result)
          @ [
              ("notes", Sink.Obj (Hashtbl.fold (fun k v acc -> (k, Sink.String v) :: acc) r.notes []));
              ("median_ms_by_program", Sink.Obj (List.map (fun (l, ms) -> (l, Sink.Float ms)) r.rows));
              ("failures", Sink.List (List.rev_map (fun m -> Sink.String m) r.failures));
            ]))
    ^ "\n");
  Option.iter (fun l -> Layers.write_jsonl l (base ^ ".trace.jsonl")) layers;
  print_endline (Sink.json_to_string (Sink.Obj result));
  exit (if failed = 0 then 0 else 1)

(* ------------------------------------------------------------------ *)
(* --compare                                                            *)
(* ------------------------------------------------------------------ *)

(* Untraced result files under [path] (a file or a directory), grouped
   by workload: metric name -> values. *)
let load_results path =
  let files =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list |> List.sort compare
      |> List.filter (fun f -> Filename.check_suffix f ".json")
      |> List.map (Filename.concat path)
    else [ path ]
  in
  let by_workload = Hashtbl.create 4 in
  List.iter
    (fun file ->
      let j = Sink.json_of_string (read_file file) in
      let h = Sink.mem "header" j in
      if Sink.mem "trace" h = Sink.Int 0 then
        match Sink.mem "metrics" j with
        | Sink.Obj ms ->
          let w = string_field "workload" h in
          let prev = Option.value ~default:[] (Hashtbl.find_opt by_workload w) in
          Hashtbl.replace by_workload w
            (List.map (fun (name, m) -> (name, number (Sink.mem "value" m))) ms :: prev)
        | _ -> ())
    files;
  by_workload

let compare_runs ~root a b =
  let bench = Sink.json_of_string (read_file (Filename.concat root "BENCHMARK.json")) in
  let ra = load_results a and rb = load_results b in
  let failures = ref 0 in
  Printf.printf "%-11s %-18s %14s %14s %9s %7s  %s\n" "workload" "metric" "A" "B" "worse by" "bound" "verdict";
  List.iter
    (fun w ->
      match (Hashtbl.find_opt ra w, Hashtbl.find_opt rb w) with
      | Some xa, Some xb ->
        List.iter
          (fun (name, _, better, bound) ->
            let med runs = median (List.filter_map (List.assoc_opt name) runs) in
            let va = med xa and vb = med xb in
            let worse = (if better = "higher" then va -. vb else vb -. va) /. Float.abs va in
            let ok = worse <= bound in
            if not ok then incr failures;
            Printf.printf "%-11s %-18s %14.6g %14.6g %8.2f%% %6.1f%%  %s\n" w name va vb
              (100. *. worse) (100. *. bound) (if ok then "pass" else "FAIL"))
          (declared bench "end_to_end")
      | _ -> ())
    workloads;
  exit (if !failures = 0 then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

let () =
  (* The executable lives at <root>/_build/default/impactbench/; every
     path below is relative to <root>, the checkout being measured. *)
  let root =
    List.fold_left (fun p _ -> Filename.dirname p) Sys.executable_name [ 1; 2; 3; 4 ]
  in
  match List.tl (Array.to_list Sys.argv) with
  | [ "--compare"; a; b ] -> compare_runs ~root a b
  | args ->
    let workload = ref "" and seed = ref 1 and seconds = ref nan and trace = ref 0 in
    let rec parse = function
      | [] -> ()
      | "--workload" :: v :: rest -> workload := v; parse rest
      | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
      | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
      | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
      | arg :: _ -> die "unknown argument %S" arg
    in
    (try parse args with Failure _ -> die "bad argument value");
    if not (List.mem !workload workloads) then
      die "--workload must be one of %s" (String.concat ", " workloads);
    if not (!seconds > 0.) then die "--seconds must be given, and positive";
    Sys.chdir root;
    (* SIGINT and SIGTERM unwind through the clean-up below, which stops
       the daemon and removes the scratch directory. *)
    Sys.catch_break true;
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> raise Sys.Break));
    let r =
      {
        workload = !workload;
        seed = !seed;
        seconds = !seconds;
        trace = !trace = 1;
        work = Filename.concat "impactbench" (Printf.sprintf "_work/%d" (Unix.getpid ()));
        metrics = Hashtbl.create 64;
        notes = Hashtbl.create 16;
        attempted = 0;
        failures = [];
        setup_times = [];
        rows = [];
      }
    in
    mkdir_p r.work;
    let layers =
      Fun.protect
        ~finally:(fun () ->
          Loadgen.stop_all ();
          rm_rf r.work;
          try Sys.rmdir (Filename.dirname r.work) with Sys_error _ -> ())
        (fun () -> if r.workload = "serve" then run_serve r else run_batch r)
    in
    report r layers
