module Lower = Impact_il.Lower
module Config = Impact_core.Config
module Benchmark_def = Impact_bench_progs.Benchmark
module Sink = Impact_obs.Sink
module Machine = Impact_interp.Machine
module Pool = Impact_support.Pool
module Cstore = Impact_support.Cstore
module Obs = Impact_obs.Obs
module Metrics = Impact_obs.Metrics
module Trace = Impact_obs.Trace

(* Domain scaling: a profiling sweep of the whole suite per job count,
   each pool task recorded through the pool probe into an Obs registry.

   Sharding is coarse on purpose: one pool task = one benchmark program
   with {e all} its inputs, run end-to-end by whichever domain picks it
   up, with a per-task decode cache so each program decodes once.  The
   earlier flat (program, input) sharding handed ~70 tiny tasks to the
   pool and measured mostly cross-domain minor-GC barrier stalls. *)

type scaling_level = {
  sl_jobs : int;
  sl_effective_jobs : int;
  sl_wall_ms : float;
  sl_flight : Obs.flight;
}

type scaling = {
  sc_levels : scaling_level list;
  sc_attempts : int;
  sc_unclamped : scaling_level;
  sc_verdict : string;
  sc_recommended : int;
  sc_recommended_runtime : int;
}

let scaling_tasks () =
  List.map
    (fun (b : Benchmark_def.t) ->
      let prog = Lower.lower_source b.Benchmark_def.source in
      ignore (Impact_opt.Driver.pre_inline prog);
      (prog, b.Benchmark_def.inputs ()))
    Impact_bench_progs.Suite.all

let sweep_level ~clamp ~jobs tasks =
  let obs = Obs.create (Sink.discard ()) in
  let t0 = Unix.gettimeofday () in
  let totals =
    Pool.map_list ~jobs ~clamp ~probe:(Obs.probe obs "scaling.task")
      (fun (prog, inputs) ->
        let cache = Impact_interp.Threaded.cache () in
        List.fold_left
          (fun acc input ->
            let o = Machine.run ~cache prog ~input in
            acc + o.Machine.counters.Impact_interp.Counters.ils)
          0 inputs)
      tasks
  in
  ignore (Sys.opaque_identity totals);
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  {
    sl_jobs = jobs;
    sl_effective_jobs =
      (if clamp then min jobs (max 1 (Pool.default_jobs ())) else jobs);
    sl_wall_ms = wall_ms;
    sl_flight = Obs.flight obs "scaling.task";
  }

(* Compare a multi-domain sweep against its single-domain baseline over
   the same tasks and name the dominant pathology.  The diagnosis keys
   on what actually grows: the same work triggering more minor
   collections and a longer aggregate run time under more domains is
   the cross-domain minor-GC barrier signature (every collection stops
   every domain); aggregate run time growing without GC growth points
   at plain time-slicing; queue wait dominating points at submission or
   sharding imbalance. *)
let diagnose ~(baseline : Obs.flight) (s : Obs.flight) =
  if s.f_tasks = 0 || baseline.f_tasks = 0 then
    "no samples recorded; nothing to diagnose"
  else begin
    let pct part whole = if whole > 0. then 100. *. part /. whole else 0. in
    let run_growth =
      if baseline.f_run_ms > 0. then s.f_run_ms /. baseline.f_run_ms else 1.
    in
    let gc_growth =
      if baseline.f_minor_collections > 0 then
        float_of_int s.f_minor_collections
        /. float_of_int baseline.f_minor_collections
      else if s.f_minor_collections > 0 then infinity
      else 1.
    in
    let queue_share = pct s.f_queue_ms (s.f_queue_ms +. s.f_run_ms) in
    if run_growth > 1.2 && gc_growth > 1.2 then
      Printf.sprintf
        "minor-GC contention: %d domains ran the same tasks %.1fx slower in \
         aggregate with %.1fx the minor collections (%d vs %d) — every minor \
         collection is a stop-the-world barrier across all domains"
        s.f_domains run_growth gc_growth s.f_minor_collections
        baseline.f_minor_collections
    else if run_growth > 1.2 then
      Printf.sprintf
        "core oversubscription: aggregate task run time grew %.1fx across %d \
         domains without matching GC growth — domains are time-slicing cores"
        run_growth s.f_domains
    else if queue_share > 50. then
      Printf.sprintf
        "queueing dominates: %.0f%% of task wall time is queue wait across %d \
         domains — sharding is too fine or submission too slow"
        queue_share s.f_domains
    else
      Printf.sprintf
        "scaling healthy: aggregate run time %.2fx baseline across %d \
         domains, queue wait %.0f%%, minor collections %d vs %d"
        run_growth s.f_domains queue_share s.f_minor_collections
        baseline.f_minor_collections
  end

(* The smallest {e effective} domain count whose best wall clock is
   within [epsilon] of the overall best.  Levels sharing an effective
   count run the identical configuration (on a one-core box that is
   every clamped level), so the comparison is between configurations —
   their wall-clock differences are pure noise and must not drive the
   recommendation.  5% sits above observed run-to-run noise and far
   below any real scaling win. *)
let recommended_of_levels ?(epsilon = 0.05) levels =
  match levels with
  | [] -> 1
  | _ ->
    let best_of = Hashtbl.create 4 in
    List.iter
      (fun l ->
        let cur =
          Option.value ~default:infinity
            (Hashtbl.find_opt best_of l.sl_effective_jobs)
        in
        if l.sl_wall_ms < cur then
          Hashtbl.replace best_of l.sl_effective_jobs l.sl_wall_ms)
      levels;
    let groups = Hashtbl.fold (fun k w acc -> (k, w) :: acc) best_of [] in
    let best = List.fold_left (fun m (_, w) -> Float.min m w) infinity groups in
    fst
      (List.find
         (fun (_, w) -> w <= best *. (1. +. epsilon))
         (List.sort compare groups))

let scaling_sweep ?(job_counts = [ 1; 2; 4 ]) () =
  let max_attempts = 3 in
  let tasks = scaling_tasks () in
  let job_counts = match job_counts with [] -> [ 1 ] | js -> js in
  let lo = List.fold_left min max_int job_counts in
  let hi = List.fold_left max 1 job_counts in
  (* Clamped levels on a small machine execute near-identical work, so a
     single pass can land jobs=hi above jobs=lo on scheduler noise
     alone; re-measure (bounded, and recorded in [sc_attempts]) rather
     than publish an inversion that is not there. *)
  (* One discarded warm-up pass, so the cold-start penalty (first
     decode, first page faults) does not land on whichever level runs
     first and skew the curve. *)
  ignore (sweep_level ~clamp:true ~jobs:1 tasks);
  (* Each attempt re-measures every level; a level's published wall
     clock is its minimum across attempts (the least-noisy estimator —
     noise only ever adds time).  Attempts alternate sweep direction so
     monotone machine drift cannot systematically favour one end of the
     curve. *)
  let keep_min acc levels =
    List.map
      (fun (l : scaling_level) ->
        match
          List.find_opt (fun (a : scaling_level) -> a.sl_jobs = l.sl_jobs) acc
        with
        | Some a when a.sl_wall_ms <= l.sl_wall_ms -> a
        | _ -> l)
      levels
  in
  let rec attempt n acc =
    let order = if n mod 2 = 1 then job_counts else List.rev job_counts in
    let pass =
      List.map (fun jobs -> sweep_level ~clamp:true ~jobs tasks) order
    in
    let acc =
      keep_min acc
        (List.sort (fun a b -> compare a.sl_jobs b.sl_jobs) pass)
    in
    let wall j = (List.find (fun l -> l.sl_jobs = j) acc).sl_wall_ms in
    if wall hi <= wall lo || n >= max_attempts then (acc, n)
    else attempt (n + 1) acc
  in
  let levels, attempts = attempt 1 [] in
  (* Unclamped diagnostic: what [hi] literal domains actually cost on
     this machine, with the pool probe watching.  Its verdict
     against the clamped jobs=lo baseline is the recorded explanation of
     why the pool clamps. *)
  let unclamped = sweep_level ~clamp:false ~jobs:hi tasks in
  let baseline = (List.find (fun l -> l.sl_jobs = lo) levels).sl_flight in
  {
    sc_levels = levels;
    sc_attempts = attempts;
    sc_unclamped = unclamped;
    sc_verdict = diagnose ~baseline unclamped.sl_flight;
    sc_recommended = recommended_of_levels levels;
    sc_recommended_runtime = Pool.default_jobs ();
  }

(* Cold-vs-warm stage-cache timing: one traced suite run populating a
   fresh content-addressed cache, then a second traced run over the same
   directory through a fresh handle, so the warm stats count only
   warm-run traffic.  The traces give the per-stage figures: each span's
   self time, charged to the benchmark its root ["pipeline"] span
   names. *)

type stage_ms = (string * (string * float) list) list

type cache_timing = {
  cache_cold_ms : float;
  cache_warm_ms : float;
  warm_hits : int;
  warm_misses : int;
  warm_checksums : int;
  warm_key_bytes : int;
  cold_stages : stage_ms;
  warm_stages : stage_ms;
}

let stage_self_ms events =
  let spans = Trace.self_times events in
  let by_id = Hashtbl.create 256 in
  List.iter (fun (s : Trace.span) -> Hashtbl.replace by_id s.Trace.id s) spans;
  let rec bench (s : Trace.span) =
    match Hashtbl.find_opt by_id s.Trace.parent with
    | Some p -> bench p
    | None -> Sink.mem "benchmark" (Sink.Obj s.Trace.attrs)
  in
  let sums = Hashtbl.create 256 in
  List.iter
    (fun (s : Trace.span) ->
      let k = (bench s, s.Trace.name) in
      let prev = Option.value ~default:0. (Hashtbl.find_opt sums k) in
      Hashtbl.replace sums k (prev +. s.Trace.self_ms))
    spans;
  List.filter_map
    (fun (b : Benchmark_def.t) ->
      let name = b.Benchmark_def.name in
      let row =
        Hashtbl.fold
          (fun (owner, span) ms row ->
            if owner = Sink.String name then (span, ms) :: row else row)
          sums []
      in
      if row = [] then None else Some (name, List.sort compare row))
    Impact_bench_progs.Suite.all

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let cache_cold_warm ?jobs () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "impact-perf-cache.%d" (Unix.getpid ()))
  in
  rm_rf dir;
  (* The temp store must not outlive the measurement: a run that raises
     mid-benchmark (a diverged suite, a budget trip) would otherwise
     leak an impact-perf-cache.<pid> directory per failed invocation. *)
  Fun.protect
    ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ())
    (fun () ->
      let traced_run () =
        let sink = Sink.memory () in
        let obs = Obs.create sink in
        let cache = Cache.create dir in
        let t0 = Unix.gettimeofday () in
        let results = Pipeline.run_suite ?jobs ~obs ~cache () in
        let ms = (Unix.gettimeofday () -. t0) *. 1000. in
        if not (List.for_all (fun r -> r.Pipeline.outputs_match) results) then
          failwith "Perf.cache_cold_warm: cached suite run diverged";
        ( ms,
          Cstore.stats (Cache.cstore cache),
          Metrics.counter_value obs.Obs.metrics,
          stage_self_ms (Sink.events sink) )
      in
      let cold_ms, _, _, cold_stages = traced_run () in
      let warm_ms, warm, counted, warm_stages = traced_run () in
      {
        cache_cold_ms = cold_ms;
        cache_warm_ms = warm_ms;
        warm_hits = warm.Cstore.hits;
        warm_misses = warm.Cstore.misses;
        warm_checksums = counted "cache.checksum";
        warm_key_bytes = counted "cache.key_bytes";
        cold_stages;
        warm_stages;
      })

(* Devirt ablation: the same benchmark through the full pipeline with
   speculation off and on, comparing the post-inline dynamic pointer
   residual — the ### share of Table 3/4 that plain inlining cannot
   touch.  Only benchmarks that actually carry a pointer residual are
   measured; the off-run's outputs_match is already checked by the
   pipeline, and the on-run's must hold too (speculation is
   semantics-preserving by construction). *)

type devirt_row = {
  da_bench : string;
  da_speculated : int;  (** sites the devirt pass rewrote *)
  da_ptr_calls_off : float;  (** post-inline dynamic pointer calls, plain *)
  da_ptr_calls_on : float;  (** same with devirt enabled *)
  da_ptr_pct_off : float;  (** as % of all post-inline dynamic calls *)
  da_ptr_pct_on : float;
  da_outputs_match : bool;  (** devirted program verified against inputs *)
}

let devirt_ablation () =
  let module Classify = Impact_core.Classify in
  let module Stats = Impact_support.Stats in
  let ptr_mix (r : Pipeline.result) =
    let t, _, p, _, _ = Classify.dynamic_summary r.Pipeline.post_classified in
    (p, Stats.percent p t)
  in
  List.filter_map
    (fun b ->
      let off = Pipeline.run b in
      let p_off, pct_off = ptr_mix off in
      if p_off <= 0. then None
      else begin
        let on = Pipeline.run ~config:{ Config.default with Config.devirt = true } b in
        let p_on, pct_on = ptr_mix on in
        Some
          {
            da_bench = b.Benchmark_def.name;
            da_speculated =
              List.length on.Pipeline.inliner.Impact_core.Inliner.devirt;
            da_ptr_calls_off = p_off;
            da_ptr_calls_on = p_on;
            da_ptr_pct_off = pct_off;
            da_ptr_pct_on = pct_on;
            da_outputs_match = on.Pipeline.outputs_match;
          }
      end)
    Impact_bench_progs.Suite.all

let devirt_to_json rows =
  Sink.Obj
    (List.map
       (fun r ->
         ( r.da_bench,
           Sink.Obj
             [
               ("speculated_sites", Sink.Int r.da_speculated);
               ("pointer_calls_off", Sink.Float r.da_ptr_calls_off);
               ("pointer_calls_on", Sink.Float r.da_ptr_calls_on);
               ("pointer_pct_off", Sink.Float r.da_ptr_pct_off);
               ("pointer_pct_on", Sink.Float r.da_ptr_pct_on);
               ("outputs_match", Sink.Bool r.da_outputs_match);
             ] ))
       rows)

let scaling_to_json sc =
  let level_json l =
    Sink.Obj
      ([
         ("wall_ms", Sink.Float l.sl_wall_ms);
         ("effective_jobs", Sink.Int l.sl_effective_jobs);
       ]
      @
      match Obs.flight_to_json l.sl_flight with
      | Sink.Obj fields -> fields
      | other -> [ ("flight", other) ])
  in
  let wall j =
    match List.find_opt (fun l -> l.sl_jobs = j) sc.sc_levels with
    | Some l -> l.sl_wall_ms
    | None -> 0.
  in
  let lo = List.fold_left (fun m l -> min m l.sl_jobs) max_int sc.sc_levels in
  let hi = List.fold_left (fun m l -> max m l.sl_jobs) 1 sc.sc_levels in
  let w_lo = wall lo and w_hi = wall hi in
  Sink.Obj
    [
      (* Measured: cheapest job count within noise of the best wall
         clock over the clamped sweep. *)
      ("recommended_domains", Sink.Int sc.sc_recommended);
      (* [Domain.recommended_domain_count], kept alongside so the
         measured-vs-runtime delta stays visible. *)
      ("recommended_domains_runtime", Sink.Int sc.sc_recommended_runtime);
      ( "profile_sweep_jobs",
        Sink.List (List.map (fun l -> Sink.Int l.sl_jobs) sc.sc_levels) );
      ( "profile_jobs_wall_ms",
        Sink.Obj
          (List.map
             (fun l -> (string_of_int l.sl_jobs, Sink.Float l.sl_wall_ms))
             sc.sc_levels) );
      ( "scaling",
        Sink.Obj
          [
            ( "levels",
              Sink.Obj
                (List.map
                   (fun l -> (string_of_int l.sl_jobs, level_json l))
                   sc.sc_levels) );
            ("attempts", Sink.Int sc.sc_attempts);
            ( "speedup_hi_vs_lo",
              Sink.Float (if w_hi > 0. then w_lo /. w_hi else 0.) );
            ( "unclamped",
              Sink.Obj
                (("jobs", Sink.Int sc.sc_unclamped.sl_jobs)
                ::
                (match level_json sc.sc_unclamped with
                | Sink.Obj fields -> fields
                | other -> [ ("level", other) ])) );
            ("verdict", Sink.String sc.sc_verdict);
          ] );
    ]

let stages_to_json (st : stage_ms) =
  Sink.Obj
    (List.map
       (fun (b, row) ->
         (b, Sink.Obj (List.map (fun (n, ms) -> (n, Sink.Float ms)) row)))
       st)

let to_json ~suite_wall_ms ~suite_jobs ~cache ~devirt =
  Sink.Obj
    [
      ("suite_wall_ms", Sink.Float suite_wall_ms);
      ("suite_jobs", Sink.Int suite_jobs);
      ( "stages",
        Sink.Obj
          [
            ("cold", stages_to_json cache.cold_stages);
            ("warm", stages_to_json cache.warm_stages);
          ] );
      ("devirt_ablation", devirt_to_json devirt);
      ( "cache",
        Sink.Obj
          [
            ("cold_ms", Sink.Float cache.cache_cold_ms);
            ("warm_ms", Sink.Float cache.cache_warm_ms);
            ( "warm_speedup",
              Sink.Float
                (if cache.cache_warm_ms > 0. then
                   cache.cache_cold_ms /. cache.cache_warm_ms
                 else 0.) );
            ("warm_hits", Sink.Int cache.warm_hits);
            ("warm_misses", Sink.Int cache.warm_misses);
            ("warm_checksums", Sink.Int cache.warm_checksums);
            ("warm_key_bytes", Sink.Int cache.warm_key_bytes);
            ( "warm_hit_rate",
              Sink.Float
                (let total = cache.warm_hits + cache.warm_misses in
                 if total = 0 then 0.
                 else float_of_int cache.warm_hits /. float_of_int total) );
          ] );
    ]
