(** Compile-time measurements of the inlining tool chain, behind
    [dune build @bench-perf] (which writes [BENCH_perf.json]) and
    [dune build @bench-scaling].

    Per-stage figures come from the spans {!Pipeline.run} emits: a
    traced cold and a traced warm suite run through the stage cache
    ({!cache_cold_warm}) give every span's self time, per benchmark. *)

(** One level of the domain-scaling sweep: the requested and effective
    (post-clamp) job counts, the wall clock, and the summed telemetry of
    every task of the level, which the pool probe recorded into the
    level's own {!Impact_obs.Obs} registry.  When the sweep took several
    attempts, [sl_wall_ms] and [sl_flight] come from the level's fastest
    attempt. *)
type scaling_level = {
  sl_jobs : int;
  sl_effective_jobs : int;
  sl_wall_ms : float;
  sl_flight : Impact_obs.Obs.flight;
}

(** [diagnose ~baseline s] is a one-sentence verdict on sweep [s]
    relative to the single-domain [baseline] over the same tasks:
    minor-GC contention (aggregate run time and minor collections both
    grew), core oversubscription (run time grew without GC growth),
    queueing (queue wait dominates), or healthy. *)
val diagnose : baseline:Impact_obs.Obs.flight -> Impact_obs.Obs.flight -> string

(** The full sweep: the clamped levels, how many measurement passes the
    inversion-retry loop took ([sc_attempts], 1 when the first pass was
    already monotone), an {e unclamped} diagnostic level run with the
    literal highest job count, the {!diagnose} verdict
    of that diagnostic against the lowest clamped level, and two
    recommendations: [sc_recommended] measured from the curve (smallest
    effective domain count within 5% of the best wall clock — levels
    sharing an effective count are the same configuration, so their
    differences are noise) and
    [sc_recommended_runtime] from [Domain.recommended_domain_count]. *)
type scaling = {
  sc_levels : scaling_level list;
  sc_attempts : int;
  sc_unclamped : scaling_level;
  sc_verdict : string;
  sc_recommended : int;
  sc_recommended_runtime : int;
}

(** [scaling_sweep ?job_counts ()] sweeps the suite once per job count
    (default [[1; 2; 4]]) with the pool probe feeding an Obs registry.
    One pool task is one benchmark program with all its inputs — coarse
    sharding, the same unit {!Pipeline.run_suite} fans out — run under a
    per-task decode cache.  Because the clamped levels execute
    near-identical work on a small machine, an inverted curve (highest
    jobs slower than lowest) is re-measured, up to three passes in all,
    before being published. *)
val scaling_sweep : ?job_counts:int list -> unit -> scaling

(** [scaling_to_json sc] is the sweep as the BENCH_scaling.json
    document: [recommended_domains] (measured), [recommended_domains_runtime],
    [profile_sweep_jobs], [profile_jobs_wall_ms], and the ["scaling"]
    object (per-level wall clock + task telemetry, retry count,
    hi-vs-lo speedup, unclamped diagnostic, verdict). *)
val scaling_to_json : scaling -> Impact_obs.Sink.json

(** Self milliseconds per benchmark (in suite order) and span name (in
    name order). *)
type stage_ms = (string * (string * float) list) list

(** [stage_self_ms events] sums the span self times
    ({!Impact_obs.Trace.self_times}) of a trace of {!Pipeline.run} calls
    on suite benchmarks, charging each span to the benchmark its root
    ["pipeline"] span names. *)
val stage_self_ms : Impact_obs.Sink.event list -> stage_ms

(** Cold-vs-warm timing of a whole suite run through the
    content-addressed stage cache ({!Cache}), both runs traced into
    memory.  [warm_hits] and [warm_misses] come from the warm run only
    (a fresh handle over the same directory), so [warm_misses = 0] means
    the rerun did no stage work at all.  [warm_checksums] and
    [warm_key_bytes] are the warm run's [cache.checksum] and
    [cache.key_bytes] counters: the content checksums it computed (0
    when every hit carries its own) and the bytes it digested into keys.
    [cold_stages] and [warm_stages] are the runs' span self times. *)
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

(** [cache_cold_warm ?jobs ()] runs the suite twice against a fresh
    temporary cache directory — cold (populating) then warm (replaying)
    — each with an in-memory trace, and reports both wall clocks, the
    warm run's hit/miss, checksum and key-byte counters, and both runs'
    stage self times.  The temporary directory is removed afterwards —
    also when a run raises (recursive cleanup under [Fun.protect]).
    Raises [Failure] if either run's inlined outputs diverge. *)
val cache_cold_warm : ?jobs:int -> unit -> cache_timing

(** Devirt ablation: one benchmark through the full pipeline with
    speculation off and on, comparing the post-inline dynamic pointer
    (###) residual that plain inlining cannot touch. *)
type devirt_row = {
  da_bench : string;
  da_speculated : int;  (** sites the devirt pass rewrote *)
  da_ptr_calls_off : float;  (** post-inline dynamic pointer calls, plain *)
  da_ptr_calls_on : float;  (** same with devirt enabled *)
  da_ptr_pct_off : float;  (** as % of all post-inline dynamic calls *)
  da_ptr_pct_on : float;
  da_outputs_match : bool;  (** devirted program verified against inputs *)
}

(** [devirt_ablation ()] measures every suite benchmark that carries a
    post-inline pointer residual, at the default devirt threshold;
    benchmarks without indirect calls are skipped. *)
val devirt_ablation : unit -> devirt_row list

val devirt_to_json : devirt_row list -> Impact_obs.Sink.json

(** [to_json ~suite_wall_ms ~suite_jobs ~cache ~devirt] is the
    BENCH_perf.json document: the wall clock and job count of the
    end-to-end suite run ([suite_wall_ms], [suite_jobs]), the span self
    times of the cold and warm cached runs ([stages.cold],
    [stages.warm]), the devirt ablation ([devirt_ablation]) and the
    cold-vs-warm stage-cache section ([cache]). *)
val to_json :
  suite_wall_ms:float ->
  suite_jobs:int ->
  cache:cache_timing ->
  devirt:devirt_row list ->
  Impact_obs.Sink.json
