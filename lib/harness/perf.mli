(** Per-stage compile-time benchmarks of the inlining tool chain.

    For each benchmark program the setup runs the pipeline once up to
    selection, then Bechamel times each stage in isolation against the
    monotonic clock: [parse], profiling under both interpreter cores —
    ["profile"] (the pre-decoded threaded engine) and
    ["profile_reference"] (the small-step oracle) — [select], and the
    physical expansion ["expand"] (on a fresh copy of the program).

    [dune build @bench-perf] runs this over the full suite and writes
    the result to [bench/BENCH_perf.json]. *)

(** One timed stage: the OLS estimate of nanoseconds per run and the
    number of Bechamel samples behind it. *)
type timing = {
  stage : string;
  time_ns : float;
  samples : int;
}

type bench_perf = {
  bench : string;
  timings : timing list;
}

(** [measure ?config ?quota b] times every stage on benchmark [b].
    [quota] is the Bechamel time budget per stage in seconds (default
    0.1). *)
val measure :
  ?config:Impact_core.Config.t ->
  ?quota:float ->
  Impact_bench_progs.Benchmark.t ->
  bench_perf

(** [measure_suite ?config ?quota ()] times every benchmark of the
    suite. *)
val measure_suite :
  ?config:Impact_core.Config.t -> ?quota:float -> unit -> bench_perf list

(** [stage_total stage perfs] sums [stage]'s per-run estimate across
    benchmarks, in nanoseconds. *)
val stage_total : string -> bench_perf list -> float

(** Profiling-mode cost on one benchmark, per instrumentation mode: the
    instrumentation stores one full [Profiler.profile] sweep executes
    (exact: the [calls] and [ext_calls] bumps plus every per-site count,
    summed over the raw per-run counters) and the best (minimum) wall
    clock of that sweep over a few rotated, interleaved rounds, plus the
    [Min] plan's site counts.  Walls include plan construction: exactly
    what a pipeline run pays. *)
type profiling_cost = {
  pc_bench : string;
  pc_total_sites : int;  (** call sites in alive code *)
  pc_counted_sites : int;  (** sites the [Min] plan instruments *)
  pc_stores : (Impact_profile.Coverage.mode * int) list;
  pc_wall_ms : (Impact_profile.Coverage.mode * float) list;
}

(** [profiling_cost ?repeats b] measures every mode on benchmark [b]:
    one untimed sweep per mode for the store counts, then [repeats]
    timed rounds (default 7). *)
val profiling_cost :
  ?repeats:int -> Impact_bench_progs.Benchmark.t -> profiling_cost

(** [profiling_costs ?repeats ()] measures the full suite. *)
val profiling_costs : ?repeats:int -> unit -> profiling_cost list

(** [profiling_stores pc mode] — the stores a sweep under [mode]
    executed. *)
val profiling_stores : profiling_cost -> Impact_profile.Coverage.mode -> int

(** [profiling_wall pc mode] — the best sweep wall under [mode], ms. *)
val profiling_wall : profiling_cost -> Impact_profile.Coverage.mode -> float

(** [profiling_to_json costs] is the ["profiling"] BENCH_perf.json
    section: per benchmark, [<mode>_wall_ms] and [<mode>_stores] for each
    mode plus [total_sites], [counted_sites_min] and
    [instrumented_fraction_min]. *)
val profiling_to_json : profiling_cost list -> Impact_obs.Sink.json

(** One level of the domain-scaling sweep: the requested and effective
    (post-clamp) job counts, the wall clock, and the flight-recorder
    aggregate over every task of the level.  When the sweep took
    several attempts, [sl_wall_ms] and [sl_flight] come from the
    level's fastest attempt. *)
type scaling_level = {
  sl_jobs : int;
  sl_effective_jobs : int;
  sl_wall_ms : float;
  sl_flight : Impact_obs.Flight.summary;
}

(** The full sweep: the clamped levels, how many measurement passes the
    inversion-retry loop took ([sc_attempts], 1 when the first pass was
    already monotone), an {e unclamped} diagnostic level run with the
    literal highest job count, the {!Impact_obs.Flight.diagnose} verdict
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

(** [scaling_sweep ?engine ?job_counts ?max_attempts ()] sweeps the
    suite once per job count (default [[1; 2; 4]]) with the flight
    recorder attached.  One pool task is one benchmark program with all
    its inputs — coarse sharding, the same unit {!Pipeline.run_suite}
    fans out — run under a per-task decode cache.  Because the clamped
    levels execute near-identical work on a small machine, an inverted
    curve (highest jobs slower than lowest) is re-measured up to
    [max_attempts] times (default 3) before being published. *)
val scaling_sweep :
  ?engine:Impact_interp.Machine.engine ->
  ?job_counts:int list ->
  ?max_attempts:int ->
  unit ->
  scaling

(** [scaling_to_json sc] is the sweep as a standalone JSON document —
    the same fields {!to_json} splices into BENCH_perf.json:
    [recommended_domains] (measured), [recommended_domains_runtime],
    [profile_sweep_jobs], [profile_jobs_wall_ms], and the ["scaling"]
    object (per-level wall clock + flight telemetry, retry count,
    hi-vs-lo speedup, unclamped diagnostic, verdict). *)
val scaling_to_json : scaling -> Impact_obs.Sink.json

(** Cold-vs-warm timing of a whole suite run through the
    content-addressed stage cache ({!Cache}).  [warm_hits] and
    [warm_misses] come from the warm run only (a fresh handle over the
    same directory), so [warm_misses = 0] means the rerun did no stage
    work at all.  [warm_checksums] and [warm_key_bytes] are a warm
    rerun's [cache.checksum] and [cache.key_bytes] counters: the content
    checksums it computed (0 when every hit carries its own) and the
    bytes it digested into keys. *)
type cache_timing = {
  cache_cold_ms : float;
  cache_warm_ms : float;
  warm_hits : int;
  warm_misses : int;
  warm_checksums : int;
  warm_key_bytes : int;
}

(** [cache_cold_warm ?jobs ()] runs the suite twice against a fresh
    temporary cache directory — cold (populating) then warm (replaying)
    — and reports both wall clocks plus the warm run's hit/miss
    counters; a third, untimed warm run supplies the checksum and
    key-byte counters.  The temporary directory is removed afterwards —
    also when a run raises (recursive cleanup under [Fun.protect]).
    Raises [Failure] if either timed run's inlined outputs diverge. *)
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

(** [devirt_ablation ?threshold ()] measures every suite benchmark that
    carries a post-inline pointer residual; benchmarks without indirect
    calls are skipped. *)
val devirt_ablation : ?threshold:float -> unit -> devirt_row list

val devirt_to_json : devirt_row list -> Impact_obs.Sink.json

(** [to_json ?suite_wall_ms ?suite_jobs ?scaling ?cache perfs] is the
    BENCH_perf.json document: per-benchmark per-stage timings, the
    suite-wide expansion total ([expand_total_ns]), the
    threaded-vs-reference profiling totals ([engine_speedup]), and, when
    given, the wall clock and actual job count of the end-to-end suite
    run ([suite_wall_ms], [suite_jobs]), the scaling sweep, the
    cold-vs-warm stage-cache section ([cache]), the per-mode
    profiling-cost section ([profiling]), and the devirt ablation
    ([devirt_ablation]).

    The sweep emits the historical top-level keys — [recommended_domains]
    (now the {e measured} recommendation), [profile_sweep_jobs],
    [profile_jobs_wall_ms] — plus [recommended_domains_runtime] and a
    ["scaling"] object: per-level wall clock, effective jobs and flight
    telemetry (queue/run milliseconds, GC deltas), the retry count, the
    hi-vs-lo speedup, the unclamped diagnostic level, and the verdict
    string. *)
val to_json :
  ?suite_wall_ms:float ->
  ?suite_jobs:int ->
  ?scaling:scaling ->
  ?cache:cache_timing ->
  ?profiling:profiling_cost list ->
  ?devirt:devirt_row list ->
  bench_perf list ->
  Impact_obs.Sink.json
