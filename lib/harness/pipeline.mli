(** The per-benchmark experiment pipeline (§4 of the paper):

    compile → pre-inline optimisation (constant folding + jump
    optimisation, as the paper did) → profile over the input set →
    profile-guided inline expansion → re-profile the expanded program on
    the same inputs.

    Re-profiling both verifies behaviour (outputs must be identical) and
    yields the honest post-inline dynamic numbers for Table 4, including
    the residual call classification of §4.4.

    Every stage boundary is guarded: a failure surfaces as exactly one
    typed {!Impact_support.Ierr.Error} tagged with the stage that raised
    it, never a bare lower-layer exception. *)

(** How the pipeline reacts to recoverable failures.

    [Strict] (the default) aborts on the first error of any severity.
    [Degrade] recovers where the error taxonomy permits: a failing
    profiling run is retried once and then dropped from the average; if
    profiling fails outright the pipeline falls back to
    {!Impact_profile.Profile.static_uniform} weights (every arc below
    the paper's weight threshold, so the result is exactly the
    no-inlining baseline); a caller whose expansion fails is skipped and
    the rest of the plan kept; a broken trace sink is reported instead
    of fatal.  Each recovery is recorded as a {!degradation}. *)
type policy = Strict | Degrade

(** One recovery taken under {!Degrade}: which stage failed, what
    happened, and what the pipeline did about it. *)
type degradation = {
  d_stage : Impact_support.Ierr.stage;
  d_detail : string;
  d_action : string;
}

type result = {
  bench : Impact_bench_progs.Benchmark.t;
  c_lines : int;           (** static size of the C source, in lines *)
  nruns : int;
  prog : Impact_il.Il.program;       (** pre-inline (optimised) program *)
  profile : Impact_profile.Profile.t;
  classified : Impact_core.Classify.classified list;
      (** pre-inline call-site classification (Tables 2 and 3) *)
  inliner : Impact_core.Inliner.report;
  post_profile : Impact_profile.Profile.t;
  post_classified : Impact_core.Classify.classified list;
      (** classification of the expanded program under the re-profile *)
  outputs_match : bool;
      (** every run produced byte-identical output (same MD5 digest and
          exit code) before and after expansion; vacuously true when the
          pipeline degraded to static weights and never ran the program *)
  degradations : degradation list;
      (** recoveries taken, in the order they happened; empty under
          [Strict] and on a clean degraded run *)
}

(** [run ?obs ?policy ?config ?post_cleanup ?engine ?jobs ?budget ?fuel
    bench] executes the full pipeline.  [post_cleanup] additionally runs
    the comprehensive post-inline optimisations the paper skipped
    (default false — the paper's setup).  With an enabled [obs] context
    every stage (parse, sema, lower, pre_opt, profile, callgraph,
    classify, inline — with linearize / select / expand / dce children —
    re_profile, post_classify) runs in its own span under a root
    ["pipeline"] span, and the decision log, IL-size gauges and
    run-level counters flow through the sink; recoveries taken under
    [Degrade] additionally appear as ["pipeline.degraded"] instant
    events.  [pre_opt] (default true) may be disabled to skip the
    pre-inline optimisation pass when measuring a raw lowering.
    [engine] selects the interpreter core and [jobs] the number of
    domains for the two profiling passes; both leave the result
    unchanged.  [budget] and [fuel] bound every profiling run
    ({!Impact_interp.Rt.budget}).  [profile_mode] (default
    {!Impact_profile.Coverage.Full}) selects the instrumentation mode
    for both profiling passes: [Min] counts only the co-forest call
    sites and reconstructs the rest exactly (bit-identical result,
    fewer instrumentation stores).

    [cache] makes the run incremental: each expensive stage — front end
    (keyed by source text), the two profiling passes (keyed by program
    checksum, input bytes, engine, and profile mode), classification and
    selection+expansion (keyed by program/profile checksums and the
    {!Impact_core.Config.fingerprint}) — first consults the stage cache
    and, on a verified hit, is skipped entirely with a byte-identical
    result.  Keys and the checksums in them are computed only when a
    cache is given: each key part is digested once per key (the
    profiling inputs once per run), and the front, profile and inline
    payloads carry their output's checksum, so a hit recomputes none
    and a miss computes it once.  The [cache.checksum] and
    [cache.key_bytes] counters on [obs] count both.  Only clean computations
    are stored (no degradations, no dropped runs, no budget/fuel
    truncation), so a cached artifact never replays a recovery; a
    corrupt cache entry is a counted miss, never a failure, even under
    [Strict].  Hits and misses appear as
    [cache.hit]/[cache.miss] counters and ["cache.reuse"] instants on
    [obs], and a reused selection additionally logs an ["inline.cached"]
    decision event.
    @raise Impact_support.Ierr.Error on failure: always under [Strict];
      under [Degrade] only for errors with no recovery (front-end
      failures, and profile failures once the static fallback has also
      failed). *)
val run :
  ?obs:Impact_obs.Obs.t ->
  ?policy:policy ->
  ?config:Impact_core.Config.t ->
  ?pre_opt:bool ->
  ?post_cleanup:bool ->
  ?cache:Cache.t ->
  ?engine:Impact_interp.Machine.engine ->
  ?jobs:int ->
  ?budget:Impact_interp.Rt.budget ->
  ?fuel:int ->
  ?profile_mode:Impact_profile.Coverage.mode ->
  Impact_bench_progs.Benchmark.t ->
  result

(** [run_source ~source ~inputs ()] is {!run} on an ad-hoc benchmark
    built from raw C source text and an explicit input set — the
    reentrant, daemon-safe entry point used by [impactd]: no suite
    state, no file reads, all per-call state.  Concurrent calls from
    different domains are safe, including when they share one [cache]
    handle (the store is internally synchronized and its warm path does
    file I/O outside the lock).  [name] (default ["request"]) labels
    observability events and error messages. *)
val run_source :
  ?obs:Impact_obs.Obs.t ->
  ?policy:policy ->
  ?config:Impact_core.Config.t ->
  ?pre_opt:bool ->
  ?post_cleanup:bool ->
  ?cache:Cache.t ->
  ?engine:Impact_interp.Machine.engine ->
  ?jobs:int ->
  ?budget:Impact_interp.Rt.budget ->
  ?fuel:int ->
  ?profile_mode:Impact_profile.Coverage.mode ->
  ?name:string ->
  source:string ->
  inputs:string list ->
  unit ->
  result

(** [run_suite ?obs ?policy ?config ?post_cleanup ?engine ?jobs ()] runs
    all twelve benchmarks, in suite order; [jobs > 1] fans the
    benchmarks across domains (each benchmark's own profiling stays
    sequential).  The first benchmark failure aborts the suite — use
    {!run_suite_report} to isolate failures instead. *)
val run_suite :
  ?obs:Impact_obs.Obs.t ->
  ?policy:policy ->
  ?config:Impact_core.Config.t ->
  ?post_cleanup:bool ->
  ?cache:Cache.t ->
  ?engine:Impact_interp.Machine.engine ->
  ?jobs:int ->
  ?clamp:bool ->
  ?probe:Impact_support.Pool.probe ->
  ?profile_mode:Impact_profile.Coverage.mode ->
  unit ->
  result list

(** The failure-isolating suite outcome: results for the benchmarks that
    completed (in suite order) and one typed error per benchmark that
    did not. *)
type suite_report = {
  completed : result list;
  failed : (Impact_bench_progs.Benchmark.t * Impact_support.Ierr.t) list;
}

(** [run_suite_report ?policy ?benches ()] runs [benches] (default: the
    full suite), isolating failures: a benchmark that fails — even
    fatally — is reported in [failed] with its typed error while the
    rest of the suite completes.  [policy] (default [Degrade]) governs
    each benchmark's own recovery behaviour. *)
val run_suite_report :
  ?obs:Impact_obs.Obs.t ->
  ?policy:policy ->
  ?config:Impact_core.Config.t ->
  ?post_cleanup:bool ->
  ?cache:Cache.t ->
  ?engine:Impact_interp.Machine.engine ->
  ?jobs:int ->
  ?clamp:bool ->
  ?probe:Impact_support.Pool.probe ->
  ?profile_mode:Impact_profile.Coverage.mode ->
  ?benches:Impact_bench_progs.Benchmark.t list ->
  unit ->
  suite_report

(** Derived Table 4 quantities. *)

(** [code_increase r] as a percentage. *)
val code_increase : result -> float

(** [call_decrease r] as a percentage of dynamic calls eliminated. *)
val call_decrease : result -> float

(** [ils_per_call r] — dynamic ILs between calls, after expansion. *)
val ils_per_call : result -> float

(** [cts_per_call r] — control transfers between calls, after expansion. *)
val cts_per_call : result -> float

(** [count_c_lines src] — non-blank source lines (the paper's "C lines"). *)
val count_c_lines : string -> int
