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

(** [run ?obs ?policy ?config ?post_cleanup ?jobs ?budget bench]
    executes the full pipeline.  [post_cleanup] additionally runs
    the comprehensive post-inline optimisations the paper skipped
    (default false — the paper's setup).  With an enabled [obs] context
    every step (parse, sema, lower, pre_opt, inputs, profile, callgraph,
    classify, inline — with linearize / select / expand / dce children —
    re_profile, post_callgraph, post_classify) runs in its own span
    under a root ["pipeline"] span, and the decision log, IL-size gauges
    and run-level counters flow through the sink; recoveries taken under
    [Degrade] additionally appear as ["pipeline.degraded"] instant
    events.  [pre_opt] (default true) may be disabled to skip the
    pre-inline optimisation pass when measuring a raw lowering.
    [jobs] sets the number of domains for the two profiling passes; it
    leaves the result unchanged.  [budget] bounds every profiling run
    ({!Impact_interp.Rt.budget}).  The program is checked
    ({!Impact_il.Il_check.verify}) as lower, pre_opt and post_opt
    finish, a violation being a [Lower] error that names the pass, and
    inside {!Impact_core.Inliner.run} as devirt, expand and dce finish.

    [cache] makes the run incremental: each expensive stage — front end
    (keyed by source text), the two profiling passes (keyed by the
    constant parts ["profile-threaded"] and ["mode-full"], program
    checksum and input bytes), classification and
    selection+expansion (keyed by program/profile checksums and the
    {!Impact_core.Config.fingerprint}) — first consults the stage cache
    and, on a verified hit, is skipped entirely with a byte-identical
    result.  Keys and the checksums in them are computed only when a
    cache is given: each key part is digested once per key (the
    profiling inputs once per run), and the front, profile and inline
    payloads carry their output's checksum, so a hit recomputes none
    and a miss computes it once.  The [cache.checksum] and
    [cache.key_bytes] counters on [obs] count both.  Only clean computations
    are stored (no degradations, no dropped runs, no budget
    truncation), so a cached artifact never replays a recovery; a
    corrupt cache entry is a counted miss, never a failure, even under
    [Strict].  Hits and misses appear as
    [cache.hit]/[cache.miss] counters and ["cache.reuse"] instants on
    [obs], and a reused selection additionally logs an ["inline.cached"]
    decision event.  Each key, lookup and store runs in a
    ["cache.key"], ["cache.find"] or ["cache.store"] span, a hit's
    decoding in a ["cache.decode"] span inside its lookup, and each
    checksum in a ["checksum"] span, all tagged with the stage's name
    ([front], [profile], [classify] or [inline]); a run without a cache
    opens none of them.

    [run] is reentrant: all its state is per call, the [cache] handle
    is internally synchronized (its warm path does file I/O outside the
    lock), and the interpreter's per-domain scratch reuse is
    domain-local, so concurrent calls from different domains sharing one
    cache are safe — [impactd] serves each request this way, on a
    benchmark built from the request's source and inputs.
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
  ?jobs:int ->
  ?budget:Impact_interp.Rt.budget ->
  Impact_bench_progs.Benchmark.t ->
  result

(** [run_suite ?obs ?config ?post_cleanup ?cache ?jobs ()] runs all
    twelve benchmarks under [Strict], in suite order; [jobs > 1] fans
    the benchmarks across domains (each benchmark's own profiling stays
    sequential).  The first benchmark failure aborts the suite — use
    {!run_suite_report} to isolate failures instead. *)
val run_suite :
  ?obs:Impact_obs.Obs.t ->
  ?config:Impact_core.Config.t ->
  ?post_cleanup:bool ->
  ?cache:Cache.t ->
  ?jobs:int ->
  unit ->
  result list

(** The failure-isolating suite outcome: results for the benchmarks that
    completed (in suite order) and one typed error per benchmark that
    did not. *)
type suite_report = {
  completed : result list;
  failed : (Impact_bench_progs.Benchmark.t * Impact_support.Ierr.t) list;
}

(** [run_suite_report ?obs ?cache ?benches ()] runs [benches] (default:
    the full suite) one after another under [Degrade], isolating
    failures: a benchmark that fails — even fatally — is reported in
    [failed] with its typed error while the rest of the suite
    completes. *)
val run_suite_report :
  ?obs:Impact_obs.Obs.t ->
  ?cache:Cache.t ->
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
