(** Running a program over its input set to collect a profile.

    This is the IMPACT-I "Profiler to C Compiler interface": the same
    interpreter that measures final results also produces the node/arc
    weights that drive inline expansion. *)

(** The outcome of profiling: the averaged profile plus each run's raw
    result, so callers can also check outputs or aggregate differently.
    [failures] is empty except in tolerant mode, where it records the
    input indices whose runs failed even after one retry. *)
type result = {
  profile : Profile.t;
  runs : Impact_interp.Machine.outcome list;
  failures : (int * exn) list;
}

(** [profile ?budget ?obs ?engine ?jobs ?keep_outputs ?tolerant
    prog ~inputs] runs [prog] once per input and averages, counting
    every function and every call site.  [obs] is handed to every
    {!Impact_interp.Machine.run} so run-level counters flow through the
    (mutex-protected) sink.

    @param budget per-run wall-clock deadline / output watermark,
      forwarded to every run ({!Impact_interp.Rt.budget}); with the
      interpreter's default fuel it makes every run finite, so a hung
      run cannot wedge a worker
    @param engine the oracle selector, forwarded to every run: tests
      and bench pass [Reference] to profile on the reference engine;
      production callers leave the default, the threaded engine
    @param jobs when > 1, runs execute on that many OCaml domains
      ({!Impact_support.Pool}); results keep input order, so the profile
      is identical for any job count (default 1)
    @param keep_outputs when false, each run's [output] text is dropped
      (the MD5 [output_digest] survives), so profiling over many inputs
      does not hold every output buffer live (default true)
    @param tolerant when true, a failing run is retried once
      (deterministically, on the same domain; [?on_retry] observes the
      first failure) and, if it fails again, dropped from the average
      and recorded in [failures] instead of raised — the profile is
      built from the surviving runs.  Default false: fail fast with the
      lowest failing input's exception, [failures] always empty.
    @raise Invalid_argument if [inputs] is empty.
    @raise Impact_interp.Machine.Trap if a run traps (non-tolerant), or
      if every run fails (tolerant: the first input's error). *)
val profile :
  ?budget:Impact_interp.Rt.budget ->
  ?obs:Impact_obs.Obs.t ->
  ?engine:Impact_interp.Machine.engine ->
  ?jobs:int ->
  ?keep_outputs:bool ->
  ?tolerant:bool ->
  ?on_retry:(int -> exn -> unit) ->
  Impact_il.Il.program ->
  inputs:string list ->
  result
