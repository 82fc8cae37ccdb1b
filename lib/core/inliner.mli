(** The inline expansion driver — the paper's §3 pipeline:

    profile → weighted call graph → linearisation → selection →
    physical expansion (→ conservative dead-function elimination).

    The input program is not mutated; the report carries the inlined
    deep copy. *)

type report = {
  program : Impact_il.Il.program;  (** the inlined program *)
  graph : Impact_callgraph.Callgraph.t;
      (** the weighted call graph of the {e original} program *)
  classified : Classify.classified list;
  linear : Linearize.t;
  selection : Select.t;
  expansion : Expand.report;
  devirt : Impact_opt.Devirt.decision list;
      (** speculations committed before the graph was built (empty
          unless [config.devirt]) *)
  size_before : int;  (** IL instructions before expansion *)
  size_after : int;   (** IL instructions after expansion *)
  dead_removed : int; (** functions removed as unreachable afterwards *)
}

(** [run ?obs ?config prog profile] performs profile-guided inline
    expansion of [prog] with the given (averaged) profile.  With
    [config.devirt], value-profiled indirect sites are first rewritten
    into guarded direct calls ({!Impact_opt.Devirt}) so speculated
    callees can inline.  With an enabled [obs] context each internal
    stage (devirt, callgraph, classify, linearize, select, expand, dce)
    runs in its own span, and the selector's decision log, per-site
    devirt speculation instants and size gauges flow through the
    sink.  The program is checked ({!Impact_il.Il_check.verify}) as
    devirt, expand and dce each finish.
    @raise Impact_support.Ierr.Error of stage [Expand], naming the pass,
      when one of them leaves ill-formed IL *)
val run :
  ?obs:Impact_obs.Obs.t ->
  ?config:Config.t ->
  ?on_expand_error:(Impact_il.Il.fid -> exn -> unit) ->
  Impact_il.Il.program ->
  Impact_profile.Profile.t ->
  report
