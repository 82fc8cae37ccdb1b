module Il = Impact_il.Il
module Callgraph = Impact_callgraph.Callgraph
module Reach = Impact_callgraph.Reach

(* Each pass below that rewrites the program is checked as it finishes,
   so a miscompile is reported by the pass that made it. *)
let verify pass prog = Impact_il.Il_check.verify ~stage:Impact_support.Ierr.Expand ~pass prog

type report = {
  program : Il.program;
  graph : Callgraph.t;
  classified : Classify.classified list;
  linear : Linearize.t;
  selection : Select.t;
  expansion : Expand.report;
  devirt : Impact_opt.Devirt.decision list;
  size_before : int;
  size_after : int;
  dead_removed : int;
}

let run ?(obs = Impact_obs.Obs.null) ?(config = Config.default)
    ?on_expand_error prog profile =
  let module Obs = Impact_obs.Obs in
  let prog = Il.copy_program prog in
  let size_before = Il.program_code_size prog in
  (* Speculation happens before the graph is built, so each guarded
     direct site appears as an ordinary user arc — carrying the weight
     the value profile measured for its target — and the speculated
     callee can be selected and expanded like any other. *)
  let devirt, profile =
    if not config.Config.devirt then ([], profile)
    else
      Obs.span obs "devirt" (fun () ->
          let decisions, profile =
            Impact_opt.Devirt.run
              ~threshold:config.Config.devirt_threshold profile prog
          in
          if Obs.enabled obs then begin
            List.iter
              (fun (d : Impact_opt.Devirt.decision) ->
                Obs.instant obs ~kind:"devirt"
                  ~attrs:
                    [
                      ("site", Impact_obs.Sink.Int d.Impact_opt.Devirt.d_site);
                      ("caller", Impact_obs.Sink.Int d.Impact_opt.Devirt.d_caller);
                      ("target", Impact_obs.Sink.Int d.Impact_opt.Devirt.d_target);
                      ( "new_site",
                        Impact_obs.Sink.Int d.Impact_opt.Devirt.d_new_site );
                      ("share", Impact_obs.Sink.Float d.Impact_opt.Devirt.d_share);
                      ( "weight",
                        Impact_obs.Sink.Float d.Impact_opt.Devirt.d_weight );
                    ]
                  "devirt.speculate")
              decisions;
            Obs.gauge_int obs "devirt.sites" (List.length decisions)
          end;
          verify "devirt" prog;
          (decisions, profile))
  in
  let graph =
    Obs.span obs "callgraph" (fun () ->
        Callgraph.build
          ~refine_pointer_targets:config.Config.refine_pointer_targets prog profile)
  in
  let classified = Obs.span obs "classify" (fun () -> Classify.classify ~obs graph config) in
  let order =
    match config.Config.linearization with
    | Config.Lin_weight_sorted -> Linearize.Weight_sorted
    | Config.Lin_random -> Linearize.Random_only
    | Config.Lin_reverse -> Linearize.Reverse_weight
    | Config.Lin_topological -> Linearize.Topological
  in
  let linear =
    Obs.span obs "linearize" (fun () ->
        Linearize.linearize ~obs ~order graph ~seed:config.Config.linearize_seed)
  in
  let selection = Obs.span obs "select" (fun () -> Select.select ~obs graph config linear) in
  let expansion =
    Obs.span obs "expand" (fun () ->
        let expansion =
          Expand.expand_all ~obs ?on_caller_error:on_expand_error prog linear
            selection
        in
        verify "expand" prog;
        expansion)
  in
  (* Conservative function-level dead-code elimination.  With external
     calls present this removes nothing (every function stays reachable
     through $$$), exactly as the paper observes. *)
  let dead_removed =
    Obs.span obs "dce" (fun () ->
        let graph_after = Callgraph.build prog profile in
        let removed = Reach.eliminate graph_after in
        verify "dce" prog;
        removed)
  in
  let size_after = Il.program_code_size prog in
  if Obs.enabled obs then begin
    Obs.gauge_int obs "inline.size_before" size_before;
    Obs.gauge_int obs "inline.size_after" size_after;
    Obs.gauge_int obs "inline.dead_removed" dead_removed;
    Obs.incr obs ~by:dead_removed "inline.dead_funcs_removed"
  end;
  {
    program = prog;
    graph;
    classified;
    linear;
    selection;
    expansion;
    devirt;
    size_before;
    size_after;
    dead_removed;
  }
