(* Flow inference: reconstruct the counts a minimum-coverage plan left
   unmeasured, on the aggregated counters of a profiling sweep.

   For an elided direct arc into callee f:

     C(arc) = F(f) - [f = main] * nruns - sum of f's measured in-sites

   where F(f) is the activation count the engines always record at
   entry.  Each function has at most one elided in-arc, so every
   equation has exactly one unknown — a diagonal system, solved
   independently per arc.  The elided arcs also skipped their run-level
   [calls] scalar bump, so the recovered counts are added back.

   For the (single, global) elided external site:

     C(site) = ext_calls - sum of the other external sites' counts

   — external elision keeps all scalar bumps, so [ext_calls] still
   conserves the total over every external site.

   Both reconstructions are integer arithmetic on deterministic
   interpreter counts: the patched counters are bit-for-bit what full
   instrumentation would have produced (the test suite pins this
   against the oracle on every benchmark and on generated programs). *)

module Counters = Impact_interp.Counters

(* A full plan elides nothing, so it has no directs and no external
   elision: applying it is a no-op. *)
let apply (plan : Coverage.t) ~nruns (acc : Counters.t) =
  List.iter
    (fun (e : Coverage.direct_elision) ->
      let entry = if e.Coverage.e_callee_is_main then nruns else 0 in
      let inflow = acc.Counters.func_counts.(e.Coverage.e_callee) - entry in
      let measured =
        List.fold_left
          (fun sum s -> sum + acc.Counters.site_counts.(s))
          0 e.Coverage.e_siblings
      in
      let count = inflow - measured in
      acc.Counters.site_counts.(e.Coverage.e_site) <- count;
      (* The elided arc skipped its run-level calls bump too. *)
      acc.Counters.calls <- acc.Counters.calls + count)
    plan.Coverage.directs;
  match plan.Coverage.ext with
  | Some x ->
    let measured =
      List.fold_left
        (fun sum s -> sum + acc.Counters.site_counts.(s))
        0 x.Coverage.x_others
    in
    acc.Counters.site_counts.(x.Coverage.x_site) <-
      acc.Counters.ext_calls - measured
  | None -> ()
