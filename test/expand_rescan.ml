(* The seed expansion engine, kept as the reference oracle for the
   indexed engine's equivalence tests: after every single expansion it
   re-scans the caller with [Il.sites_of] and rebuilds the whole body
   through the public [Expand.expand_site] — O(body) per expansion,
   quadratic on heavily-inlined callers. *)

module Il = Impact_il.Il
module Expand = Impact_core.Expand
module Linearize = Impact_core.Linearize
module Select = Impact_core.Select

let expand_all (prog : Il.program) (linear : Linearize.t) (selection : Select.t)
    =
  let expansions = ref [] in
  let copied = ref [] in
  (* Group the selected sites by caller for quick lookup. *)
  let selected = Hashtbl.create 64 in
  List.iter
    (fun (d : Select.decision) ->
      Hashtbl.replace selected d.Select.d_site (d.Select.d_caller, d.Select.d_callee))
    selection.Select.decisions;
  Array.iter
    (fun fid ->
      let caller = prog.Il.funcs.(fid) in
      if caller.Il.alive then begin
        (* Expand until no selected site remains in the (changing) body.
           Copies get fresh ids that are never selected, so this
           terminates. *)
        let rec loop () =
          let next =
            List.find_opt
              (fun (s : Il.site) -> Hashtbl.mem selected s.Il.s_id)
              (Il.sites_of caller)
          in
          match next with
          | None -> ()
          | Some s ->
            let _, callee = Hashtbl.find selected s.Il.s_id in
            let copies = Expand.expand_site prog ~caller ~site:s.Il.s_id in
            Hashtbl.remove selected s.Il.s_id;
            copied :=
              List.rev_append
                (List.rev_map (fun (fresh, orig) -> (fresh, orig, s.Il.s_id)) copies)
                !copied;
            expansions := (s.Il.s_id, fid, callee) :: !expansions;
            loop ()
        in
        loop ()
      end)
    linear.Linearize.sequence;
  { Expand.expansions = List.rev !expansions; copied_sites = List.rev !copied }
