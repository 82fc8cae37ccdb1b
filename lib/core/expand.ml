module Il = Impact_il.Il
module Vec = Impact_support.Vec

type report = {
  expansions : (Il.site_id * Il.fid * Il.fid) list;
  copied_sites : (Il.site_id * Il.site_id * Il.site_id) list;
}

let align_up n a = (n + a - 1) / a * a

(* Rename one callee instruction into the caller's namespaces. *)
let rename_instr ~reg_off ~label_off ~frame_off ~ret_reg ~exit_label ~fresh_site
    ~record_copy instr =
  let reg r = r + reg_off in
  let lab l = l + label_off in
  let op = function
    | Il.Reg r -> Il.Reg (reg r)
    | Il.Imm _ as i -> i
  in
  let ops = List.map op in
  let ret = Option.map reg in
  match instr with
  | Il.Label l -> [ Il.Label (lab l) ]
  | Il.Mov (r, a) -> [ Il.Mov (reg r, op a) ]
  | Il.Un (o, r, a) -> [ Il.Un (o, reg r, op a) ]
  | Il.Bin (o, r, a, b) -> [ Il.Bin (o, reg r, op a, op b) ]
  | Il.Load (w, r, a) -> [ Il.Load (w, reg r, op a) ]
  | Il.Store (w, a, v) -> [ Il.Store (w, op a, op v) ]
  | Il.Lea_frame (r, off) -> [ Il.Lea_frame (reg r, off + frame_off) ]
  | Il.Lea_global (r, g) -> [ Il.Lea_global (reg r, g) ]
  | Il.Lea_string (r, s) -> [ Il.Lea_string (reg r, s) ]
  | Il.Lea_func (r, fid) -> [ Il.Lea_func (reg r, fid) ]
  | Il.Call (site, callee, args, r) ->
    let fresh = fresh_site () in
    record_copy (fresh, site);
    [ Il.Call (fresh, callee, ops args, ret r) ]
  | Il.Call_ext (site, name, args, r) ->
    let fresh = fresh_site () in
    record_copy (fresh, site);
    [ Il.Call_ext (fresh, name, ops args, ret r) ]
  | Il.Call_ind (site, target, args, r) ->
    let fresh = fresh_site () in
    record_copy (fresh, site);
    [ Il.Call_ind (fresh, op target, ops args, ret r) ]
  | Il.Ret v ->
    (* return value -> move to the caller's result register, then the
       return becomes a jump out of the inlined body.  A void return
       never writes the result register: [Machine]'s return path only
       stores when the callee actually returns a value, so inventing an
       [Imm 0] here would diverge from the un-inlined semantics. *)
    let moves =
      match (ret_reg, v) with
      | Some dst, Some v -> [ Il.Mov (dst, op v) ]
      | Some _, None | None, _ -> []
    in
    moves @ [ Il.Jump exit_label ]
  | Il.Jump l -> [ Il.Jump (lab l) ]
  | Il.Bnz (a, l) -> [ Il.Bnz (op a, lab l) ]
  | Il.Switch (a, table, default) ->
    [ Il.Switch (op a, Array.map (fun (v, l) -> (v, lab l)) table, lab default) ]

(* Splice one callee body in place of a call, emitting through [push] so
   the caller's body is written exactly once per engine pass.  Mutates
   the caller's register/label/frame namespaces and returns the
   (fresh, original) site pairs of the duplicated call sites. *)
let splice_call (prog : Il.program) ~(caller : Il.func) ~callee_fid ~args ~ret
    ~push =
  (* Chaos injection point, before any namespace mutation: a fault here
     leaves only the streaming buffer (discarded by the engine's
     rollback) and earlier splices' namespace bumps, which the engine
     snapshots. *)
  Impact_support.Fault.hit Impact_support.Fault.Expand_splice;
  let callee = prog.Il.funcs.(callee_fid) in
  let reg_off = caller.Il.nregs in
  let label_off = caller.Il.nlabels in
  let frame_off = align_up caller.Il.frame_size 8 in
  let entry_label = label_off + callee.Il.nlabels in
  let exit_label = entry_label + 1 in
  caller.Il.nregs <- caller.Il.nregs + callee.Il.nregs;
  caller.Il.nlabels <- caller.Il.nlabels + callee.Il.nlabels + 2;
  caller.Il.frame_size <- frame_off + callee.Il.frame_size;
  let copies = ref [] in
  let record_copy pair = copies := pair :: !copies in
  (* Parameter passing: the actuals move into the copy's parameter
     registers. *)
  List.iteri (fun i arg -> push (Il.Mov (reg_off + i, arg))) args;
  (* The call instruction becomes an unconditional jump into the body. *)
  push (Il.Jump entry_label);
  push (Il.Label entry_label);
  Array.iter
    (fun instr ->
      List.iter push
        (rename_instr ~reg_off ~label_off ~frame_off ~ret_reg:ret ~exit_label
           ~fresh_site:(fun () -> Il.fresh_site prog)
           ~record_copy instr))
    callee.Il.body;
  push (Il.Label exit_label);
  List.rev !copies

let expand_site (prog : Il.program) ~(caller : Il.func) ~site =
  let out = Vec.create () in
  let copies = ref None in
  Array.iter
    (fun instr ->
      match instr with
      | Il.Call (s, callee_fid, args, ret) when s = site && !copies = None ->
        copies :=
          Some (splice_call prog ~caller ~callee_fid ~args ~ret ~push:(Vec.push out))
      | instr -> Vec.push out instr)
    caller.Il.body;
  match !copies with
  | None ->
    invalid_arg
      (Printf.sprintf "Expand.expand_site: site %d not found in %s" site caller.Il.name)
  | Some copies ->
    caller.Il.body <- Vec.to_array out;
    copies

(* The indexed engine: decisions are grouped per caller up front, and a
   caller with selected sites is rewritten in ONE left-to-right pass
   that splices every selected call as it streams by.  This is
   equivalent to the rescan engine because the rescan loop always
   expands the first selected site in body order and duplicated sites
   carry fresh ids that are never selected — so its N full rebuilds
   visit the same splice points, in the same order, with the same
   namespace offsets.  Callers with no selected site are skipped without
   touching their bodies at all. *)
let expand_all ?(obs = Impact_obs.Obs.null) ?on_caller_error (prog : Il.program)
    (linear : Linearize.t) (selection : Select.t) =
  let expansions = ref [] in
  let copied = ref [] in
  (* The site index: selected site id -> callee, plus the per-caller
     count of pending selected sites. *)
  let selected = Hashtbl.create 64 in
  let pending = Hashtbl.create 64 in
  List.iter
    (fun (d : Select.decision) ->
      Hashtbl.replace selected d.Select.d_site d.Select.d_callee;
      Hashtbl.replace pending d.Select.d_caller
        (1 + Option.value (Hashtbl.find_opt pending d.Select.d_caller) ~default:0))
    selection.Select.decisions;
  let obs_on = Impact_obs.Obs.enabled obs in
  let expand_caller fid =
    let caller = prog.Il.funcs.(fid) in
    if caller.Il.alive && Hashtbl.mem pending fid then begin
      (* Everything a failed caller could have half-mutated: the
         namespace counters splice_call bumps, and the two report lists.
         The body itself is only installed on success, below. *)
      let snap_nregs = caller.Il.nregs in
      let snap_nlabels = caller.Il.nlabels in
      let snap_frame = caller.Il.frame_size in
      let snap_expansions = !expansions in
      let snap_copied = !copied in
      try
        let body = caller.Il.body in
        (* Non-label instruction counts of every body suffix, so each
           splice can report the same caller_size the rescan engine
           observes right after the corresponding rebuild. *)
        let suffix_code =
          if not obs_on then [||]
          else begin
            let n = Array.length body in
            let t = Array.make (n + 1) 0 in
            for i = n - 1 downto 0 do
              t.(i) <- t.(i + 1) + if Il.instr_is_label body.(i) then 0 else 1
            done;
            t
          end
        in
        let out = Vec.create () in
        let out_code = ref 0 in
        let push instr =
          Vec.push out instr;
          if not (Il.instr_is_label instr) then incr out_code
        in
        Array.iteri
          (fun idx instr ->
            match instr with
            | Il.Call (s, callee_fid, args, ret) when Hashtbl.mem selected s ->
              Hashtbl.remove selected s;
              let copies = splice_call prog ~caller ~callee_fid ~args ~ret ~push in
              if obs_on then begin
                Impact_obs.Obs.incr obs "expand.expansions";
                Impact_obs.Obs.incr obs ~by:(List.length copies) "expand.copied_sites";
                Impact_obs.Obs.instant obs ~kind:"expand"
                  ~attrs:
                    [
                      ("site", Impact_obs.Sink.Int s);
                      ("caller", Impact_obs.Sink.String caller.Il.name);
                      ( "callee",
                        Impact_obs.Sink.String prog.Il.funcs.(callee_fid).Il.name );
                      ("copied_sites", Impact_obs.Sink.Int (List.length copies));
                      ("caller_size", Impact_obs.Sink.Int (!out_code + suffix_code.(idx + 1)));
                    ]
                  "expand"
              end;
              copied :=
                List.rev_append
                  (List.rev_map (fun (fresh, orig) -> (fresh, orig, s)) copies)
                  !copied;
              expansions := (s, fid, callee_fid) :: !expansions
            | instr -> push instr)
          body;
        caller.Il.body <- Vec.to_array out
      with e -> (
        match on_caller_error with
        | None -> raise e
        | Some handler ->
          (* Skip this caller: roll its namespaces and the report lists
             back to the snapshot (the body was never installed) and
             carry on with the rest of the plan.  Fresh site ids handed
             out by failed splices stay consumed — gaps in the numbering
             are harmless, collisions would not be. *)
          caller.Il.nregs <- snap_nregs;
          caller.Il.nlabels <- snap_nlabels;
          caller.Il.frame_size <- snap_frame;
          expansions := snap_expansions;
          copied := snap_copied;
          handler fid e)
    end
  in
  Array.iter expand_caller linear.Linearize.sequence;
  { expansions = List.rev !expansions; copied_sites = List.rev !copied }
