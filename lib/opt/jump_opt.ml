module Il = Impact_il.Il

(* The label's final destination after collapsing jump chains.  A label
   outside [0, nlabels) is left as it is, so the pass boundary check
   names it instead of an array access failing here. *)
let resolve_chains (f : Il.func) =
  let in_range l = l >= 0 && l < f.Il.nlabels in
  let at_label = Array.make (max f.Il.nlabels 1) (-1) in
  Array.iteri
    (fun idx instr ->
      match instr with
      | Il.Label l when in_range l -> at_label.(l) <- idx
      | _ -> ())
    f.Il.body;
  (* First real instruction at or after index i. *)
  let rec first_real i =
    if i >= Array.length f.Il.body then None
    else
      match f.Il.body.(i) with
      | Il.Label _ -> first_real (i + 1)
      | instr -> Some instr
  in
  let final = Array.make (max f.Il.nlabels 1) (-1) in
  let rec target l seen =
    if not (in_range l) then l
    else if final.(l) >= 0 then final.(l)
    else if List.mem l seen then l (* jump cycle (infinite loop): stop *)
    else begin
      let t =
        if at_label.(l) < 0 then l
        else
          match first_real at_label.(l) with
          | Some (Il.Jump l2) -> target l2 (l :: seen)
          | _ -> l
      in
      final.(l) <- t;
      t
    end
  in
  fun l -> target l []

let optimize_func (f : Il.func) =
  let changes = ref 0 in
  let resolve = resolve_chains f in
  (* Pass 1: retarget all branches through jump chains; simplify constant
     conditional branches. *)
  let body =
    Array.map
      (fun instr ->
        match instr with
        | Il.Jump l ->
          let t = resolve l in
          if t <> l then incr changes;
          Il.Jump t
        | Il.Bnz (Il.Imm 0, _) ->
          incr changes;
          (* never taken: keep instruction count honest by dropping it in
             the reachability pass below; rewrite to a jump-to-next no-op
             form first *)
          Il.Bnz (Il.Imm 0, 0)
        | Il.Bnz (Il.Imm _, l) ->
          incr changes;
          Il.Jump (resolve l)
        | Il.Bnz (op, l) ->
          let t = resolve l in
          if t <> l then incr changes;
          Il.Bnz (op, t)
        | Il.Switch (op, table, default) ->
          Il.Switch (op, Array.map (fun (v, l) -> (v, resolve l)) table, resolve default)
        | _ -> instr)
      f.Il.body
  in
  (* Pass 2: drop never-taken branches, jumps to the immediately
     following label, and unreachable code. *)
  let out = ref [] in
  let n = Array.length body in
  let next_label_is i l =
    (* Is the next non-label instruction boundary preceded by Label l? *)
    let rec scan j =
      if j >= n then false
      else
        match body.(j) with
        | Il.Label l2 -> l2 = l || scan (j + 1)
        | _ -> false
    in
    scan (i + 1)
  in
  let reachable = ref true in
  Array.iteri
    (fun i instr ->
      match instr with
      | Il.Label _ ->
        reachable := true;
        out := instr :: !out
      | _ when not !reachable -> incr changes
      | Il.Bnz (Il.Imm 0, _) -> incr changes
      | Il.Jump l when next_label_is i l -> incr changes
      | Il.Jump _ | Il.Ret _ ->
        out := instr :: !out;
        reachable := false
      | _ -> out := instr :: !out)
    body;
  f.Il.body <- Array.of_list (List.rev !out);
  !changes

let optimize (prog : Il.program) =
  Array.fold_left
    (fun acc (f : Il.func) -> if f.Il.alive then acc + optimize_func f else acc)
    0 prog.Il.funcs
