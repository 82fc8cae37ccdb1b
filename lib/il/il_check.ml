module Ierr = Impact_support.Ierr

type kind =
  | Bad_register of int
  | Undefined_label of int
  | Duplicate_label of int
  | Label_out_of_range of int
  | Bad_frame_offset of int
  | Bad_global of int
  | Bad_string of int
  | Bad_function of int
  | Bad_arity of { callee : string; nargs : int; nparams : int }
  | Dead_callee of string
  | Bad_site of int
  | Duplicate_site of int
  | Bad_main of int

type violation = { func : string; index : int; kind : kind }

let describe = function
  | Bad_register r -> Printf.sprintf "no register %d" r
  | Undefined_label l -> Printf.sprintf "no label L%d" l
  | Duplicate_label l -> Printf.sprintf "label L%d defined twice" l
  | Label_out_of_range l -> Printf.sprintf "label L%d out of range" l
  | Bad_frame_offset off -> Printf.sprintf "frame offset %d outside the frame" off
  | Bad_global g -> Printf.sprintf "no global %d" g
  | Bad_string s -> Printf.sprintf "no string %d" s
  | Bad_function fid -> Printf.sprintf "no function %d" fid
  | Bad_arity { callee; nargs; nparams } ->
    Printf.sprintf "call to %s with %d args, expected %d" callee nargs nparams
  | Dead_callee name -> Printf.sprintf "call to dead function %s" name
  | Bad_site s -> Printf.sprintf "no call site %d" s
  | Duplicate_site s -> Printf.sprintf "duplicate site id %d" s
  | Bad_main m -> Printf.sprintf "main (function %d) out of range" m

let to_string v =
  if v.index < 0 then describe v.kind
  else Printf.sprintf "in %s at instruction %d: %s" v.func v.index (describe v.kind)

(* Dead functions.  The threaded decoder decodes main, every direct
   callee of a function it decodes, alive or dead, and the alive targets
   of indirect calls.  Every rule therefore covers dead functions too: a
   dead body keeps the IL it had when it died, and its site ids share
   the program's one numbering.  The exception is the rule against
   direct calls to dead functions, which covers alive functions and
   main only, since a dead function may still call ones that died with
   it.  With that rule holding, the decoder reaches no dead function but
   main, so every function it decodes is covered by every rule. *)
let check (prog : Il.program) =
  let found = ref [] in
  let nfuncs = Array.length prog.Il.funcs in
  let in_range n i = i >= 0 && i < n in
  if not (in_range nfuncs prog.Il.main) then
    found := [ { func = ""; index = -1; kind = Bad_main prog.Il.main } ];
  let sites = Hashtbl.create 256 in
  Array.iteri
    (fun fid (f : Il.func) ->
      let first_def = Hashtbl.create 16 in
      Array.iteri
        (fun i -> function
          | Il.Label l when not (Hashtbl.mem first_def l) -> Hashtbl.add first_def l i
          | _ -> ())
        f.Il.body;
      let entered = f.Il.alive || fid = prog.Il.main in
      let index = ref 0 in
      let bad kind = found := { func = f.Il.name; index = !index; kind } :: !found in
      let reg r = if not (in_range f.Il.nregs r) then bad (Bad_register r) in
      let op = function Il.Reg r -> reg r | Il.Imm _ -> () in
      let target l = if not (Hashtbl.mem first_def l) then bad (Undefined_label l) in
      let id n i kind = if not (in_range n i) then bad kind in
      let call site args ret =
        if not (in_range prog.Il.next_site site) then bad (Bad_site site)
        else if Hashtbl.mem sites site then bad (Duplicate_site site)
        else Hashtbl.add sites site ();
        List.iter op args;
        Option.iter reg ret
      in
      Array.iteri
        (fun i instr ->
          index := i;
          match instr with
          | Il.Label l ->
            id f.Il.nlabels l (Label_out_of_range l);
            if Hashtbl.find first_def l <> i then bad (Duplicate_label l)
          | Il.Mov (r, o) | Il.Un (_, r, o) | Il.Load (_, r, o) -> reg r; op o
          | Il.Bin (_, r, a, b) -> reg r; op a; op b
          | Il.Store (_, a, v) -> op a; op v
          | Il.Lea_frame (r, off) ->
            reg r;
            id (max f.Il.frame_size 1) off (Bad_frame_offset off)
          | Il.Lea_global (r, g) -> reg r; id (Array.length prog.Il.globals) g (Bad_global g)
          | Il.Lea_string (r, s) -> reg r; id (Array.length prog.Il.strings) s (Bad_string s)
          | Il.Lea_func (r, callee) -> reg r; id nfuncs callee (Bad_function callee)
          | Il.Call (site, callee, args, ret) ->
            (if not (in_range nfuncs callee) then bad (Bad_function callee)
             else
               let cf = prog.Il.funcs.(callee) in
               if entered && not cf.Il.alive then bad (Dead_callee cf.Il.name);
               let nargs = List.length args in
               if nargs <> cf.Il.nparams then
                 bad (Bad_arity { callee = cf.Il.name; nargs; nparams = cf.Il.nparams }));
            call site args ret
          | Il.Call_ext (site, _, args, ret) -> call site args ret
          | Il.Call_ind (site, t, args, ret) -> op t; call site args ret
          | Il.Ret o -> Option.iter op o
          | Il.Jump l -> target l
          | Il.Bnz (o, l) -> op o; target l
          | Il.Switch (o, table, default) ->
            op o;
            Array.iter (fun (_, l) -> target l) table;
            target default)
        f.Il.body)
    prog.Il.funcs;
  List.rev !found

let verify ~stage ~pass prog =
  match check prog with
  | [] -> ()
  | v :: _ -> Ierr.error stage "ill-formed IL after %s: %s" pass (to_string v)

let check_exn prog =
  match check prog with
  | [] -> ()
  | vs -> failwith ("ill-formed IL:\n" ^ String.concat "\n" (List.map to_string vs))
