(* One Buffer writer renders the whole program.  [dump] feeds
   [Profile_io.program_checksum], so every cache miss that keys a later
   stage pays for it: no Format or Printf on this path. *)

let string_of_binop = function
  | Il.Add -> "add"
  | Il.Sub -> "sub"
  | Il.Mul -> "mul"
  | Il.Div -> "div"
  | Il.Mod -> "mod"
  | Il.Shl -> "shl"
  | Il.Shr -> "shr"
  | Il.And -> "and"
  | Il.Or -> "or"
  | Il.Xor -> "xor"
  | Il.Lt -> "lt"
  | Il.Le -> "le"
  | Il.Gt -> "gt"
  | Il.Ge -> "ge"
  | Il.Eq -> "eq"
  | Il.Ne -> "ne"

let string_of_unop = function
  | Il.Neg -> "neg"
  | Il.Not -> "not"
  | Il.Lnot -> "lnot"

let string_of_width = function
  | Il.Byte -> "b"
  | Il.Word -> "w"

let func_name (prog : Il.program) fid = prog.Il.funcs.(fid).Il.name

let add = Buffer.add_string

let add_int b n = add b (string_of_int n)

let add_reg b r =
  Buffer.add_char b 'r';
  add_int b r

let add_operand b = function
  | Il.Reg r -> add_reg b r
  | Il.Imm n -> add_int b n

let add_label b l =
  Buffer.add_char b 'L';
  add_int b l

(* "  rD := " *)
let add_def b r =
  add b "  ";
  add_reg b r;
  add b " := "

(* "  [rD := ]<kind>  <target>(<args>)  ; site <s>" *)
let add_call b kind site target args ret =
  add b "  ";
  Option.iter
    (fun r ->
      add_reg b r;
      add b " := ")
    ret;
  add b kind;
  add b "  ";
  target ();
  Buffer.add_char b '(';
  List.iteri
    (fun i op ->
      if i > 0 then add b ", ";
      add_operand b op)
    args;
  add b ")  ; site ";
  add_int b site

let add_instr b prog = function
  | Il.Label l ->
    add_label b l;
    Buffer.add_char b ':'
  | Il.Mov (r, op) ->
    add_def b r;
    add_operand b op
  | Il.Un (op, r, a) ->
    add_def b r;
    add b (string_of_unop op);
    Buffer.add_char b ' ';
    add_operand b a
  | Il.Bin (op, r, x, y) ->
    add_def b r;
    add b (string_of_binop op);
    Buffer.add_char b ' ';
    add_operand b x;
    add b ", ";
    add_operand b y
  | Il.Load (w, r, addr) ->
    add_def b r;
    add b "load.";
    add b (string_of_width w);
    add b " [";
    add_operand b addr;
    Buffer.add_char b ']'
  | Il.Store (w, addr, v) ->
    add b "  store.";
    add b (string_of_width w);
    add b " [";
    add_operand b addr;
    add b "] := ";
    add_operand b v
  | Il.Lea_frame (r, off) ->
    add_def b r;
    add b "frame+";
    add_int b off
  | Il.Lea_global (r, g) ->
    add_def b r;
    Buffer.add_char b '&';
    add b prog.Il.globals.(g).Il.g_name
  | Il.Lea_string (r, s) ->
    add_def b r;
    add b "&str";
    add_int b s
  | Il.Lea_func (r, fid) ->
    add_def b r;
    Buffer.add_char b '&';
    add b (func_name prog fid)
  | Il.Call (site, callee, args, ret) ->
    add_call b "call" site (fun () -> add b (func_name prog callee)) args ret
  | Il.Call_ext (site, name, args, ret) -> add_call b "ext" site (fun () -> add b name) args ret
  | Il.Call_ind (site, target, args, ret) ->
    add_call b "icall" site
      (fun () ->
        Buffer.add_char b '[';
        add_operand b target;
        Buffer.add_char b ']')
      args ret
  | Il.Ret None -> add b "  ret"
  | Il.Ret (Some op) ->
    add b "  ret ";
    add_operand b op
  | Il.Jump l ->
    add b "  jump ";
    add_label b l
  | Il.Bnz (op, l) ->
    add b "  bnz ";
    add_operand b op;
    add b ", ";
    add_label b l
  | Il.Switch (op, table, default) ->
    add b "  switch ";
    add_operand b op;
    add b " [";
    Array.iteri
      (fun i (v, l) ->
        if i > 0 then Buffer.add_char b ' ';
        add_int b v;
        add b "->";
        add_label b l)
      table;
    add b "] default ";
    add_label b default

let add_func b prog (f : Il.func) =
  add b "func ";
  add b f.Il.name;
  add b " (fid ";
  add_int b f.Il.fid;
  add b ", params ";
  add_int b f.Il.nparams;
  add b ", regs ";
  add_int b f.Il.nregs;
  add b ", frame ";
  add_int b f.Il.frame_size;
  add b "):\n";
  Array.iter
    (fun i ->
      add_instr b prog i;
      Buffer.add_char b '\n')
    f.Il.body

let dump (prog : Il.program) =
  let live = List.filter (fun (f : Il.func) -> f.Il.alive) (Array.to_list prog.Il.funcs) in
  (* About 17 bytes per instruction in the suite's programs. *)
  let b =
    Buffer.create (List.fold_left (fun n (f : Il.func) -> n + (24 * Array.length f.Il.body)) 256 live)
  in
  Array.iter
    (fun (g : Il.global) ->
      add b "global ";
      add b g.Il.g_name;
      add b ": ";
      add_int b g.Il.g_size;
      add b " bytes\n")
    prog.Il.globals;
  Array.iteri
    (fun i s ->
      add b "str";
      add_int b i;
      add b ": \"";
      add b (String.escaped s);
      add b "\"\n")
    prog.Il.strings;
  List.iter (add_func b prog) live;
  Buffer.contents b
