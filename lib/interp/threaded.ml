(* The pre-decoded ("threaded code") interpreter engine.

   Each live function body is compiled once per run into an array of
   closures, one per non-label instruction, with everything resolvable at
   decode time already resolved:

   - operands are encoded as tagged ints (no [Reg]/[Imm] re-matching);
     an immediate beyond 62 bits reads from a constant slot ({!widen}),
   - binary/unary operators are specialised per opcode,
   - labels are resolved to decoded pc indices (labels occupy no slot),
   - switch tables compile to a direct-indexed jump table when the case
     set is compact, else to sorted arrays dispatched by binary search
     ({!Rt.compile_switch} / {!Rt.switch_find}),
   - direct call targets are resolved to their decoded-function record,
   - call argument vectors are pre-sized arrays (no per-call list),
   - register files are pooled per function across activations,
   - hot externals (getchar/putchar/print_int/...) are specialised to
     direct calls on the shared {!Rt} helpers.

   Decoded code is cached per fid, across runs under a {!cache}.
   Dispatch is direct threading: every closure ends by tail-calling its
   successor — [(Array.unsafe_get code next) c] with [next] baked in at decode time
   for straight-line ops, the resolved target for branches — so there is
   no fetch loop and no mutable pc field at all; OCaml's guaranteed tail
   calls on unary application keep the native stack flat.  Calls and
   returns cross function boundaries by tail-calling into the new
   activation's code array.  A sentinel closure one past the last real
   instruction reproduces the reference engine's "fell off the end" trap
   without a bounds check anywhere on the hot path.

   Six hot adjacent pairs (see {!fuse}) get one fused closure that does
   both instructions' work in the first one's slot; the second keeps its
   own slot and closure, so a branch landing there still works.

   Counting and fuel semantics are pinned to the reference engine
   instruction for instruction: every IL, fused or not, decrements fuel
   and raises {!Rt.Out_of_fuel} before doing its own work (the reference
   engine counts an instruction and spends its fuel before executing
   it), so exactly one fuel unit is spent per counted IL and [ils] is
   derived at the end as [initial fuel - remaining fuel] instead of
   being bumped per instruction.  The differential property tests in the
   test suite hold the two engines to identical outputs, exit codes,
   traps, peak stack and every counter.

   Unchecked array accesses: the register file, code array, and
   site-count accesses in the closures use [Array.unsafe_get]/[set].
   This is sound because {!validate} admits only a program that
   {!Impact_il.Il_check} accepts in every function the decoder can
   reach: every mentioned register index is within that function's IL
   registers, every jump target label is defined in the body (so no
   decoded pc is ever -1 or past the sentinel), and every call-site id
   is within the program's site-count array; anything else is refused
   with {!Rt.Invalid_il} before it runs. *)

module Il = Impact_il.Il

(* Raised by the bottom activation's return to stop execution. *)
exception Halt

type dfunc = {
  ffid : int;
  fname : string;
  nil : int;              (* IL registers: max nregs 1 *)
  regs0 : int array;      (* a fresh register file: nil zeros, then the
                             constant slots' values *)
  stack_use : int;
  mutable dcode : op array;
  (* pooled register files, reused across activations of this function *)
  mutable pool : int array array;
  mutable pool_n : int;
}

(* An op executes one IL instruction and tail-calls its successor. *)
and op = ctx -> unit

and ctx = {
  st : Rt.state;
  cnt : Counters.t;  (* == st.counters, one indirection shorter *)
  prog : Il.program;
  nfuncs : int;
  dfuncs : dfunc option array;  (* decode cache, per fid *)
  mutable fuel : int;
  (* current activation *)
  mutable regs : int array;
  mutable fp : int;
  mutable code : op array;
  mutable ret : int;            (* caller's result register, -1 for none *)
  mutable dfun : dfunc;
  (* saved caller activations, parallel arrays growing with depth *)
  mutable depth : int;
  mutable s_regs : int array array;
  mutable s_fp : int array;
  mutable s_pc : int array;     (* caller's resume pc *)
  mutable s_ret : int array;
  mutable s_dfun : dfunc array;
  mutable exit_code : int;
}

(* ------------------------------------------------------------------ *)
(* Operand encoding                                                    *)
(* ------------------------------------------------------------------ *)

(* A register [r] is encoded as [r lsl 1], an immediate [n] as
   [(n lsl 1) lor 1]; an immediate that does not survive the shift is
   first moved to a constant slot by {!widen}. *)

let imm_ok n = (n lsl 1) asr 1 = n

let enc = function
  | Il.Reg r -> r lsl 1
  | Il.Imm n -> (n lsl 1) lor 1

let[@inline] get (regs : int array) o =
  if o land 1 = 0 then Array.unsafe_get regs (o lsr 1) else o asr 1

(* ------------------------------------------------------------------ *)
(* Validation and constant slots                                       *)
(* ------------------------------------------------------------------ *)

(* The decoder resolves references eagerly and elides the bounds checks
   justified above, so it refuses any program {!Impact_il.Il_check}
   rejects, naming the first violation's function. *)
let validate prog =
  match Impact_il.Il_check.check prog with
  | [] -> ()
  | { func; kind; _ } :: _ ->
    let at = if func = "" then "" else " in " ^ func in
    raise
      (Rt.Invalid_il
         (Printf.sprintf "invalid IL%s: %s" at (Impact_il.Il_check.describe kind)))

(* [map_operands g i] applies [g] to every operand [i] reads through
   {!enc}; a [Mov]'s immediate is stored as it is. *)
let map_operands g = function
  | Il.Un (op, r, x) -> Il.Un (op, r, g x)
  | Il.Bin (op, r, x, y) -> Il.Bin (op, r, g x, g y)
  | Il.Load (w, r, a) -> Il.Load (w, r, g a)
  | Il.Store (w, a, v) -> Il.Store (w, g a, g v)
  | Il.Bnz (o, l) -> Il.Bnz (g o, l)
  | Il.Switch (o, table, l) -> Il.Switch (g o, table, l)
  | Il.Call (s, fid, args, r) -> Il.Call (s, fid, List.map g args, r)
  | Il.Call_ext (s, name, args, r) -> Il.Call_ext (s, name, List.map g args, r)
  | Il.Call_ind (s, t, args, r) -> Il.Call_ind (s, g t, List.map g args, r)
  | Il.Ret (Some o) -> Il.Ret (Some (g o))
  | i -> i

(* [widen nil body] gives each distinct immediate in [body] that fails
   {!imm_ok} a constant slot, numbered from [nil] (the IL register
   count), and returns the body reading the slots as registers plus
   their values; a body without one comes back as it is.  No
   instruction writes a slot: validated destinations are IL registers,
   and the arity check keeps arguments below [nil]. *)
let widen nil body =
  let slots = Hashtbl.create 4 in
  let slot = function
    | Il.Imm n when not (imm_ok n) ->
      if not (Hashtbl.mem slots n) then
        Hashtbl.add slots n (nil + Hashtbl.length slots);
      Il.Reg (Hashtbl.find slots n)
    | o -> o
  in
  let widened = Array.map (map_operands slot) body in
  let consts = Array.make (Hashtbl.length slots) 0 in
  Hashtbl.iter (fun n r -> consts.(r - nil) <- n) slots;
  ((if consts = [||] then body else widened), consts)

(* ------------------------------------------------------------------ *)
(* Register-file pool and activation stack                             *)
(* ------------------------------------------------------------------ *)

let alloc_regs df =
  let n = df.pool_n in
  if n > 0 then begin
    let n = n - 1 in
    df.pool_n <- n;
    let a = df.pool.(n) in
    df.pool.(n) <- [||];
    (* A fresh activation's registers read as zero; the constant slots
       after them keep their values. *)
    Array.fill a 0 df.nil 0;
    a
  end
  else Array.copy df.regs0

let release_regs df a =
  let n = df.pool_n in
  if n = Array.length df.pool then begin
    let bigger = Array.make (max 4 (2 * n)) [||] in
    Array.blit df.pool 0 bigger 0 n;
    df.pool <- bigger
  end;
  df.pool.(n) <- a;
  df.pool_n <- n + 1

let grow_stack c =
  let cap = Array.length c.s_pc in
  let ncap = 2 * cap in
  let grow_arr a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  c.s_regs <- grow_arr c.s_regs [||];
  c.s_fp <- grow_arr c.s_fp 0;
  c.s_pc <- grow_arr c.s_pc 0;
  c.s_ret <- grow_arr c.s_ret (-1);
  c.s_dfun <- grow_arr c.s_dfun c.dfun

(* Install [df] as the current activation with [regs]; the previous
   activation has already been saved (or there is none, for main).
   Execution resumes at decoded pc 0. *)
let install c df regs fp =
  c.regs <- regs;
  c.fp <- fp;
  c.code <- df.dcode;
  c.dfun <- df

(* Activation entry shared by main, direct and indirect calls, for a
   call passing [nargs] arguments: {!Rt.enter}'s checks, then the
   node-weight count. *)
let activate c df nargs =
  let nfp =
    Rt.enter c.st ~sp:c.fp ~stack_use:df.stack_use ~name:df.fname ~nargs
      ~nregs:df.nil
  in
  let regs = alloc_regs df in
  let fc = c.cnt.Counters.func_counts in
  fc.(df.ffid) <- fc.(df.ffid) + 1;
  (regs, nfp)

(* Enter [df]; the caller resumes at [retpc] when the callee returns. *)
let enter c df (argsenc : int array) retc retpc =
  let nargs = Array.length argsenc in
  let regs, nfp = activate c df nargs in
  let caller = c.regs in
  (* [activate] checked [nargs] against the callee's IL registers. *)
  for i = 0 to nargs - 1 do
    Array.unsafe_set regs i (get caller (Array.unsafe_get argsenc i))
  done;
  (* save the caller *)
  let d = c.depth in
  if d = Array.length c.s_pc then grow_stack c;
  c.s_regs.(d) <- caller;
  c.s_fp.(d) <- c.fp;
  c.s_pc.(d) <- retpc;
  c.s_ret.(d) <- c.ret;
  c.s_dfun.(d) <- c.dfun;
  c.depth <- d + 1;
  c.ret <- retc;
  install c df regs nfp

(* Pop the current activation and return the caller's resume pc. *)
let leave c =
  release_regs c.dfun c.regs;
  let d = c.depth - 1 in
  c.depth <- d;
  let df = Array.unsafe_get c.s_dfun d in
  c.regs <- Array.unsafe_get c.s_regs d;
  Array.unsafe_set c.s_regs d [||];
  c.fp <- Array.unsafe_get c.s_fp d;
  c.ret <- Array.unsafe_get c.s_ret d;
  c.code <- df.dcode;
  c.dfun <- df;
  Array.unsafe_get c.s_pc d

(* ------------------------------------------------------------------ *)
(* Counter helpers                                                     *)
(* ------------------------------------------------------------------ *)

(* One IL's fuel, spent before its work; used by the fused closures. *)
let[@inline] spend c =
  c.fuel <- c.fuel - 1;
  if c.fuel <= 0 then raise Rt.Out_of_fuel

let[@inline] count_ct c =
  let cnt = c.cnt in
  cnt.Counters.cts <- cnt.Counters.cts + 1

(* The rest of a fused compare-and-branch once the compare's own fuel is
   spent: its result lands in [r], then the [Bnz] spends its fuel,
   counts its control transfer and branches on that result. *)
let[@inline] set_and_branch c (code : op array) r t taken after =
  Array.unsafe_set c.regs r (if t then 1 else 0);
  spend c;
  count_ct c;
  if t then (Array.unsafe_get code taken) c else (Array.unsafe_get code after) c

let[@inline] count_call c site =
  let cnt = c.cnt in
  cnt.Counters.calls <- cnt.Counters.calls + 1;
  let sc = cnt.Counters.site_counts in
  Array.unsafe_set sc site (Array.unsafe_get sc site + 1)

let[@inline] count_ext c site =
  count_call c site;
  let cnt = c.cnt in
  cnt.Counters.ext_calls <- cnt.Counters.ext_calls + 1

let[@inline] count_ind_target c site fid =
  Counters.record_ind c.cnt ~nfuncs:c.nfuncs ~site ~fid

(* An external behaves like a call/return pair. *)
let[@inline] ext_return c retc r =
  let cnt = c.cnt in
  cnt.Counters.returns <- cnt.Counters.returns + 1;
  if retc >= 0 then Array.unsafe_set c.regs retc r

(* ------------------------------------------------------------------ *)
(* Decoder                                                             *)
(* ------------------------------------------------------------------ *)

(* External calls.  Hot externals are specialised to direct calls on
   the shared {!Rt} helpers, with the counting inlined. *)
let decode_ext (code : op array) next site name args retc : op =
  match (name, args) with
  | "getchar", [] ->
    fun c ->
      c.fuel <- c.fuel - 1;
      if c.fuel <= 0 then raise Rt.Out_of_fuel;
      count_ext c site;
      ext_return c retc (Rt.ext_getchar c.st);
      (Array.unsafe_get code next) c
  | "putchar", [ a ] ->
    let ea = enc a in
    fun c ->
      c.fuel <- c.fuel - 1;
      if c.fuel <= 0 then raise Rt.Out_of_fuel;
      count_ext c site;
      ext_return c retc (Rt.ext_putchar c.st (get c.regs ea));
      (Array.unsafe_get code next) c
  | "print_int", [ a ] ->
    let ea = enc a in
    fun c ->
      c.fuel <- c.fuel - 1;
      if c.fuel <= 0 then raise Rt.Out_of_fuel;
      count_ext c site;
      ext_return c retc (Rt.ext_print_int c.st (get c.regs ea));
      (Array.unsafe_get code next) c
  | "print_str", [ a ] ->
    let ea = enc a in
    fun c ->
      c.fuel <- c.fuel - 1;
      if c.fuel <= 0 then raise Rt.Out_of_fuel;
      count_ext c site;
      ext_return c retc (Rt.ext_print_str c.st (get c.regs ea));
      (Array.unsafe_get code next) c
  | "read", [ p; n ] ->
    let ep = enc p and en = enc n in
    fun c ->
      c.fuel <- c.fuel - 1;
      if c.fuel <= 0 then raise Rt.Out_of_fuel;
      count_ext c site;
      let regs = c.regs in
      ext_return c retc (Rt.ext_read c.st (get regs ep) (get regs en));
      (Array.unsafe_get code next) c
  | "write", [ p; n ] ->
    let ep = enc p and en = enc n in
    fun c ->
      c.fuel <- c.fuel - 1;
      if c.fuel <= 0 then raise Rt.Out_of_fuel;
      count_ext c site;
      let regs = c.regs in
      ext_return c retc (Rt.ext_write c.st (get regs ep) (get regs en));
      (Array.unsafe_get code next) c
  | _ ->
    let argsenc = Array.of_list (List.map enc args) in
    fun c ->
      c.fuel <- c.fuel - 1;
      if c.fuel <= 0 then raise Rt.Out_of_fuel;
      count_ext c site;
      let regs = c.regs in
      let vs = Array.fold_right (fun e acc -> get regs e :: acc) argsenc [] in
      ext_return c retc (Rt.call_external c.st name vs);
      (Array.unsafe_get code next) c

(* ------------------------------------------------------------------ *)
(* Fused pairs                                                         *)
(* ------------------------------------------------------------------ *)

(* [fuse st0 ltab code a b after] is one closure doing the work of [a]
   and of the next non-label instruction [b], or [None] when the pair
   has no fused form; [after] is the decoded pc past [b].  The six forms
   are the adjacent pairs that start the most dynamic ILs across the
   benchmark suite (about a third, before and after inlining), chosen
   by IL shape alone.  Each spends and checks its two ILs' fuel in
   program order, each before its own IL's work, so [Out_of_fuel] fires
   on the same IL as in the reference engine; [Bnz] and [Jump] count
   their control transfers, and a fused compare still writes its
   register.  No call, external, return or switch takes part. *)
let fuse st0 ltab (code : op array) (a : Il.instr) (b : Il.instr) after :
    op option =
  match (a, b) with
  (* A compare into [r], then a branch on [r]. *)
  | Il.Bin (op, r, x, y), Il.Bnz (Il.Reg r', l) when r' = r -> (
    let ex = enc x and ey = enc y and taken = ltab.(l) in
    match op with
    | Il.Lt ->
      Some
        (fun c ->
          spend c;
          let regs = c.regs in
          set_and_branch c code r (get regs ex < get regs ey) taken after)
    | Il.Le ->
      Some
        (fun c ->
          spend c;
          let regs = c.regs in
          set_and_branch c code r (get regs ex <= get regs ey) taken after)
    | Il.Gt ->
      Some
        (fun c ->
          spend c;
          let regs = c.regs in
          set_and_branch c code r (get regs ex > get regs ey) taken after)
    | Il.Ge ->
      Some
        (fun c ->
          spend c;
          let regs = c.regs in
          set_and_branch c code r (get regs ex >= get regs ey) taken after)
    | Il.Eq ->
      Some
        (fun c ->
          spend c;
          let regs = c.regs in
          set_and_branch c code r (get regs ex = get regs ey) taken after)
    | Il.Ne ->
      Some
        (fun c ->
          spend c;
          let regs = c.regs in
          set_and_branch c code r (get regs ex <> get regs ey) taken after)
    | _ -> None)
  (* A register move, then a jump: the paper's section 4.4 artefact, an
     inlined return's value move and the jump out of the body. *)
  | Il.Mov (r, Il.Reg s), Il.Jump l ->
    let target = ltab.(l) in
    Some
      (fun c ->
        spend c;
        let regs = c.regs in
        Array.unsafe_set regs r (Array.unsafe_get regs s);
        spend c;
        count_ct c;
        (Array.unsafe_get code target) c)
  (* An address sum into [r], then a load through [r]. *)
  | Il.Bin (Il.Add, r, x, y), Il.Load (width, d, Il.Reg r') when r' = r -> (
    let ex = enc x and ey = enc y in
    match width with
    | Il.Word ->
      Some
        (fun c ->
          spend c;
          let regs = c.regs in
          let addr = get regs ex + get regs ey in
          Array.unsafe_set regs r addr;
          spend c;
          Array.unsafe_set regs d (Rt.load_word c.st addr);
          (Array.unsafe_get code after) c)
    | Il.Byte ->
      Some
        (fun c ->
          spend c;
          let regs = c.regs in
          let addr = get regs ex + get regs ey in
          Array.unsafe_set regs r addr;
          spend c;
          Array.unsafe_set regs d (Rt.load_byte c.st addr);
          (Array.unsafe_get code after) c))
  (* A branch whose fall-through is a jump. *)
  | Il.Bnz (o, l), Il.Jump l' ->
    let eo = enc o and taken = ltab.(l) and target = ltab.(l') in
    Some
      (fun c ->
        spend c;
        count_ct c;
        if get c.regs eo <> 0 then (Array.unsafe_get code taken) c
        else begin
          spend c;
          count_ct c;
          (Array.unsafe_get code target) c
        end)
  (* A scaled index, then its sum. *)
  | Il.Bin (Il.Mul, r, x, y), Il.Bin (Il.Add, r2, x2, y2) ->
    let ex = enc x and ey = enc y and ex2 = enc x2 and ey2 = enc y2 in
    Some
      (fun c ->
        spend c;
        let regs = c.regs in
        Array.unsafe_set regs r (get regs ex * get regs ey);
        spend c;
        Array.unsafe_set regs r2 (get regs ex2 + get regs ey2);
        (Array.unsafe_get code after) c)
  (* A global's address into [r], then a word load through [r]. *)
  | Il.Lea_global (r, g), Il.Load (Il.Word, d, Il.Reg r') when r' = r ->
    let addr = st0.Rt.global_addr.(g) in
    Some
      (fun c ->
        spend c;
        let regs = c.regs in
        Array.unsafe_set regs r addr;
        spend c;
        Array.unsafe_set regs d (Rt.load_word c.st addr);
        (Array.unsafe_get code after) c)
  | _ -> None

let rec get_dfunc c fid =
  match c.dfuncs.(fid) with
  | Some df -> df
  | None ->
    let f = c.prog.Il.funcs.(fid) in
    let nil = max f.Il.nregs 1 in
    let body, consts = widen nil f.Il.body in
    let df =
      {
        ffid = fid;
        fname = f.Il.name;
        nil;
        regs0 = Array.append (Array.make nil 0) consts;
        stack_use = Il.stack_usage f;
        dcode = [||];
        pool = [||];
        pool_n = 0;
      }
    in
    (* Publish the record before decoding so recursive and mutually
       recursive call targets resolve to it. *)
    c.dfuncs.(fid) <- Some df;
    df.dcode <- decode c f body;
    df

and decode c (f : Il.func) (body : Il.instr array) : op array =
  let n = Array.length body in
  (* body index -> decoded pc (labels occupy no decoded slot) *)
  let dpc = Array.make (n + 1) 0 in
  let count = ref 0 in
  for i = 0 to n - 1 do
    dpc.(i) <- !count;
    if not (Il.instr_is_label body.(i)) then incr count
  done;
  dpc.(n) <- !count;
  let nreal = !count in
  (* Label -> decoded pc, sized to cover every label mentioned in the
     body; {!validate} guarantees every referenced label is defined. *)
  let max_label =
    Array.fold_left
      (fun m instr ->
        match instr with
        | Il.Label l | Il.Jump l | Il.Bnz (_, l) -> max m l
        | Il.Switch (_, table, default) ->
          Array.fold_left (fun m (_, l) -> max m l) (max m default) table
        | _ -> m)
      (f.Il.nlabels - 1) body
  in
  let ltab = Array.make (max (max_label + 1) 1) (-1) in
  Array.iteri
    (fun i instr ->
      match instr with
      | Il.Label l -> if l >= 0 then ltab.(l) <- dpc.(i)
      | _ -> ())
    body;
  let code = Array.make (nreal + 1) ignore_op in
  (* Sentinel: executing one past the last instruction is the reference
     engine's fall-off trap; it consumes no fuel and counts no IL. *)
  let fname = f.Il.name in
  code.(nreal) <- (fun _ -> Rt.trap "fell off the end of %s" fname);
  Array.iteri
    (fun i instr ->
      match decode_instr c ltab code (dpc.(i) + 1) instr with
      | Some op -> code.(dpc.(i)) <- op
      | None -> ())
    body;
  (* Fuse each instruction with the next non-label one where the pair
     has a fused form; the second keeps the closure decoded above. *)
  let prev = ref (-1) in
  Array.iteri
    (fun j instr ->
      if not (Il.instr_is_label instr) then begin
        (if !prev >= 0 then
           match fuse c.st ltab code body.(!prev) instr (dpc.(j) + 1) with
           | Some op -> code.(dpc.(!prev)) <- op
           | None -> ());
        prev := j
      end)
    body;
  code

(* [code] is this function's (shared, still-filling) closure array and
   [next] the decoded pc one past this instruction; every closure ends
   by tail-calling its successor through them. *)
and decode_instr c ltab (code : op array) next (instr : Il.instr) : op option =
  let st0 = c.st in
  match instr with
  | Il.Label _ -> None
  | Il.Mov (r, Il.Imm n) ->
    Some
      (fun c ->
        c.fuel <- c.fuel - 1;
        if c.fuel <= 0 then raise Rt.Out_of_fuel;
        Array.unsafe_set c.regs r n;
        (Array.unsafe_get code next) c)
  | Il.Mov (r, Il.Reg s) ->
    Some
      (fun c ->
        c.fuel <- c.fuel - 1;
        if c.fuel <= 0 then raise Rt.Out_of_fuel;
        let regs = c.regs in
        Array.unsafe_set regs r (Array.unsafe_get regs s);
        (Array.unsafe_get code next) c)
  | Il.Un (op, r, x) ->
    let ex = enc x in
    Some
      (match op with
      | Il.Neg ->
        fun c ->
          c.fuel <- c.fuel - 1;
          if c.fuel <= 0 then raise Rt.Out_of_fuel;
          let regs = c.regs in
          Array.unsafe_set regs r (-get regs ex);
          (Array.unsafe_get code next) c
      | Il.Not ->
        fun c ->
          c.fuel <- c.fuel - 1;
          if c.fuel <= 0 then raise Rt.Out_of_fuel;
          let regs = c.regs in
          Array.unsafe_set regs r (lnot (get regs ex));
          (Array.unsafe_get code next) c
      | Il.Lnot ->
        fun c ->
          c.fuel <- c.fuel - 1;
          if c.fuel <= 0 then raise Rt.Out_of_fuel;
          let regs = c.regs in
          Array.unsafe_set regs r (if get regs ex = 0 then 1 else 0);
          (Array.unsafe_get code next) c)
  | Il.Bin (op, r, x, y) ->
    let ex = enc x and ey = enc y in
    Some
      (match op with
      | Il.Add ->
        fun c ->
          c.fuel <- c.fuel - 1;
          if c.fuel <= 0 then raise Rt.Out_of_fuel;
          let regs = c.regs in
          Array.unsafe_set regs r (get regs ex + get regs ey);
          (Array.unsafe_get code next) c
      | Il.Sub ->
        fun c ->
          c.fuel <- c.fuel - 1;
          if c.fuel <= 0 then raise Rt.Out_of_fuel;
          let regs = c.regs in
          Array.unsafe_set regs r (get regs ex - get regs ey);
          (Array.unsafe_get code next) c
      | Il.Mul ->
        fun c ->
          c.fuel <- c.fuel - 1;
          if c.fuel <= 0 then raise Rt.Out_of_fuel;
          let regs = c.regs in
          Array.unsafe_set regs r (get regs ex * get regs ey);
          (Array.unsafe_get code next) c
      | Il.Div ->
        fun c ->
          c.fuel <- c.fuel - 1;
          if c.fuel <= 0 then raise Rt.Out_of_fuel;
          let regs = c.regs in
          let b = get regs ey in
          if b = 0 then Rt.trap "division by zero";
          Array.unsafe_set regs r (get regs ex / b);
          (Array.unsafe_get code next) c
      | Il.Mod ->
        fun c ->
          c.fuel <- c.fuel - 1;
          if c.fuel <= 0 then raise Rt.Out_of_fuel;
          let regs = c.regs in
          let b = get regs ey in
          if b = 0 then Rt.trap "division by zero";
          Array.unsafe_set regs r (get regs ex mod b);
          (Array.unsafe_get code next) c
      | Il.Shl ->
        fun c ->
          c.fuel <- c.fuel - 1;
          if c.fuel <= 0 then raise Rt.Out_of_fuel;
          let regs = c.regs in
          Array.unsafe_set regs r (get regs ex lsl (get regs ey land 63));
          (Array.unsafe_get code next) c
      | Il.Shr ->
        fun c ->
          c.fuel <- c.fuel - 1;
          if c.fuel <= 0 then raise Rt.Out_of_fuel;
          let regs = c.regs in
          Array.unsafe_set regs r (get regs ex asr (get regs ey land 63));
          (Array.unsafe_get code next) c
      | Il.And ->
        fun c ->
          c.fuel <- c.fuel - 1;
          if c.fuel <= 0 then raise Rt.Out_of_fuel;
          let regs = c.regs in
          Array.unsafe_set regs r (get regs ex land get regs ey);
          (Array.unsafe_get code next) c
      | Il.Or ->
        fun c ->
          c.fuel <- c.fuel - 1;
          if c.fuel <= 0 then raise Rt.Out_of_fuel;
          let regs = c.regs in
          Array.unsafe_set regs r (get regs ex lor get regs ey);
          (Array.unsafe_get code next) c
      | Il.Xor ->
        fun c ->
          c.fuel <- c.fuel - 1;
          if c.fuel <= 0 then raise Rt.Out_of_fuel;
          let regs = c.regs in
          Array.unsafe_set regs r (get regs ex lxor get regs ey);
          (Array.unsafe_get code next) c
      | Il.Lt ->
        fun c ->
          c.fuel <- c.fuel - 1;
          if c.fuel <= 0 then raise Rt.Out_of_fuel;
          let regs = c.regs in
          Array.unsafe_set regs r (if get regs ex < get regs ey then 1 else 0);
          (Array.unsafe_get code next) c
      | Il.Le ->
        fun c ->
          c.fuel <- c.fuel - 1;
          if c.fuel <= 0 then raise Rt.Out_of_fuel;
          let regs = c.regs in
          Array.unsafe_set regs r (if get regs ex <= get regs ey then 1 else 0);
          (Array.unsafe_get code next) c
      | Il.Gt ->
        fun c ->
          c.fuel <- c.fuel - 1;
          if c.fuel <= 0 then raise Rt.Out_of_fuel;
          let regs = c.regs in
          Array.unsafe_set regs r (if get regs ex > get regs ey then 1 else 0);
          (Array.unsafe_get code next) c
      | Il.Ge ->
        fun c ->
          c.fuel <- c.fuel - 1;
          if c.fuel <= 0 then raise Rt.Out_of_fuel;
          let regs = c.regs in
          Array.unsafe_set regs r (if get regs ex >= get regs ey then 1 else 0);
          (Array.unsafe_get code next) c
      | Il.Eq ->
        fun c ->
          c.fuel <- c.fuel - 1;
          if c.fuel <= 0 then raise Rt.Out_of_fuel;
          let regs = c.regs in
          Array.unsafe_set regs r (if get regs ex = get regs ey then 1 else 0);
          (Array.unsafe_get code next) c
      | Il.Ne ->
        fun c ->
          c.fuel <- c.fuel - 1;
          if c.fuel <= 0 then raise Rt.Out_of_fuel;
          let regs = c.regs in
          Array.unsafe_set regs r (if get regs ex <> get regs ey then 1 else 0);
          (Array.unsafe_get code next) c)
  | Il.Load (Il.Word, r, addr) ->
    let ea = enc addr in
    Some
      (fun c ->
        c.fuel <- c.fuel - 1;
        if c.fuel <= 0 then raise Rt.Out_of_fuel;
        let regs = c.regs in
        Array.unsafe_set regs r (Rt.load_word c.st (get regs ea));
        (Array.unsafe_get code next) c)
  | Il.Load (Il.Byte, r, addr) ->
    let ea = enc addr in
    Some
      (fun c ->
        c.fuel <- c.fuel - 1;
        if c.fuel <= 0 then raise Rt.Out_of_fuel;
        let regs = c.regs in
        Array.unsafe_set regs r (Rt.load_byte c.st (get regs ea));
        (Array.unsafe_get code next) c)
  | Il.Store (Il.Word, addr, v) ->
    let ea = enc addr and ev = enc v in
    Some
      (fun c ->
        c.fuel <- c.fuel - 1;
        if c.fuel <= 0 then raise Rt.Out_of_fuel;
        let regs = c.regs in
        Rt.store_word c.st (get regs ea) (get regs ev);
        (Array.unsafe_get code next) c)
  | Il.Store (Il.Byte, addr, v) ->
    let ea = enc addr and ev = enc v in
    Some
      (fun c ->
        c.fuel <- c.fuel - 1;
        if c.fuel <= 0 then raise Rt.Out_of_fuel;
        let regs = c.regs in
        Rt.store_byte c.st (get regs ea) (get regs ev);
        (Array.unsafe_get code next) c)
  | Il.Lea_frame (r, off) ->
    Some
      (fun c ->
        c.fuel <- c.fuel - 1;
        if c.fuel <= 0 then raise Rt.Out_of_fuel;
        Array.unsafe_set c.regs r (c.fp + off);
        (Array.unsafe_get code next) c)
  | Il.Lea_global (r, g) ->
    let addr = st0.Rt.global_addr.(g) in
    Some
      (fun c ->
        c.fuel <- c.fuel - 1;
        if c.fuel <= 0 then raise Rt.Out_of_fuel;
        Array.unsafe_set c.regs r addr;
        (Array.unsafe_get code next) c)
  | Il.Lea_string (r, s) ->
    let addr = st0.Rt.string_addr.(s) in
    Some
      (fun c ->
        c.fuel <- c.fuel - 1;
        if c.fuel <= 0 then raise Rt.Out_of_fuel;
        Array.unsafe_set c.regs r addr;
        (Array.unsafe_get code next) c)
  | Il.Lea_func (r, fid) ->
    let addr = Rt.func_addr fid in
    Some
      (fun c ->
        c.fuel <- c.fuel - 1;
        if c.fuel <= 0 then raise Rt.Out_of_fuel;
        Array.unsafe_set c.regs r addr;
        (Array.unsafe_get code next) c)
  | Il.Jump l ->
    let target = ltab.(l) in
    Some
      (fun c ->
        c.fuel <- c.fuel - 1;
        if c.fuel <= 0 then raise Rt.Out_of_fuel;
        count_ct c;
        (Array.unsafe_get code target) c)
  | Il.Bnz (op, l) ->
    let eo = enc op and target = ltab.(l) in
    Some
      (fun c ->
        c.fuel <- c.fuel - 1;
        if c.fuel <= 0 then raise Rt.Out_of_fuel;
        count_ct c;
        if get c.regs eo <> 0 then (Array.unsafe_get code target) c
        else (Array.unsafe_get code next) c)
  | Il.Switch (op, table, default) ->
    let eo = enc op in
    let cases, targets = Rt.compile_switch table in
    let dtargets = Array.map (fun l -> ltab.(l)) targets in
    let ddefault = ltab.(default) in
    let ncases = Array.length cases in
    let lo = if ncases > 0 then cases.(0) else 0 in
    (* [cases] is sorted, so the span is >= 0 unless the subtraction
       wrapped (cases more than [max_int] apart): that set is sparse. *)
    let span = if ncases > 0 then cases.(ncases - 1) - lo else -1 in
    (* Compact case sets (e.g. character dispatch in scanners) get a
       direct-indexed jump table instead of the binary search; sparse
       ones keep the shared sorted-table search. *)
    if span >= 0 && span < (8 * ncases) + 16 && span < 4096 then begin
      let range = span + 1 in
      let jt = Array.make range ddefault in
      Array.iteri (fun i k -> jt.(k - lo) <- dtargets.(i)) cases;
      Some
        (fun c ->
          c.fuel <- c.fuel - 1;
          if c.fuel <= 0 then raise Rt.Out_of_fuel;
          count_ct c;
          let i = get c.regs eo - lo in
          let t = if i >= 0 && i < range then Array.unsafe_get jt i else ddefault in
          (Array.unsafe_get code t) c)
    end
    else
      Some
        (fun c ->
          c.fuel <- c.fuel - 1;
          if c.fuel <= 0 then raise Rt.Out_of_fuel;
          count_ct c;
          let v = get c.regs eo in
          let i = Rt.switch_find cases v in
          let t = if i >= 0 then Array.unsafe_get dtargets i else ddefault in
          (Array.unsafe_get code t) c)
  | Il.Call (site, callee, args, ret) ->
    let df = get_dfunc c callee in
    let argsenc = Array.of_list (List.map enc args) in
    let retc = match ret with Some r -> r | None -> -1 in
    Some
      (fun c ->
        c.fuel <- c.fuel - 1;
        if c.fuel <= 0 then raise Rt.Out_of_fuel;
        count_call c site;
        enter c df argsenc retc next;
        (* [enter] installed the callee's code; its entry may be the
           sentinel (empty body), so fetch through the activation. *)
        (Array.unsafe_get c.code 0) c)
  | Il.Call_ind (site, target, args, ret) ->
    let et = enc target in
    let argsenc = Array.of_list (List.map enc args) in
    let retc = match ret with Some r -> r | None -> -1 in
    Some
      (fun c ->
        c.fuel <- c.fuel - 1;
        if c.fuel <= 0 then raise Rt.Out_of_fuel;
        count_call c site;
        let tv = get c.regs et in
        match Rt.fid_of_addr tv c.nfuncs with
        | Some fid when c.prog.Il.funcs.(fid).Il.alive ->
          count_ind_target c site fid;
          enter c (get_dfunc c fid) argsenc retc next;
          (Array.unsafe_get c.code 0) c
        | Some fid ->
          Rt.trap "indirect call to dead function %s"
            c.prog.Il.funcs.(fid).Il.name
        | None -> Rt.trap "indirect call through bad pointer %d" tv)
  | Il.Call_ext (site, name, args, ret) ->
    let retc = match ret with Some r -> r | None -> -1 in
    Some (decode_ext code next site name args retc)
  | Il.Ret None ->
    Some
      (fun c ->
        c.fuel <- c.fuel - 1;
        if c.fuel <= 0 then raise Rt.Out_of_fuel;
        let cnt = c.cnt in
        cnt.Counters.returns <- cnt.Counters.returns + 1;
        if c.depth = 0 then begin
          c.exit_code <- 0;
          raise Halt
        end
        else begin
          (* A void return leaves the caller's result register
             untouched — see the reference engine. *)
          let pc = leave c in
          (Array.unsafe_get c.code pc) c
        end)
  | Il.Ret (Some v) ->
    let ev = enc v in
    Some
      (fun c ->
        c.fuel <- c.fuel - 1;
        if c.fuel <= 0 then raise Rt.Out_of_fuel;
        let cnt = c.cnt in
        cnt.Counters.returns <- cnt.Counters.returns + 1;
        let value = get c.regs ev in
        if c.depth = 0 then begin
          c.exit_code <- value;
          raise Halt
        end
        else begin
          let retc = c.ret in
          let pc = leave c in
          (* [retc] was validated against the caller's register file,
             which [leave] just reinstalled. *)
          if retc >= 0 then Array.unsafe_set c.regs retc value;
          (Array.unsafe_get c.code pc) c
        end)

and ignore_op (_ : ctx) = ()

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(* Decode cache: one decoded-function array per (cache, domain).
   Decoded closures capture only decode-time constants (resolved
   addresses, label targets, the function's own code array and callee
   records) — never the run state, which flows through the [ctx]
   argument — so a decode survives the run that built it.  The mutable
   parts it does carry (register-file pools) are touched only by the
   running domain, which is why the table is keyed by domain id: two
   workers profiling the same program decode once each and never share.

   A cache is valid for one physical program, compared by identity on
   lookup, so handing the same cache a different (or mutated-via-copy)
   program silently decodes fresh rather than running stale code.
   Callers must not mutate a program in place
   between runs under one cache — the profiling driver, which owns the
   only caches, runs a frozen program by construction.  The same
   contract lets a program be validated once per fresh table rather
   than once per run. *)
type cache = {
  cmu : Mutex.t;
  per_domain : (int, Il.program * dfunc option array) Hashtbl.t;
      (* decoded functions, keyed by the owning domain *)
}

let cache () = { cmu = Mutex.create (); per_domain = Hashtbl.create 4 }

let cached_dfuncs cache prog =
  let fresh () =
    validate prog;
    Array.make (Array.length prog.Il.funcs) None
  in
  match cache with
  | None -> fresh ()
  | Some cch ->
    let dom = (Domain.self () :> int) in
    Mutex.protect cch.cmu (fun () ->
        match Hashtbl.find_opt cch.per_domain dom with
        | Some (p, d) when p == prog -> d
        | _ ->
          let d = fresh () in
          Hashtbl.replace cch.per_domain dom (prog, d);
          d)

let run ?budget ?(fuel = 1_000_000_000) ?(heap_size = 4 * 1024 * 1024)
    ?(stack_size = 1024 * 1024) ?(obs = Impact_obs.Obs.null) ?cache
    (prog : Il.program) ~input =
  let dfuncs = cached_dfuncs cache prog in
  let st =
    Rt.create_state ?budget ~reuse_mem:true ~fuel ~heap_size ~stack_size prog
      ~input
  in
  let dummy =
    {
      ffid = -1;
      fname = "<none>";
      nil = 1;
      regs0 = [| 0 |];
      stack_use = 0;
      dcode = [||];
      pool = [||];
      pool_n = 0;
    }
  in
  let c =
    {
      st;
      cnt = st.Rt.counters;
      prog;
      nfuncs = Array.length prog.Il.funcs;
      dfuncs;
      fuel;
      regs = [||];
      fp = st.Rt.stack_top;
      code = [||];
      ret = -1;
      dfun = dummy;
      depth = 0;
      s_regs = Array.make 64 [||];
      s_fp = Array.make 64 0;
      s_pc = Array.make 64 0;
      s_ret = Array.make 64 (-1);
      s_dfun = Array.make 64 dummy;
      exit_code = 0;
    }
  in
  (try
     let df_main = get_dfunc c prog.Il.main in
     let regs, nfp = activate c df_main 0 in
     install c df_main regs nfp;
     try (Array.unsafe_get c.code 0) c with Halt -> ()
   with Rt.Program_exit code -> c.exit_code <- code);
  (* Exactly one fuel unit is spent per counted IL, so the dynamic
     instruction count is the fuel consumed. *)
  st.Rt.counters.Counters.ils <- fuel - c.fuel;
  Rt.finish st ~obs ~exit_code:c.exit_code
