(* The pre-decoded ("threaded code") interpreter engine.

   Each live function body is compiled once per run into an array of
   closures, one per non-label instruction, with everything resolvable at
   decode time already resolved:

   - operands are encoded as tagged ints (no [Reg]/[Imm] re-matching),
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

   Decoded code is cached per fid for the duration of one run, exactly
   like the reference engine's label/code tables.  Dispatch is direct
   threading: every closure ends by tail-calling its successor —
   [(Array.unsafe_get code next) c] with [next] baked in at decode time
   for straight-line ops, the resolved target for branches — so there is
   no fetch loop and no mutable pc field at all; OCaml's guaranteed tail
   calls on unary application keep the native stack flat.  Calls and
   returns cross function boundaries by tail-calling into the new
   activation's code array.  A sentinel closure one past the last real
   instruction reproduces the reference engine's "fell off the end" trap
   without a bounds check anywhere on the hot path.

   Counting and fuel semantics are pinned to the reference engine
   instruction for instruction: every closure decrements fuel and raises
   {!Rt.Out_of_fuel} before doing its work (the reference engine counts
   an instruction and spends its fuel before executing it), and because
   exactly one closure runs per counted IL, [ils] is derived at the end
   as [initial fuel - remaining fuel] instead of being bumped per
   instruction.  The differential property tests in the test suite hold
   the two engines to identical outputs, exit codes, traps, peak stack
   and every counter.

   Unchecked array accesses: the register file, code array, and
   site-count accesses in the closures use [Array.unsafe_get]/[set].
   This is sound because {!supported} admits a program only after
   verifying, per function, that every mentioned register index is
   within that function's register file, every jump target label is
   defined in the body (so no decoded pc is ever -1 or past the
   sentinel), and every call-site id is within the program's site-count
   array; anything else runs on the (fully checked) reference engine. *)

module Il = Impact_il.Il

(* Raised by the bottom activation's return to stop execution. *)
exception Halt

type dfunc = {
  ffid : int;
  fname : string;
  rlen : int;             (* register file length: max nregs 1 *)
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
  plan : Iplan.t option;
  (* Instrumentation plan; [None] counts everything.  Read only at
     decode time — each call site compiles to the closure variant its
     plan entry selects, so the per-execution hot path never consults
     the plan at all. *)
  dfuncs : dfunc option array;  (* decode cache, per fid *)
  ind_dfuncs : dfunc option array;
  (* Per-fid view of [dfuncs] for indirect-call targets resolved under
     a plan.  A populated slot means the target already went through
     its one-time [Iplan.ind_ok] legitimacy check (poisoning the plan's
     sticky flag if it failed), so the steady-state indirect hot path
     is the same array-load-and-match shape as an uninstrumented run. *)
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
   [(n lsl 1) lor 1]; {!supported} rejects programs whose immediates do
   not survive the shift (they run on the reference engine instead). *)

let imm_ok n = (n lsl 1) asr 1 = n

let enc = function
  | Il.Reg r -> r lsl 1
  | Il.Imm n -> (n lsl 1) lor 1

let[@inline] get (regs : int array) o =
  if o land 1 = 0 then Array.unsafe_get regs (o lsr 1) else o asr 1

(* ------------------------------------------------------------------ *)
(* Eligibility                                                         *)
(* ------------------------------------------------------------------ *)

(* The decoder resolves global/string/function references and call
   targets eagerly and elides the bounds checks justified above, so it
   only accepts programs where every static reference is in range — in
   practice, everything the IL validator accepts.  Anything else runs on
   the reference engine, which checks lazily at execution time. *)
let supported (prog : Il.program) =
  let nfuncs = Array.length prog.Il.funcs in
  let nglobals = Array.length prog.Il.globals in
  let nstrings = Array.length prog.Il.strings in
  let nsites = max prog.Il.next_site 1 in
  let func_ok (f : Il.func) =
    let rlen = max f.Il.nregs 1 in
    let reg_ok r = r >= 0 && r < rlen in
    let operand_ok = function
      | Il.Reg r -> reg_ok r
      | Il.Imm n -> imm_ok n
    in
    let ret_ok = function None -> true | Some r -> reg_ok r in
    let site_ok s = s >= 0 && s < nsites in
    let defined = Hashtbl.create 16 in
    Array.iter
      (function
        | Il.Label l -> Hashtbl.replace defined l ()
        | _ -> ())
      f.Il.body;
    let label_ok l = Hashtbl.mem defined l in
    let instr_ok = function
      | Il.Label _ -> true
      | Il.Mov (r, o) | Il.Un (_, r, o) | Il.Load (_, r, o) ->
        reg_ok r && operand_ok o
      | Il.Bin (_, r, x, y) -> reg_ok r && operand_ok x && operand_ok y
      | Il.Store (_, x, y) -> operand_ok x && operand_ok y
      | Il.Lea_frame (r, _) -> reg_ok r
      | Il.Lea_global (r, g) -> reg_ok r && g >= 0 && g < nglobals
      | Il.Lea_string (r, s) -> reg_ok r && s >= 0 && s < nstrings
      | Il.Lea_func (r, fid) -> reg_ok r && fid >= 0 && fid < nfuncs
      | Il.Jump l -> label_ok l
      | Il.Bnz (o, l) -> operand_ok o && label_ok l
      | Il.Switch (o, table, default) ->
        operand_ok o && label_ok default
        && Array.for_all (fun (_, l) -> label_ok l) table
      | Il.Call (site, callee, args, ret) ->
        site_ok site && callee >= 0 && callee < nfuncs
        && List.for_all operand_ok args
        && ret_ok ret
      | Il.Call_ext (site, _, args, ret) ->
        site_ok site && List.for_all operand_ok args && ret_ok ret
      | Il.Call_ind (site, target, args, ret) ->
        site_ok site && operand_ok target
        && List.for_all operand_ok args
        && ret_ok ret
      | Il.Ret (Some o) -> operand_ok o
      | Il.Ret None -> true
    in
    Array.for_all instr_ok f.Il.body
  in
  prog.Il.main >= 0 && prog.Il.main < nfuncs
  && Array.for_all func_ok prog.Il.funcs

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
    (* A fresh activation's registers read as zero. *)
    Array.fill a 0 (Array.length a) 0;
    a
  end
  else Array.make df.rlen 0

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

(* Activation entry shared by main, direct and indirect calls: the
   stack-extent check, peak tracking and node-weight count mirror the
   reference engine's [enter_activation]. *)
let activate c df =
  let st = c.st in
  (* Deadline first: before the stack check and before any counter
     moves, matching the reference engine's [enter_activation]. *)
  Rt.check_deadline st;
  let nfp = c.fp - df.stack_use in
  if nfp < st.Rt.stack_base then Rt.trap "control stack overflow in %s" df.fname;
  if nfp < st.Rt.min_sp then st.Rt.min_sp <- nfp;
  let regs = alloc_regs df in
  let fc = c.cnt.Counters.func_counts in
  fc.(df.ffid) <- fc.(df.ffid) + 1;
  (regs, nfp)

(* Enter [df]; the caller resumes at [retpc] when the callee returns. *)
let enter c df (argsenc : int array) retc retpc =
  let regs, nfp = activate c df in
  let caller = c.regs in
  (* Safe writes: an indirect call can reach any function, so the
     argument count is not statically bounded by the callee's file. *)
  for i = 0 to Array.length argsenc - 1 do
    regs.(i) <- get caller (Array.unsafe_get argsenc i)
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

let[@inline] count_ct c =
  let cnt = c.cnt in
  cnt.Counters.cts <- cnt.Counters.cts + 1

let[@inline] count_call c site =
  let cnt = c.cnt in
  cnt.Counters.calls <- cnt.Counters.calls + 1;
  let sc = cnt.Counters.site_counts in
  Array.unsafe_set sc site (Array.unsafe_get sc site + 1)

let[@inline] count_ext c site =
  count_call c site;
  let cnt = c.cnt in
  cnt.Counters.ext_calls <- cnt.Counters.ext_calls + 1

(* Plan-selected counting variants (minimum-coverage profiling).  An
   elided direct site keeps neither the scalar nor the per-site count;
   an elided external site keeps its scalars (so the run-level calls /
   ext-calls / returns totals stay exact) and skips only the per-site
   store. *)

let[@inline] count_call_scalar c =
  let cnt = c.cnt in
  cnt.Counters.calls <- cnt.Counters.calls + 1

let[@inline] count_ext_scalar c =
  let cnt = c.cnt in
  cnt.Counters.calls <- cnt.Counters.calls + 1;
  cnt.Counters.ext_calls <- cnt.Counters.ext_calls + 1

let[@inline] count_site_only c site =
  let sc = c.cnt.Counters.site_counts in
  Array.unsafe_set sc site (Array.unsafe_get sc site + 1)

(* Indirect-site target histograms are never elided: the
   counts cannot be re-attributed to a callee afterwards, so the value
   profile must stay exact under every coverage mode (both the devirt
   pass and the full|min differential rely on that). *)
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

(* External calls, fully counted (the plan-less path and plan-counted
   sites).  Hot externals are specialised to direct calls on the shared
   {!Rt} helpers; the counting is inlined, not a closure, so the default
   engine pays no indirection. *)
let decode_ext_full (code : op array) next site name args retc : op =
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

(* External calls whose counting the plan altered (the elided site of a
   minimum-coverage plan).  The external
   itself stays specialised; only the counting goes through [count],
   chosen once at decode time. *)
let decode_ext_by (code : op array) next name args retc (count : ctx -> unit) :
    op =
  match (name, args) with
  | "getchar", [] ->
    fun c ->
      c.fuel <- c.fuel - 1;
      if c.fuel <= 0 then raise Rt.Out_of_fuel;
      count c;
      ext_return c retc (Rt.ext_getchar c.st);
      (Array.unsafe_get code next) c
  | "putchar", [ a ] ->
    let ea = enc a in
    fun c ->
      c.fuel <- c.fuel - 1;
      if c.fuel <= 0 then raise Rt.Out_of_fuel;
      count c;
      ext_return c retc (Rt.ext_putchar c.st (get c.regs ea));
      (Array.unsafe_get code next) c
  | "print_int", [ a ] ->
    let ea = enc a in
    fun c ->
      c.fuel <- c.fuel - 1;
      if c.fuel <= 0 then raise Rt.Out_of_fuel;
      count c;
      ext_return c retc (Rt.ext_print_int c.st (get c.regs ea));
      (Array.unsafe_get code next) c
  | "print_str", [ a ] ->
    let ea = enc a in
    fun c ->
      c.fuel <- c.fuel - 1;
      if c.fuel <= 0 then raise Rt.Out_of_fuel;
      count c;
      ext_return c retc (Rt.ext_print_str c.st (get c.regs ea));
      (Array.unsafe_get code next) c
  | "read", [ p; n ] ->
    let ep = enc p and en = enc n in
    fun c ->
      c.fuel <- c.fuel - 1;
      if c.fuel <= 0 then raise Rt.Out_of_fuel;
      count c;
      let regs = c.regs in
      ext_return c retc (Rt.ext_read c.st (get regs ep) (get regs en));
      (Array.unsafe_get code next) c
  | "write", [ p; n ] ->
    let ep = enc p and en = enc n in
    fun c ->
      c.fuel <- c.fuel - 1;
      if c.fuel <= 0 then raise Rt.Out_of_fuel;
      count c;
      let regs = c.regs in
      ext_return c retc (Rt.ext_write c.st (get regs ep) (get regs en));
      (Array.unsafe_get code next) c
  | _ ->
    let argsenc = Array.of_list (List.map enc args) in
    fun c ->
      c.fuel <- c.fuel - 1;
      if c.fuel <= 0 then raise Rt.Out_of_fuel;
      count c;
      let regs = c.regs in
      let vs = Array.fold_right (fun e acc -> get regs e :: acc) argsenc [] in
      ext_return c retc (Rt.call_external c.st name vs);
      (Array.unsafe_get code next) c

(* The elided external site of a minimum-coverage plan: scalars stay
   exact, only the per-site store is dropped.  Inlined like
   {!decode_ext_full} — the elided site is typically the hottest
   external in the program (the plan elides the max-weight in-arc), so
   it must do strictly {e less} work per execution than the full path,
   not trade a store for a closure call. *)
let decode_ext_scalar (code : op array) next name args retc : op =
  match (name, args) with
  | "getchar", [] ->
    fun c ->
      c.fuel <- c.fuel - 1;
      if c.fuel <= 0 then raise Rt.Out_of_fuel;
      count_ext_scalar c;
      ext_return c retc (Rt.ext_getchar c.st);
      (Array.unsafe_get code next) c
  | "putchar", [ a ] ->
    let ea = enc a in
    fun c ->
      c.fuel <- c.fuel - 1;
      if c.fuel <= 0 then raise Rt.Out_of_fuel;
      count_ext_scalar c;
      ext_return c retc (Rt.ext_putchar c.st (get c.regs ea));
      (Array.unsafe_get code next) c
  | "print_int", [ a ] ->
    let ea = enc a in
    fun c ->
      c.fuel <- c.fuel - 1;
      if c.fuel <= 0 then raise Rt.Out_of_fuel;
      count_ext_scalar c;
      ext_return c retc (Rt.ext_print_int c.st (get c.regs ea));
      (Array.unsafe_get code next) c
  | "print_str", [ a ] ->
    let ea = enc a in
    fun c ->
      c.fuel <- c.fuel - 1;
      if c.fuel <= 0 then raise Rt.Out_of_fuel;
      count_ext_scalar c;
      ext_return c retc (Rt.ext_print_str c.st (get c.regs ea));
      (Array.unsafe_get code next) c
  | "read", [ p; n ] ->
    let ep = enc p and en = enc n in
    fun c ->
      c.fuel <- c.fuel - 1;
      if c.fuel <= 0 then raise Rt.Out_of_fuel;
      count_ext_scalar c;
      let regs = c.regs in
      ext_return c retc (Rt.ext_read c.st (get regs ep) (get regs en));
      (Array.unsafe_get code next) c
  | "write", [ p; n ] ->
    let ep = enc p and en = enc n in
    fun c ->
      c.fuel <- c.fuel - 1;
      if c.fuel <= 0 then raise Rt.Out_of_fuel;
      count_ext_scalar c;
      let regs = c.regs in
      ext_return c retc (Rt.ext_write c.st (get regs ep) (get regs en));
      (Array.unsafe_get code next) c
  | _ ->
    let argsenc = Array.of_list (List.map enc args) in
    fun c ->
      c.fuel <- c.fuel - 1;
      if c.fuel <= 0 then raise Rt.Out_of_fuel;
      count_ext_scalar c;
      let regs = c.regs in
      let vs = Array.fold_right (fun e acc -> get regs e :: acc) argsenc [] in
      ext_return c retc (Rt.call_external c.st name vs);
      (Array.unsafe_get code next) c

let rec get_dfunc c fid =
  match c.dfuncs.(fid) with
  | Some df -> df
  | None ->
    let f = c.prog.Il.funcs.(fid) in
    let df =
      {
        ffid = fid;
        fname = f.Il.name;
        rlen = max f.Il.nregs 1;
        stack_use = Il.stack_usage f;
        dcode = [||];
        pool = [||];
        pool_n = 0;
      }
    in
    (* Publish the record before decoding so recursive and mutually
       recursive call targets resolve to it. *)
    c.dfuncs.(fid) <- Some df;
    df.dcode <- decode c f;
    df

and get_dfunc_ind c pl fid =
  match c.ind_dfuncs.(fid) with
  | Some df -> df
  | None ->
    (* First resolution of this indirect target under this plan: run
       the legitimacy check once — a fabricated address poisons the
       sticky flag, and once is enough — then cache the decoded
       function so later calls skip the check and its branch. *)
    if not (Array.unsafe_get pl.Iplan.ind_ok fid) then
      Atomic.set pl.Iplan.poisoned true;
    let df = get_dfunc c fid in
    c.ind_dfuncs.(fid) <- Some df;
    df

and decode c (f : Il.func) : op array =
  let body = f.Il.body in
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
     body; {!supported} guarantees every referenced label is defined. *)
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
    let range = if ncases > 0 then cases.(ncases - 1) - lo + 1 else 0 in
    (* Compact case sets (e.g. character dispatch in scanners) get a
       direct-indexed jump table instead of the binary search; sparse
       ones keep the shared sorted-table search. *)
    if ncases > 0 && range <= (8 * ncases) + 16 && range <= 4096 then begin
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
  | Il.Call (site, callee, args, ret) -> (
    let df = get_dfunc c callee in
    let argsenc = Array.of_list (List.map enc args) in
    let retc = match ret with Some r -> r | None -> -1 in
    let counted : op =
      fun c ->
        c.fuel <- c.fuel - 1;
        if c.fuel <= 0 then raise Rt.Out_of_fuel;
        count_call c site;
        enter c df argsenc retc next;
        (* [enter] installed the callee's code; its entry may be the
           sentinel (empty body), so fetch through the activation. *)
        (Array.unsafe_get c.code 0) c
    in
    match c.plan with
    | None -> Some counted
    | Some pl -> (
      (* The variant is fixed here, at decode time: an elided site's
         closure simply has no counting code in it. *)
      match
        ( Array.unsafe_get pl.Iplan.site_scalar site,
          Array.unsafe_get pl.Iplan.site_counted site )
      with
      | true, true -> Some counted
      | false, false ->
        Some
          (fun c ->
            c.fuel <- c.fuel - 1;
            if c.fuel <= 0 then raise Rt.Out_of_fuel;
            enter c df argsenc retc next;
            (Array.unsafe_get c.code 0) c)
      | true, false ->
        Some
          (fun c ->
            c.fuel <- c.fuel - 1;
            if c.fuel <= 0 then raise Rt.Out_of_fuel;
            count_call_scalar c;
            enter c df argsenc retc next;
            (Array.unsafe_get c.code 0) c)
      | false, true ->
        Some
          (fun c ->
            c.fuel <- c.fuel - 1;
            if c.fuel <= 0 then raise Rt.Out_of_fuel;
            count_site_only c site;
            enter c df argsenc retc next;
            (Array.unsafe_get c.code 0) c)))
  | Il.Call_ind (site, target, args, ret) -> (
    let et = enc target in
    let argsenc = Array.of_list (List.map enc args) in
    let retc = match ret with Some r -> r | None -> -1 in
    match c.plan with
    | None ->
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
    | Some pl ->
      (* Indirect sites are never elided (the counts cannot be
         attributed to a callee afterwards); under a plan they count
         fully and additionally verify the resolved target against
         [Iplan.ind_ok]: an unexpected target (a fabricated integer
         address) poisons the plan so the driver re-profiles fully
         instrumented.  {!get_dfunc_ind} pays that check once per target
         and caches the result, so the steady-state path costs the same
         as the plan-less variant. *)
      Some
        (fun c ->
          c.fuel <- c.fuel - 1;
          if c.fuel <= 0 then raise Rt.Out_of_fuel;
          count_call c site;
          let tv = get c.regs et in
          match Rt.fid_of_addr tv c.nfuncs with
          | Some fid when c.prog.Il.funcs.(fid).Il.alive ->
            count_ind_target c site fid;
            enter c (get_dfunc_ind c pl fid) argsenc retc next;
            (Array.unsafe_get c.code 0) c
          | Some fid ->
            Rt.trap "indirect call to dead function %s"
              c.prog.Il.funcs.(fid).Il.name
          | None -> Rt.trap "indirect call through bad pointer %d" tv))
  | Il.Call_ext (site, name, args, ret) -> (
    let retc = match ret with Some r -> r | None -> -1 in
    match c.plan with
    | None -> Some (decode_ext_full code next site name args retc)
    | Some pl ->
      if
        Array.unsafe_get pl.Iplan.site_scalar site
        && Array.unsafe_get pl.Iplan.site_counted site
      then
        (* Fully counted sites compile to the exact same closures as
           the plan-less engine — min-mode pays nothing on them. *)
        Some (decode_ext_full code next site name args retc)
      else if
        pl.Iplan.site_scalar.(site) && not pl.Iplan.site_counted.(site)
      then
        (* The one elidable external: scalars inlined, site store
           dropped — strictly less work than the full path. *)
        Some (decode_ext_scalar code next name args retc)
      else
        let do_scalar = pl.Iplan.site_scalar.(site)
        and do_site = pl.Iplan.site_counted.(site) in
        Some
          (decode_ext_by code next name args retc (fun c ->
               if do_scalar then count_ext_scalar c;
               if do_site then count_site_only c site)))
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

   A cache is valid for one physical (program, instrumentation plan)
   pair; both are compared by identity on lookup, so handing the same
   cache a different (or mutated-via-copy) program — or re-running the
   same program under a different plan, whose decoded closures bake in
   different counting variants — silently decodes fresh rather than
   running stale code.  Callers must not mutate a program in place
   between runs under one cache — the profiling driver, which owns the
   only caches, runs a frozen program by construction. *)
type cache = {
  cmu : Mutex.t;
  per_domain :
    ( int,
      Il.program * Iplan.t option * dfunc option array * dfunc option array )
    Hashtbl.t;
      (* decoded functions + the checked indirect-target view, keyed by
         the owning domain *)
}

let cache () = { cmu = Mutex.create (); per_domain = Hashtbl.create 4 }

let same_plan a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> x == y
  | None, Some _ | Some _, None -> false

let cached_dfuncs cache prog plan =
  match cache with
  | None ->
    let n = Array.length prog.Il.funcs in
    (Array.make n None, Array.make n None)
  | Some cch ->
    let dom = (Domain.self () :> int) in
    Mutex.protect cch.cmu (fun () ->
        match Hashtbl.find_opt cch.per_domain dom with
        | Some (p, pl, d, di) when p == prog && same_plan pl plan -> (d, di)
        | _ ->
          let n = Array.length prog.Il.funcs in
          let d = Array.make n None and di = Array.make n None in
          Hashtbl.replace cch.per_domain dom (prog, plan, d, di);
          (d, di))

let run ?budget ?(fuel = 1_000_000_000) ?(heap_size = 4 * 1024 * 1024)
    ?(stack_size = 1024 * 1024) ?(obs = Impact_obs.Obs.null) ?cache ?plan
    (prog : Il.program) ~input =
  let st =
    Rt.create_state ?budget ~reuse_mem:true ~fuel ~heap_size ~stack_size prog
      ~input
  in
  let dummy =
    {
      ffid = -1;
      fname = "<none>";
      rlen = 1;
      stack_use = 0;
      dcode = [||];
      pool = [||];
      pool_n = 0;
    }
  in
  let dfuncs, ind_dfuncs = cached_dfuncs cache prog plan in
  let c =
    {
      st;
      cnt = st.Rt.counters;
      prog;
      nfuncs = Array.length prog.Il.funcs;
      plan;
      dfuncs;
      ind_dfuncs;
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
     let regs, nfp = activate c df_main in
     install c df_main regs nfp;
     try (Array.unsafe_get c.code 0) c with Halt -> ()
   with Rt.Program_exit code -> c.exit_code <- code);
  (* Exactly one fuel unit is spent per counted IL, so the dynamic
     instruction count is the fuel consumed. *)
  st.Rt.counters.Counters.ils <- fuel - c.fuel;
  Rt.finish st ~obs ~exit_code:c.exit_code
