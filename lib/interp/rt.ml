(* Shared execution runtime for the two interpreter engines.

   Everything that is engine-independent lives here: the flat memory
   image and its layout, the simulated externals, the per-run state
   record, the activation-entry check, compiled switch dispatch tables,
   and the construction of the final outcome (including the run-level
   observability event).  The reference step interpreter
   ({!Machine.run_reference}) and the pre-decoded threaded engine
   ({!Threaded}) are both thin control loops over this module,
   which is what lets the differential tests pin them to identical
   counters, traps and fuel accounting. *)

module Il = Impact_il.Il

exception Trap of string

exception Out_of_fuel

exception Deadline_exceeded

exception Program_exit of int

exception Invalid_il of string

let trap fmt = Printf.ksprintf (fun msg -> raise (Trap msg)) fmt

(* Resource budgets beyond fuel: a wall-clock deadline and an output
   watermark.  Fuel already makes every run finite instruction-wise; the
   deadline bounds real time (a profiling run on a slow machine or under
   a fault cannot wedge a pool worker) and the watermark bounds the
   output buffer a runaway print loop can grow.  [timeout_s = 0.] and
   [max_output = 0] mean unlimited. *)
type budget = { timeout_s : float; max_output : int }

let no_budget = { timeout_s = 0.; max_output = 0 }

let budget ?(timeout_s = 0.) ?(max_output = 0) () = { timeout_s; max_output }

let check_timeout_s x = if x > 0. then Ok x else Error "must be a positive number"

type outcome = {
  exit_code : int;
  output : string;
  output_digest : string;
  counters : Counters.t;
  max_stack : int;
}

let func_base = 16

let globals_base = 4096

let func_addr fid = func_base + (8 * fid)

let fid_of_addr addr nfuncs =
  if addr >= func_base && addr land 7 = 0 then begin
    let fid = (addr - func_base) / 8 in
    if fid < nfuncs then Some fid else None
  end
  else None

type state = {
  prog : Il.program;
  mem : Bytes.t;
  mem_len : int;
    (* logical image size: [mem] may be a reused per-domain scratch
       buffer larger than this run's layout, and every bounds check
       must use the logical size or a reused run would accept
       addresses its fresh twin traps on *)
  counters : Counters.t;
  global_addr : int array;
  string_addr : int array;
  mutable heap_ptr : int;
  heap_end : int;
  stack_base : int;  (* lowest legal stack address *)
  stack_top : int;
  mutable min_sp : int;
  mutable low_end : int;
  mutable high_start : int;
  (* the run's written extent: [low_end] is the end of its highest write
     below [stack_base], [high_start] the start of its lowest write at or
     above it; the image is untouched in [low_end, high_start) *)
  mutable fuel : int;
  (* absolute wall-clock deadline ([infinity] = none) and output
     watermark in bytes ([max_int] = none), from the run's [budget] *)
  deadline_at : float;
  (* a deadline is set or a fault was armed when the run started *)
  watched : bool;
  max_output : int;
  input : string;
  mutable in_pos : int;
  out : Buffer.t;
}

(* Both engines run this at every activation entry, before any counter
   moves or argument is written, so its trap points agree by
   construction: the [Interp_step] fault point, the deadline, the
   control stack (the activation of [name] takes [stack_use] bytes below
   [sp]) and the arity ([nargs] arguments for [nregs] IL registers).
   Returns the new frame pointer.  With nothing armed and no deadline,
   fault and deadline cost one test of [watched] per activation; the
   per-IL paths carry neither. *)
let enter st ~sp ~stack_use ~name ~nargs ~nregs =
  if st.watched then begin
    Impact_support.Fault.hit Impact_support.Fault.Interp_step;
    if st.deadline_at <> infinity && Unix.gettimeofday () > st.deadline_at
    then raise Deadline_exceeded
  end;
  let fp = sp - stack_use in
  if fp < st.stack_base then trap "control stack overflow in %s" name;
  if nargs > nregs then
    trap "call to %s with %d arguments, more than its %d-register file" name
      nargs nregs;
  if fp < st.min_sp then st.min_sp <- fp;
  fp

let[@inline never] output_trap st =
  trap "output budget exceeded (%d bytes, limit %d)" (Buffer.length st.out)
    st.max_output

(* Checked by the output externals below (shared by both engines, so
   watermark trap points agree by construction). *)
let[@inline] check_output st =
  if Buffer.length st.out >= st.max_output then output_trap st

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

(* Unaligned native-endian word access without the bounds check that
   [check_range] already performed.  Only used on little-endian hosts;
   big-endian hosts fall back to the checked accessors, whose byte swap
   keeps the memory image little-endian either way. *)
external unsafe_get_64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external unsafe_set_64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline never] range_trap addr n =
  trap "memory access at %d (size %d) out of range" addr n

(* [addr > length - n] rather than [addr + n > length]: the subtraction
   cannot overflow (n is 1 or 8, the image a few MiB), whereas a wild
   address near [max_int] would wrap [addr + n] negative and slip past
   the check.  Both engines funnel every access through here, which is
   what makes the unsafe fast paths below sound. *)
let[@inline] check_range st addr n =
  if addr < globals_base || addr > st.mem_len - n then range_trap addr n

let[@inline] load_word st addr =
  check_range st addr 8;
  if Sys.big_endian then Int64.to_int (Bytes.get_int64_le st.mem addr)
  else Int64.to_int (unsafe_get_64 st.mem addr)

(* Every write to the image records itself here (after its bounds
   check, so [addr + n] cannot overflow); the next run on this domain
   re-zeroes only the extent these marks cover — see {!image_bytes}. *)
let[@inline] note_write st addr n =
  if addr < st.stack_base then begin
    if addr + n > st.low_end then st.low_end <- addr + n
  end
  else if addr < st.high_start then st.high_start <- addr

let[@inline] store_word st addr v =
  check_range st addr 8;
  note_write st addr 8;
  if Sys.big_endian then Bytes.set_int64_le st.mem addr (Int64.of_int v)
  else unsafe_set_64 st.mem addr (Int64.of_int v)

let[@inline] load_byte st addr =
  check_range st addr 1;
  Char.code (Bytes.unsafe_get st.mem addr)

let[@inline] store_byte st addr v =
  check_range st addr 1;
  note_write st addr 1;
  Bytes.unsafe_set st.mem addr (Char.unsafe_chr (v land 0xff))

(* ------------------------------------------------------------------ *)
(* Externals                                                           *)
(* ------------------------------------------------------------------ *)

let external_names =
  [
    "getchar"; "putchar"; "print_int"; "print_str"; "malloc"; "free"; "exit";
    "abort"; "read"; "write";
  ]

let read_c_string st addr =
  let buf = Buffer.create 16 in
  let rec loop a =
    let c = load_byte st a in
    if c <> 0 then begin
      Buffer.add_char buf (Char.chr c);
      loop (a + 1)
    end
  in
  loop addr;
  Buffer.contents buf

(* Each external as a named helper, so the threaded engine's decode-time
   specialisations and the generic [call_external] dispatch share one
   definition of the semantics. *)

let[@inline] ext_getchar st =
  if st.in_pos < String.length st.input then begin
    let c = Char.code st.input.[st.in_pos] in
    st.in_pos <- st.in_pos + 1;
    c
  end
  else -1

let[@inline] ext_putchar st c =
  check_output st;
  Buffer.add_char st.out (Char.chr (c land 0xff));
  c land 0xff

let[@inline] ext_print_int st n =
  check_output st;
  Buffer.add_string st.out (string_of_int n);
  0

let ext_print_str st p =
  check_output st;
  Buffer.add_string st.out (read_c_string st p);
  0

let ext_malloc st n =
  if n < 0 then trap "malloc of negative size %d" n;
  let addr = (st.heap_ptr + 7) / 8 * 8 in
  if addr + n > st.heap_end then trap "out of heap memory (%d bytes requested)" n;
  st.heap_ptr <- addr + n;
  addr

let ext_read st ptr n =
  if n < 0 then trap "read of negative size %d" n;
  let avail = String.length st.input - st.in_pos in
  let count = min n avail in
  if count > 0 then begin
    check_range st ptr count;
    note_write st ptr count;
    Bytes.blit_string st.input st.in_pos st.mem ptr count;
    st.in_pos <- st.in_pos + count
  end;
  count

let ext_write st ptr n =
  if n < 0 then trap "write of negative size %d" n;
  if n > 0 then begin
    check_output st;
    check_range st ptr n;
    Buffer.add_subbytes st.out st.mem ptr n
  end;
  n

let call_external st name args =
  match (name, args) with
  | "getchar", [] -> ext_getchar st
  | "putchar", [ c ] -> ext_putchar st c
  | "print_int", [ n ] -> ext_print_int st n
  | "print_str", [ p ] -> ext_print_str st p
  | "malloc", [ n ] -> ext_malloc st n
  | "read", [ ptr; n ] -> ext_read st ptr n
  | "write", [ ptr; n ] -> ext_write st ptr n
  | "free", [ _ ] -> 0
  | "exit", [ code ] -> raise (Program_exit code)
  | "abort", [] -> trap "abort() called"
  | name, args ->
    if List.mem name external_names then
      trap "external %s called with %d arguments" name (List.length args)
    else trap "unknown external function '%s'" name

(* ------------------------------------------------------------------ *)
(* Switch dispatch tables                                              *)
(* ------------------------------------------------------------------ *)

(* A source switch table is an arbitrary (case, target) array that may
   hold duplicate case values; the original dispatch scanned it in order
   and took the first hit.  The compiled form is a pair of parallel
   arrays sorted by case value with duplicates resolved to their first
   occurrence, so both engines can answer a dispatch in O(log cases)
   while agreeing with the scan semantics exactly. *)
let compile_switch (table : (int * Il.label) array) =
  let entries = Array.to_list (Array.mapi (fun i (c, l) -> (c, i, l)) table) in
  let sorted =
    List.stable_sort (fun (c1, i1, _) (c2, i2, _) ->
        if c1 <> c2 then compare c1 c2 else compare i1 i2)
      entries
  in
  (* Keep the first occurrence of each case value. *)
  let dedup =
    List.fold_left
      (fun acc ((c, _, _) as e) ->
        match acc with
        | (c', _, _) :: _ when c' = c -> acc
        | _ -> e :: acc)
      [] sorted
    |> List.rev
  in
  ( Array.of_list (List.map (fun (c, _, _) -> c) dedup),
    Array.of_list (List.map (fun (_, _, l) -> l) dedup) )

(* [switch_find cases v] is the index of [v] in the sorted [cases]
   array, or -1 when absent. *)
let switch_find (cases : int array) v =
  let lo = ref 0 and hi = ref (Array.length cases - 1) and found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = Array.unsafe_get cases mid in
    if c = v then begin
      found := mid;
      lo := !hi + 1
    end
    else if c < v then lo := mid + 1
    else hi := mid - 1
  done;
  !found

(* ------------------------------------------------------------------ *)
(* Per-run state                                                       *)
(* ------------------------------------------------------------------ *)

(* Per-domain scratch for the memory image.  A fresh [Bytes.make] of the
   full image (~5 MiB at default heap/stack sizes) per run was the
   single largest source of major-heap churn during profiling sweeps —
   the PR 6 flight recorder measured the cross-domain minor-GC barriers
   it triggered as the dominant anti-scaling term.  With [~reuse_mem]
   the image lives in domain-local storage instead.  Sound only while a
   domain runs at most one state at a time, which is why reuse is
   opt-in: the two engine entry points enable it, everything else
   defaults to fresh allocation.

   Invariant: [buf] is zero outside [0, dirty_low) and
   [dirty_high, dirty_top).  So a run re-zeroes only those two ranges,
   not its whole logical size.  While it runs, the cell says "all
   dirty"; a run that reaches {!finish} narrows it to the extent its
   writes recorded ({!note_write}), and one that raises (trap,
   [Out_of_fuel], deadline) leaves it all dirty for the next run to
   zero in full.  The invariant holds for wild writes too — into the
   unallocated heap, below the deepest frame — because every write to
   the image goes through the same recording store path. *)
type scratch = {
  mutable buf : Bytes.t;
  mutable dirty_low : int;
  mutable dirty_high : int;
  mutable dirty_top : int;
}

let scratch_mem : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { buf = Bytes.empty; dirty_low = 0; dirty_high = 0; dirty_top = 0 })

let image_bytes ~reuse len =
  if not reuse then Bytes.make len '\000'
  else begin
    let s = Domain.DLS.get scratch_mem in
    if Bytes.length s.buf >= len then begin
      Bytes.fill s.buf 0 s.dirty_low '\000';
      Bytes.fill s.buf s.dirty_high (s.dirty_top - s.dirty_high) '\000'
    end
    else s.buf <- Bytes.make len '\000';
    s.dirty_low <- Bytes.length s.buf;
    s.dirty_high <- 0;
    s.dirty_top <- 0;
    s.buf
  end

(* The end of a run that used the scratch image: hand its written extent
   back to the cell. *)
let release_image st =
  let s = Domain.DLS.get scratch_mem in
  if s.buf == st.mem then begin
    s.dirty_low <- st.low_end;
    s.dirty_high <- st.high_start;
    s.dirty_top <- st.mem_len
  end

let create_state ?(budget = no_budget) ?(reuse_mem = false) ~fuel ~heap_size
    ~stack_size (prog : Il.program) ~input =
  (* Lay out globals and strings. *)
  let nglobals = Array.length prog.Il.globals in
  let global_addr = Array.make (max nglobals 1) 0 in
  let cursor = ref globals_base in
  Array.iteri
    (fun i (g : Il.global) ->
      global_addr.(i) <- !cursor;
      cursor := (!cursor + g.Il.g_size + 7) / 8 * 8)
    prog.Il.globals;
  let nstrings = Array.length prog.Il.strings in
  let string_addr = Array.make (max nstrings 1) 0 in
  Array.iteri
    (fun i s ->
      string_addr.(i) <- !cursor;
      cursor := !cursor + String.length s + 1)
    prog.Il.strings;
  let heap_start = (!cursor + 7) / 8 * 8 in
  let heap_end = heap_start + heap_size in
  let stack_base = heap_end in
  let stack_top = stack_base + stack_size in
  let st =
    {
      prog;
      mem = image_bytes ~reuse:reuse_mem stack_top;
      mem_len = stack_top;
      counters =
        Counters.create ~nfuncs:(Array.length prog.Il.funcs) ~nsites:prog.Il.next_site;
      global_addr;
      string_addr;
      heap_ptr = heap_start;
      heap_end;
      stack_base;
      stack_top;
      min_sp = stack_top;
      (* the global images and interned strings below fill at most
         [globals_base, heap_start) *)
      low_end = heap_start;
      high_start = stack_top;
      fuel;
      deadline_at =
        (if budget.timeout_s > 0. then Unix.gettimeofday () +. budget.timeout_s
         else infinity);
      watched = budget.timeout_s > 0. || Impact_support.Fault.enabled ();
      max_output = (if budget.max_output > 0 then budget.max_output else max_int);
      input;
      in_pos = 0;
      out = Buffer.create 4096;
    }
  in
  (* Initialise global images. *)
  Array.iteri
    (fun i (g : Il.global) ->
      let base = global_addr.(i) in
      List.iter
        (fun (off, v) ->
          match v with
          | Il.Gword n -> store_word st (base + off) n
          | Il.Gbyte n -> store_byte st (base + off) n
          | Il.Gstr id -> store_word st (base + off) string_addr.(id)
          | Il.Gfunc fid -> store_word st (base + off) (func_addr fid)
          | Il.Gglob gid -> store_word st (base + off) global_addr.(gid))
        g.Il.g_init)
    prog.Il.globals;
  (* Interned strings. *)
  Array.iteri
    (fun i s ->
      String.iteri (fun j c -> Bytes.set st.mem (string_addr.(i) + j) c) s)
    prog.Il.strings;
  st

(* ------------------------------------------------------------------ *)
(* Operators                                                           *)
(* ------------------------------------------------------------------ *)

let eval_binop op a b =
  match op with
  | Il.Add -> a + b
  | Il.Sub -> a - b
  | Il.Mul -> a * b
  | Il.Div -> if b = 0 then trap "division by zero" else a / b
  | Il.Mod -> if b = 0 then trap "division by zero" else a mod b
  | Il.Shl -> a lsl (b land 63)
  | Il.Shr -> a asr (b land 63)
  | Il.And -> a land b
  | Il.Or -> a lor b
  | Il.Xor -> a lxor b
  | Il.Lt -> if a < b then 1 else 0
  | Il.Le -> if a <= b then 1 else 0
  | Il.Gt -> if a > b then 1 else 0
  | Il.Ge -> if a >= b then 1 else 0
  | Il.Eq -> if a = b then 1 else 0
  | Il.Ne -> if a <> b then 1 else 0

let eval_unop op a =
  match op with
  | Il.Neg -> -a
  | Il.Not -> lnot a
  | Il.Lnot -> if a = 0 then 1 else 0

(* ------------------------------------------------------------------ *)
(* Outcome                                                             *)
(* ------------------------------------------------------------------ *)

(* Run-level counters for the observability layer: one "run" event per
   execution plus accumulating machine.* counters, so profiling cost is
   itself a measured quantity. *)
let finish st ~obs ~exit_code =
  release_image st;
  let max_stack = st.stack_top - st.min_sp in
  let output = Buffer.contents st.out in
  if Impact_obs.Obs.enabled obs then begin
    let module Obs = Impact_obs.Obs in
    let module Sink = Impact_obs.Sink in
    let c = st.counters in
    Obs.incr obs "machine.runs";
    Obs.incr obs ~by:c.Counters.ils "machine.ils";
    Obs.incr obs ~by:c.Counters.cts "machine.cts";
    Obs.incr obs ~by:c.Counters.calls "machine.calls";
    Obs.incr obs ~by:c.Counters.returns "machine.returns";
    Obs.incr obs ~by:c.Counters.ext_calls "machine.ext_calls";
    Obs.instant obs ~kind:"run"
      ~attrs:
        [
          ("ils", Sink.Int c.Counters.ils);
          ("cts", Sink.Int c.Counters.cts);
          ("calls", Sink.Int c.Counters.calls);
          ("returns", Sink.Int c.Counters.returns);
          ("ext_calls", Sink.Int c.Counters.ext_calls);
          ("max_stack", Sink.Int max_stack);
          ("exit_code", Sink.Int exit_code);
          ("input_bytes", Sink.Int (String.length st.input));
          ("output_bytes", Sink.Int (String.length output));
        ]
      "machine"
  end;
  {
    exit_code;
    output;
    output_digest = Digest.string output;
    counters = st.counters;
    max_stack;
  }
