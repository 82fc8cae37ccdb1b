(** Engine-independent execution runtime.

    The memory image, simulated externals, code layout, per-run state and
    outcome construction shared by the reference step interpreter and the
    pre-decoded threaded engine.  See {!Machine} for the public entry
    points and the memory-map documentation. *)

(** Raised on a runtime error: null/out-of-range access, division by
    zero, bad indirect call target, stack overflow, unknown external. *)
exception Trap of string

(** Raised when execution exceeds the instruction budget. *)
exception Out_of_fuel

(** Raised when execution exceeds the run's wall-clock budget
    ({!budget}[.timeout_s]).  Checked at every activation entry, before
    any counter moves, in both engines. *)
exception Deadline_exceeded

(** Raised by the [exit] external; caught by both engines. *)
exception Program_exit of int

(** Raised by the threaded engine, before it runs anything, on a program
    {!Impact_il.Il_check} rejects: ["invalid IL in f: ..."]. *)
exception Invalid_il of string

(** [trap fmt ...] raises {!Trap} with a formatted message. *)
val trap : ('a, unit, string, 'b) format4 -> 'a

(** Resource budgets beyond fuel.  [timeout_s] is a per-run wall-clock
    limit in seconds ({!Deadline_exceeded} when exceeded); [max_output]
    is an output watermark in bytes (a {!Trap} once the output buffer
    reaches it, checked by the output externals).  Zero means unlimited
    in both fields; {!no_budget} disables both — the checks then cost
    one compare each. *)
type budget = { timeout_s : float; max_output : int }

val no_budget : budget

val budget : ?timeout_s:float -> ?max_output:int -> unit -> budget

(** The result of one run.  [output_digest] is the MD5 of [output],
    still valid when a caller drops the output text itself (see
    {!Impact_profile.Profiler.profile}'s [keep_outputs]). *)
type outcome = {
  exit_code : int;
  output : string;
  output_digest : string;
  counters : Counters.t;
  max_stack : int;
}

val func_base : int

val globals_base : int

(** [func_addr fid] is the pseudo-address of function [fid]. *)
val func_addr : int -> int

(** [fid_of_addr addr nfuncs] decodes a function pseudo-address. *)
val fid_of_addr : int -> int -> int option

(** Mutable per-run state: the memory image, dynamic counters, layout
    and I/O cursors.  One value per execution; never shared between
    runs or domains. *)
type state = {
  prog : Impact_il.Il.program;
  mem : Bytes.t;
  mem_len : int;
      (** logical image size; [mem] may be a larger reused scratch
          buffer, and every bounds check uses this, not
          [Bytes.length mem] *)
  counters : Counters.t;
  global_addr : int array;
  string_addr : int array;
  mutable heap_ptr : int;
  heap_end : int;
  stack_base : int;
  stack_top : int;
  mutable min_sp : int;
  mutable low_end : int;
      (** end of the run's highest write below [stack_base] *)
  mutable high_start : int;
      (** start of the run's lowest write at or above [stack_base] *)
  mutable fuel : int;
  deadline_at : float;
  watched : bool;
      (** a deadline is set, or some fault was armed when the run
          started ({!Impact_support.Fault.enabled}, read once per run) *)
  max_output : int;
  input : string;
  mutable in_pos : int;
  out : Buffer.t;
}

(** [create_state ~fuel ~heap_size ~stack_size prog ~input] lays out
    globals, strings, heap and stack, and returns a fresh run state with
    the global images and interned strings written into memory.
    [?budget] (default {!no_budget}) arms the wall-clock deadline and
    output watermark.

    [?reuse_mem] (default [false]) draws the memory image from a
    per-domain scratch buffer instead of a fresh allocation, re-zeroing
    only what the domain's last completed run wrote (all of it after a
    run that raised).  Only sound while the calling domain
    runs at most one state at a time; the engine entry points
    ({!Machine.run_reference}, [Threaded.run]) enable it, and bounds
    checks use [mem_len] so a larger recycled buffer never loosens the
    trap semantics. *)
val create_state :
  ?budget:budget ->
  ?reuse_mem:bool ->
  fuel:int ->
  heap_size:int ->
  stack_size:int ->
  Impact_il.Il.program ->
  input:string ->
  state

(** [enter st ~sp ~stack_use ~name ~nargs ~nregs] is the activation-entry
    check both engines run before any counter moves, so its trap points
    are engine-independent.  In order: when [watched], the
    {!Impact_support.Fault.Interp_step} fault point and
    {!Deadline_exceeded}; a stack-overflow {!Trap} when the activation
    of [name] would take its [stack_use] bytes below the stack base; and
    an arity {!Trap} when [nargs] exceeds its [nregs] IL registers.
    Returns the new frame pointer [sp - stack_use] and records the
    peak stack. *)
val enter :
  state -> sp:int -> stack_use:int -> name:string -> nargs:int -> nregs:int ->
  int

(** Memory access (all bounds-checked; out-of-range traps). *)

val check_range : state -> int -> int -> unit

val load_word : state -> int -> int

val store_word : state -> int -> int -> unit

val load_byte : state -> int -> int

val store_byte : state -> int -> int -> unit

(** Externals.  [call_external] implements the generic dispatch; the
    [ext_*] helpers expose the individual semantics so a decode-time
    specialisation and the generic path cannot drift apart. *)

val external_names : string list

val call_external : state -> string -> int list -> int

val ext_getchar : state -> int

val ext_putchar : state -> int -> int

val ext_print_int : state -> int -> int

val ext_print_str : state -> int -> int

val ext_read : state -> int -> int -> int

val ext_write : state -> int -> int -> int

(** Switch dispatch tables: parallel (cases, targets) arrays sorted by
    case value, duplicates resolved to their first occurrence — the
    same answer as a first-hit linear scan, in O(log cases). *)

val compile_switch : (int * Impact_il.Il.label) array -> int array * int array

(** [switch_find cases v] is the index of [v] in sorted [cases], or -1. *)
val switch_find : int array -> int -> int

(** Operator evaluation (division/modulo by zero trap). *)

val eval_binop : Impact_il.Il.binop -> int -> int -> int

val eval_unop : Impact_il.Il.unop -> int -> int

(** [finish st ~obs ~exit_code] computes the peak stack, emits the
    run-level observability event, and packages the outcome.  For a
    state drawn from the scratch image it also records the run's
    written extent, so the next run on the domain re-zeroes only that. *)
val finish : state -> obs:Impact_obs.Obs.t -> exit_code:int -> outcome
