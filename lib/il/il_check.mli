(** The IL well-formedness checker, the only one in the tree.

    Production callers: the threaded interpreter refuses a program it
    rejects (once per fresh decode table); [Pipeline.run] runs {!verify}
    as lower, pre_opt and post_opt finish (stage [Lower]), and
    [Inliner.run] as devirt, expand and dce finish (stage [Expand]).
    Tests call {!check} and {!check_exn}.

    Every rule covers dead functions too, except {!Dead_callee}, which
    covers alive functions and main: so every function the threaded
    decoder can decode is covered by every rule. *)

type kind =
  | Bad_register of int       (** not below the function's [nregs] *)
  | Undefined_label of int    (** a branch target the body never defines *)
  | Duplicate_label of int
  | Label_out_of_range of int (** a label defined outside [\[0, nlabels)] *)
  | Bad_frame_offset of int   (** a [Lea_frame] offset outside the frame *)
  | Bad_global of int
  | Bad_string of int
  | Bad_function of int       (** a [Lea_func] or direct call target *)
  | Bad_arity of { callee : string; nargs : int; nparams : int }
  | Dead_callee of string     (** a direct call to a dead function *)
  | Bad_site of int           (** negative or not below [next_site] *)
  | Duplicate_site of int
  | Bad_main of int

(** The function's name and the body index of the offending
    instruction; [Bad_main] has [func = ""] and [index = -1]. *)
type violation = { func : string; index : int; kind : kind }

(** [describe kind] is e.g. ["no label L7"]. *)
val describe : kind -> string

(** [to_string v] is ["in f at instruction i: "] then {!describe}, or
    only the description for [Bad_main]. *)
val to_string : violation -> string

(** [check prog] lists every violation: [Bad_main] first, then by
    function id and instruction index.  [[]] means well-formed. *)
val check : Il.program -> violation list

(** [verify ~stage ~pass prog] returns when [prog] is well-formed.
    @raise Impact_support.Ierr.Error of [stage] otherwise, with the
      message ["ill-formed IL after <pass>: "] then the first violation's
      {!to_string} *)
val verify : stage:Impact_support.Ierr.stage -> pass:string -> Il.program -> unit

(** [check_exn prog] is a test wrapper.
    @raise Failure listing every violation when [prog] is ill-formed *)
val check_exn : Il.program -> unit
