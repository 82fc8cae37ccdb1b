(** The pre-decoded ("threaded code") interpreter engine, the only one
    production code runs.

    Compiles each live function body once per run into an array of
    closures with operands, labels, switch tables, call targets and hot
    externals resolved at decode time, then dispatches [code.(pc) ctx]
    in a tight loop; six hot adjacent instruction pairs each get one
    fused closure that still spends fuel and counts per instruction.
    An immediate beyond the 62-bit tagged operand is read from a
    constant slot after the function's IL registers.  Observationally
    identical to the reference engine ({!Machine.run_reference}): same
    outputs, exit codes, trap messages, peak stack, and dynamic
    counters, at the same fuel boundaries.  Fault points and deadlines
    are checked at activation entry ({!Rt.enter}); the per-instruction
    path has no hooks.

    Call it through {!Machine.run}. *)

(** A decode cache: reuses each function's decoded closure array across
    runs of the {e same physical program}, sharded per domain (decoded
    code carries domain-private register pools, so two domains never
    share an entry).  Create one per program with {!cache} and pass it
    to every {!run} over that program — profiling the suite re-decodes
    nothing after the first run per domain.  Handing a cache a different
    program decodes fresh (identity-checked), so misuse costs speed,
    never soundness; mutating a program in place between runs under one
    cache is the caller's contract to avoid. *)
type cache

val cache : unit -> cache

(** [run ?budget ?fuel ?heap_size ?stack_size ?obs ?cache prog ~input]
    — semantics and defaults of {!Machine.run}.  The memory image is
    drawn from per-domain scratch ({!Rt.create_state}'s [reuse_mem]);
    [?cache] additionally reuses decoded code, and the program is
    validated once per fresh decode table.

    @raise Rt.Invalid_il before running anything, if
      {!Impact_il.Il_check} rejects [prog] (its rules are what make the
      decoder's unchecked accesses sound); the message names the first
      violation's function, ["invalid IL in f: no label L7"]
    @raise Rt.Trap on runtime errors
    @raise Rt.Out_of_fuel if the budget is exhausted
    @raise Rt.Deadline_exceeded if the wall-clock budget is exhausted *)
val run :
  ?budget:Rt.budget ->
  ?fuel:int ->
  ?heap_size:int ->
  ?stack_size:int ->
  ?obs:Impact_obs.Obs.t ->
  ?cache:cache ->
  Impact_il.Il.program ->
  input:string ->
  Rt.outcome
