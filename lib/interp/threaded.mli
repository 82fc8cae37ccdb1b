(** The pre-decoded ("threaded code") interpreter engine.

    Compiles each live function body once per run into an array of
    closures with operands, labels, switch tables, call targets and hot
    externals resolved at decode time, then dispatches [code.(pc) ctx]
    in a tight loop; six hot adjacent instruction pairs each get one
    fused closure that still spends fuel and counts per instruction.
    Observationally identical to the reference engine
    ({!Machine.run_reference}): same outputs, exit codes, trap messages,
    peak stack, and dynamic counters, at the same fuel boundaries.

    Use {!Machine.run} rather than calling this module directly — it
    falls back to the reference engine for the programs {!supported}
    rejects and when an i-cache model is attached. *)

(** [supported prog] is true when every immediate fits the decoder's
    62-bit tagged-operand encoding and every static reference (call
    target, global/string/function index) is in range — in practice,
    everything the IL validator accepts.  Unsupported programs must run
    on the reference engine. *)
val supported : Impact_il.Il.program -> bool

(** A decode cache: reuses each function's decoded closure array across
    runs of the {e same physical program under the same physical
    instrumentation plan}, sharded per domain (decoded code carries
    domain-private register pools, so two domains never share an
    entry).  Create one per program with {!cache} and pass it to every
    {!run} over that program — profiling the suite re-decodes nothing
    after the first run per domain.  Handing a cache a different
    program or plan decodes fresh (identity-checked — decoded closures
    bake the plan's counting variants in), so misuse costs speed, never
    soundness; mutating a program in place between runs under one cache
    is the caller's contract to avoid. *)
type cache

val cache : unit -> cache

(** [run ?budget ?fuel ?heap_size ?stack_size ?obs ?cache ?plan prog
    ~input] — semantics and defaults of {!Machine.run} (no i-cache
    support).  The memory image is drawn from per-domain scratch
    ({!Rt.create_state}'s [reuse_mem]); [?cache] additionally reuses
    decoded code.  [?plan] selects per-site counting variants at decode
    time ({!Iplan.t}): an elided site's closure contains no counting
    code at all, so minimum-coverage profiling pays nothing per
    execution.

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
  ?plan:Iplan.t ->
  Impact_il.Il.program ->
  input:string ->
  Rt.outcome
