(** The IL interpreter — the execution substrate and profiler.

    Programs run against a flat byte-addressed memory:

    {v
    0 ..... 16         null guard (dereference traps)
    16 .... 4096       function descriptors: function fid has
                       "address" 16 + 8*fid, so function pointers
                       are ordinary integers
    4096 .. G          globals, 8-byte aligned
    G ..... S          string literals (NUL-terminated)
    S ..... H          heap (bump-allocated by malloc)
    H ..... top        control stack, growing downward
    v}

    The simulated external world (the paper's unavailable function
    bodies — "most external function calls in this experiment are system
    calls") supplies:

    - [getchar () : int] — next byte of the run's input, or -1;
    - [putchar (c) : int] — append a byte to the output;
    - [print_int (n) : int] — decimal rendering to the output;
    - [print_str (p) : int] — NUL-terminated string at address [p];
    - [read (p, n) : int] — bulk read into memory at [p], like read(2);
    - [write (p, n) : int] — bulk write from memory at [p];
    - [malloc (n) : ptr] — bump allocation (never freed);
    - [free (p) : int] — accepted and ignored;
    - [exit (code)] — terminate the program;
    - [abort ()] — trap.

    Two engines implement these semantics.  The pre-decoded threaded
    engine ({!Threaded}), which compiles each live function body into
    an array of closures, is the only one production code runs.  The
    small-step reference interpreter ({!run_reference}) is an oracle:
    the differential tests pin the decoded engine against it, and the
    bench harnesses and the i-cache experiment call it directly.  Both
    produce identical outputs, exit codes, traps, peak stack, and
    dynamic counters on every program the threaded engine accepts. *)

(** Raised on a runtime error: null/out-of-range access, division by
    zero, bad indirect call target, stack overflow, unknown external. *)
exception Trap of string

(** Raised when execution exceeds the instruction budget. *)
exception Out_of_fuel

(** Raised when execution exceeds the run's wall-clock budget
    ({!Rt.budget}).  Both engines check at every activation entry. *)
exception Deadline_exceeded

(** Raised by the threaded engine, before it runs anything, on a program
    with an out-of-range reference ({!Rt.Invalid_il}). *)
exception Invalid_il of string

(** The result of one run. *)
type outcome = Rt.outcome = {
  exit_code : int;
  output : string;
  output_digest : string;
      (** MD5 of [output]; still valid when a caller drops the output
          text itself (see {!Impact_profile.Profiler.profile}'s
          [keep_outputs]) *)
  counters : Counters.t;
  max_stack : int;
      (** deepest control-stack extent in bytes, counting each
          activation's full stack usage (frame + register save area +
          call overhead, as {!Impact_il.Il.stack_usage} estimates) *)
}

(** Which interpreter core executes the program.  Production code never
    chooses: it calls {!run}, which defaults to [Threaded]. *)
type engine =
  | Threaded  (** pre-decoded closure arrays; the production engine *)
  | Reference  (** small-step oracle, for tests and bench *)

val engine_to_string : engine -> string

(** [run ?budget ?fuel ?heap_size ?stack_size ?obs ?engine ?cache prog
    ~input] executes [prog] from [main] with [input] as its stdin.

    @param budget wall-clock deadline and output watermark (default
      {!Rt.no_budget} — both off; see {!Rt.budget}).  The deadline
      raises {!Deadline_exceeded}; the watermark raises {!Trap}.
    @param fuel instruction budget (default 1_000_000_000)
    @param heap_size bytes of heap (default 4 MiB)
    @param stack_size bytes of control stack (default 1 MiB)
    @param obs when enabled, one ["run"] event with the run-level
      counters (ILs, CTs, calls, returns, externals, peak stack) is
      emitted after the run, and [machine.*] counters accumulate
    @param engine the oracle selector for tests and bench (default
      {!Threaded}).  Production callers never pass it, so armed faults
      and wide immediates run on the threaded engine too.
    @param cache a {!Threaded.cache} reusing decoded code across runs of
      the same physical program (profiling drivers create one per
      program); ignored by the reference engine
    @raise Trap on runtime errors
    @raise Out_of_fuel if the budget is exhausted
    @raise Invalid_il if the threaded engine refuses [prog] *)
val run :
  ?budget:Rt.budget ->
  ?fuel:int ->
  ?heap_size:int ->
  ?stack_size:int ->
  ?obs:Impact_obs.Obs.t ->
  ?engine:engine ->
  ?cache:Threaded.cache ->
  Impact_il.Il.program ->
  input:string ->
  outcome

(** The reference oracle: a direct small-step interpreter over the IL,
    with {!run}'s semantics and no validation ahead of time.  [?icache]
    receives every executed instruction's code address (functions laid
    out back-to-back in fid order, 4 bytes per instruction). *)
val run_reference :
  ?budget:Rt.budget ->
  ?fuel:int ->
  ?heap_size:int ->
  ?stack_size:int ->
  ?icache:Impact_icache.Icache.t ->
  ?obs:Impact_obs.Obs.t ->
  Impact_il.Il.program ->
  input:string ->
  outcome

(** [external_names] lists the externals the machine implements; programs
    may declare prototypes only for these. *)
val external_names : string list
