(** Minimum-coverage instrumentation planning (the Knuth spanning-
    structure result on the call/arc flow graph).

    A plan decides, per call site, whether the engines count it.  Under
    [Min], at most one incoming arc per function — the statically
    hottest, seeded by a loop-nesting estimate of the caller — plus at
    most one external site globally go uninstrumented; Kirchhoff
    conservation at each function's inflow (activation counts are
    always measured) makes every elided count recoverable exactly by
    {!Inference}, whatever the recursion structure, because each
    function's inflow equation holds exactly one elided unknown.

    Plans are immutable and shared read-only across profiling pool
    domains; build one per program per profiling call, never per run
    ({!plans_built_count} observes this). *)

type mode =
  | Full  (** count every site — the historical behaviour *)
  | Min  (** spanning-structure elision; inference is bit-exact *)

(** Every mode, in the order the CLI lists them. *)
val all_modes : mode list

(** [mode_name m] is ["full"] or ["min"]: the CLI choice, the wire field
    value and the profile-header token. *)
val mode_name : mode -> string

(** [mode_of_string s] inverts {!mode_name}; [None] for anything else. *)
val mode_of_string : string -> mode option

type direct_elision = {
  e_site : int;  (** the uninstrumented arc *)
  e_callee : int;
  e_callee_is_main : bool;
      (** main also receives the virtual entry arc, once per run *)
  e_siblings : int list;
      (** the callee's measured other direct in-sites *)
}

type ext_elision = {
  x_site : int;
  x_others : int list;  (** every other external site in alive code *)
}

type t = {
  mode : mode;
  iplan : Impact_interp.Iplan.t option;
      (** what the engines consume; [None] = count everything *)
  directs : direct_elision list;
  ext : ext_elision option;
  total_sites : int;  (** call sites in alive code *)
  counted_sites : int;  (** sites whose per-site store the plan keeps *)
}

(** [build prog mode] constructs the plan for one program.  [Min] plans
    elide a strict subset of sites whenever the program has any
    elidable arc; indirect sites are never elided, and functions whose
    address is materialised anywhere are ineligible when the program
    contains indirect calls (so every legitimate indirect target keeps
    fully measured inflow — a fabricated-address hit is flagged on the
    plan and the driver re-profiles fully). *)
val build : Impact_il.Il.program -> mode -> t

(** [instrumented_fraction t] — counted sites over total alive sites
    (1.0 when nothing is elided or the program has no sites). *)
val instrumented_fraction : t -> float

(** [poisoned t] — did a run under this plan take an indirect call that
    breaks inference?  The profiling driver must then re-run fully. *)
val poisoned : t -> bool

(** How many plans {!build} has constructed, ever (for tests asserting
    plans are built once per program, not once per run). *)
val plans_built_count : unit -> int
