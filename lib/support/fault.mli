(** Deterministic, seeded fault injection.

    The pipeline is compiled with a fixed set of named injection points;
    production code calls {!hit} at each one.  With nothing armed a hit
    is a single atomic read — the chaos machinery costs nothing when it
    is off.  Tests arm a point with a hit ordinal and the matching hit
    raises {!Injected}, always at the same place for the same arming:
    faults are counter-driven, never clock- or randomness-driven. *)

type point =
  | Profile_read       (** {!Impact_profile.Profile_io} parse/load *)
  | Profile_write      (** {!Impact_profile.Profile_io} save *)
  | Pool_worker_start  (** {!Pool} worker submission/startup *)
  | Pool_worker_finish (** {!Pool} worker shutdown *)
  | Interp_step        (** interpreter, once per activation entry *)
  | Expand_splice      (** {!Impact_core.Expand.splice_call} entry *)
  | Sink_write         (** {!Impact_obs.Sink} event emission *)
  | Cache_read         (** {!Cstore.find} entry read/verify *)
  | Cache_write        (** {!Cstore.store} entry write *)
  | Devirt             (** {!Impact_opt.Devirt.run} entry *)

exception Injected of point

val all_points : point list
val point_name : point -> string
val point_of_name : string -> point option

val enabled : unit -> bool
(** True iff at least one point is armed.  Every {!hit} checks it
    first, so with nothing armed a hit is one atomic read.  The
    interpreter reads it once per run: a run that starts with a point
    armed passes [Interp_step] once per activation, on whichever engine
    runs, and its per-instruction path carries no hook. *)

val arm : ?once:bool -> point -> after:int -> unit
(** [arm p ~after:n] makes the [(n+1)]-th {!hit} of [p] (counting from
    the last {!reset}) raise {!Injected}.  [~once:true] (default) fires
    exactly once; [~once:false] also fails every later hit — use it to
    defeat single-retry recovery in tests. *)

val disarm : point -> unit

val reset : unit -> unit
(** Disarm every point and zero all hit counters. *)

val hit : point -> unit
(** Called by production code at each injection point. *)

val hits : point -> int
(** Hits recorded for [p] since the last {!reset} (armed or not —
    counters only advance while some point is armed). *)

val with_point : ?once:bool -> point -> after:int -> (unit -> 'a) -> 'a
(** [with_point p ~after f] arms [p], runs [f], and {!reset}s on the way
    out whatever happens. *)

val plan_of_seed : seed:int -> (point * int) list
(** A deterministic arming plan: every point paired with a small trigger
    ordinal mixed from [seed].  Pure arithmetic; the same seed always
    yields the same plan. *)
