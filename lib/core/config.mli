(** Inliner configuration — the paper's hazard bounds and heuristics. *)

(** Which call sites the selector considers. *)
type heuristic =
  | Profile_guided
      (** the paper's mechanism: arc weight from profiling *)
  | Static_leaf
      (** PL.8-style ablation: inline every call to a leaf function
          (one with no outgoing arcs), ignoring the profile *)
  | Static_small of int
      (** MIPS-style ablation: inline every call whose callee's code
          size is below the given instruction count *)

(** Linearisation orders (§3.3); non-default values are ablations. *)
type linearization =
  | Lin_weight_sorted  (** the paper's heuristic: hottest first *)
  | Lin_random         (** random placement without the sort *)
  | Lin_reverse        (** coldest first *)
  | Lin_topological    (** callees before callers (leaf-level first) *)

type t = {
  weight_threshold : float;
      (** arcs below this expected execution count are unsafe; the paper
          uses 10 *)
  stack_bound : int;
      (** a call into a recursion is unsafe when the callee's control
          stack usage exceeds this many bytes *)
  func_size_limit : int;
      (** per-function instruction-count ceiling after expansion *)
  program_size_limit_ratio : float;
      (** global ceiling as a multiple of the original program size *)
  linearize_seed : int;
      (** seed for the "place randomly, then sort" linearisation *)
  heuristic : heuristic;
  linearization : linearization;
  refine_pointer_targets : bool;
      (** use the §2.5 inter-procedural callee-set analysis for [###]
          instead of the worst case; default false, the paper's choice *)
  devirt : bool;
      (** speculate value-profiled indirect sites into guarded direct
          calls before building the call graph; default false *)
  devirt_threshold : float;
      (** minimum fraction of a site's measured traffic the dominant
          target must carry before it is speculated; default 0.8 *)
}

(** The defaults used for the paper reproduction: threshold 10 (the
    paper's), stack bound 4096 bytes, function limit 4000 instructions,
    program growth capped at 1.2x — the binding hazard, calibrated so the
    suite-wide code expansion lands at the paper's ~17% — and
    profile-guided selection. *)
val default : t

(** [check_devirt_threshold x] is [Ok x] when [x] is a share in (0, 1],
    the range [devirt_threshold] accepts, and otherwise an [Error]
    saying so.  Every surface that sets the knob (the CLI flag, the wire
    field) validates through it. *)
val check_devirt_threshold : float -> (float, string) result

val heuristic_name : heuristic -> string
val linearization_name : linearization -> string

(** A canonical rendering of every field.  Two configs share a
    fingerprint iff no field differs — the invalidation key for cached
    selection/expansion artifacts. *)
val fingerprint : t -> string
