(** Flow inference — the solving half of minimum-coverage profiling.

    Given the aggregated counters of a sweep run under a
    {!Coverage.t} plan, fills in every elided count by Kirchhoff
    conservation (diagonal system: each function carries at most one
    elided in-arc, each equation one unknown) and restores the
    run-level calls scalar.  For [Min] plans the patched counters are
    bit-for-bit identical to full instrumentation — these are
    deterministic interpreter counts, not samples. *)

(** [apply plan ~nruns acc] mutates [acc] in place.  [nruns] is the
    number of runs aggregated into [acc] (main's virtual entry arc).
    Caller must ensure the plan is not {!Coverage.poisoned} first. *)
val apply : Coverage.t -> nruns:int -> Impact_interp.Counters.t -> unit
