(** The profiling mode, kept as a name only.

    Every profiling run counts every function and every call site, so
    there is one mode.  Its name ["full"] is still spelled in four
    places that outside readers rebuild or parse: the [mode-full] part
    of the profiling stage's cache key (caches filled before the other
    modes were retired keep hitting), the mode token a v3 or v4 profile
    header may carry, the one value the wire field [profile_mode]
    accepts, and the [:full] suffix of [impactd]'s latency labels. *)

type mode = Full

(** [mode_name Full] is ["full"]. *)
val mode_name : mode -> string
