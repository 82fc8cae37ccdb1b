(** The pipeline's stage cache: typed payloads over the
    content-addressed {!Impact_support.Cstore}.

    {!Pipeline.run} consults it at every expensive stage boundary —
    front end, profiling, classification, selection+expansion — keyed
    by a digest of everything the stage's result depends on, so a warm
    rerun of an unchanged benchmark skips the stage entirely while a
    one-byte source change or a flipped {!Impact_core.Config} field
    invalidates exactly the stages downstream of the change.

    Payloads travel through [Marshal]; every key mixes in a format
    ordinal and the compiler version, so entries written by an
    incompatible build can never match.  Each lookup/store bumps the
    [cache.hit]/[cache.miss]/[cache.corrupt]/[cache.store] counters
    (total and per-stage, e.g. [cache.hit.inline]) on the given
    observability context, and each hit emits a ["cache.reuse"] instant
    event.  Like the store beneath it, this layer never raises. *)

type t

(** [create ?max_bytes dir] opens the backing {!Impact_support.Cstore}
    at [dir]. *)
val create : ?max_bytes:int -> string -> t

(** The backing store — for stats and direct inspection in tests. *)
val cstore : t -> Impact_support.Cstore.t

(** [key parts] derives a cache key: {!Impact_support.Cstore.digest_key}
    over the parts with the format salt prepended. *)
val key : string list -> string

(** [key_of_digests ds] is the same key from the parts' MD5s:
    [key parts = key_of_digests (List.map Digest.string parts)], so a
    caller can digest a part shared by several keys once. *)
val key_of_digests : Digest.t list -> string

(** [digest_part obs s] is [Digest.string s], its bytes counted in
    [cache.key_bytes] on [obs]. *)
val digest_part : Impact_obs.Obs.t -> string -> Digest.t

(** [digest t obs s] is [Digest.string s], remembered in the handle's
    {!memo}.  The pipeline digests each profiling input through it, so a
    warm rerun over unchanged inputs computes no MD5.  Each {!create}
    starts with an empty memo.  Only bytes actually digested count
    towards [cache.key_bytes], as in {!digest_part}. *)
val digest : t -> Impact_obs.Obs.t -> string -> Digest.t

(** [memo t] is the handle's input memo.  impactd resolves input
    references through it, so the pipeline's {!digest} of a referenced
    input finds the memo's own string. *)
val memo : t -> Impact_support.Digest_memo.t

(** [find t obs ~stage ~key] — [Some v] on a verified hit; [None] on a
    miss or a corrupt entry (the store drops corrupt entries and keeps
    the typed reason in {!Impact_support.Cstore.last_error}).  Decoding
    a verified payload runs in a ["cache.decode"] span tagged with
    [stage]. *)
val find : t -> Impact_obs.Obs.t -> stage:string -> key:string -> 'a option

val put : t -> Impact_obs.Obs.t -> stage:string -> key:string -> 'a -> unit

(** [publish t obs] gauges end-of-run store state ([cache.evictions],
    [cache.store_failures], [cache.entries], [cache.bytes]) and the
    bytes the store has written since it was opened: entry files as
    [cache.bytes_written], [INDEX] appends and compactions as
    [cstore.index_bytes_written]. *)
val publish : t -> Impact_obs.Obs.t -> unit
