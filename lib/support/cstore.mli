(** Content-addressed artifact store — the persistence behind the
    incremental driver's stage cache.

    Each entry is one file [<stage>-<key>.ice] in the store directory,
    where [key] is a digest the caller derives (via {!digest_key}) from
    everything that determines the payload: stage tag, config
    fingerprint, input checksums.  Entries carry a versioned header,
    like the v2 profile format:

    {v
    impact-cache v1 <stage> <key> <md5-of-payload> <payload-length>
    <payload bytes>
    v}

    so a truncated, bit-flipped, or foreign file is detected before a
    single payload byte is trusted.  Corruption surfaces as a typed
    {!Ierr.t} carried by a {!lookup.Corrupt} result — a miss with a
    reason, never a crash — and the bad entry is dropped so the next
    store repairs it.  Writes are atomic ({!Atomic_io} temp + rename).

    When payload bytes exceed the size budget, least-recently-used
    entries are evicted.  Access order survives process restarts in
    [INDEX], an append-only journal of [<tick> <file>] lines under an
    [impact-cache-index v1] header: each store appends the line of the
    entry it wrote and of every entry hit since the previous append, in
    one write, and replaying the journal (a later line for a file wins)
    restores every entry's latest persisted tick.  The journal is
    compacted by one whole rewrite when {!create} finds it missing,
    with a bad header or a torn last line, and whenever it holds more
    than twice as many lines as there are live entries; evicted
    entries' lines go at the next compaction.  It is advisory — losing
    or damaging it degrades only the LRU ordering, never correctness.

    Index and recency bookkeeping are mutex-protected, and so are a
    store's entry write and its append; warm-path payload reads and
    digest verification run {e outside} the lock (entries are immutable
    once written and land by atomic rename), so concurrent warm lookups
    proceed in parallel instead of queueing on whichever one is doing
    file I/O.  One store may be shared by parallel suite
    runs or a daemon's worker domains; no operation ever raises.  The
    {!Fault.Cache_read}/{!Fault.Cache_write} injection points fire on
    every entry read/write. *)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable corrupt : int;
      (** entries present but failing header/digest verification *)
  mutable stores : int;
  mutable store_failures : int;
  mutable evictions : int;
  mutable bytes_written : int;  (** entry files written, headers included *)
  mutable index_bytes_written : int;
      (** [INDEX] bytes written: journal appends and compactions *)
}

type t

(** The result of a lookup: the verified payload, a plain miss, or a
    corrupt entry (dropped; carries the typed reason). *)
type lookup =
  | Hit of string
  | Miss
  | Corrupt of Ierr.t

(** [digest_key parts] is a collision-free MD5 (hex) over the ordered
    parts: the MD5 of their concatenated 16-byte MD5s.  Fixed-width
    digests cannot run into one another, so [["ab"; "c"]] and
    [["a"; "bc"]] digest differently, and parts may hold arbitrary
    bytes (program sources, stdin data). *)
val digest_key : string list -> string

(** [key_of_digests ds] is the key whose parts have the MD5s [ds]:
    [digest_key parts = key_of_digests (List.map Digest.string parts)].
    A part shared by several keys is then digested once. *)
val key_of_digests : Digest.t list -> string

(** [create ?max_bytes dir] opens (creating if needed) a store rooted at
    [dir], scanning existing entries and replaying the [INDEX] journal
    for recency (malformed lines and lines naming no entry file are
    skipped).  It compacts the journal when it is missing, has a bad
    header or a torn last line, or holds more than twice as many lines
    as there are entries.  [max_bytes] (default 256 MiB) bounds the
    total entry bytes kept. *)
val create : ?max_bytes:int -> string -> t

val find : t -> stage:string -> key:string -> lookup

(** [store t ~stage ~key payload] writes an entry atomically, evicts
    LRU entries (never the one just stored) while over budget, then
    appends to the [INDEX] journal the entry's line and those of the
    entries hit since the previous append.
    Best-effort: a failed write is counted in {!stats} and remembered in
    {!last_error}, never raised — the caller loses only reuse. *)
val store : t -> stage:string -> key:string -> string -> unit

val stats : t -> stats
val last_error : t -> Ierr.t option
val entry_count : t -> int
val total_bytes : t -> int

(** [hit_rate s] — hits over hits+misses, 0 when no lookups. *)
val hit_rate : stats -> float
