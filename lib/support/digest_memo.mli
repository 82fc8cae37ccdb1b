(** A bounded memo of inputs and their MD5s, looked up by content or by
    digest.

    The stage cache digests each profiling input through one, so a
    warm rerun over unchanged inputs computes no MD5.  impactd resolves
    the input references of a request through the same memo, and its
    client remembers in one which inputs a connection has sent.

    Cost of a lookup by content.  The bucket is picked by {!hash},
    which reads at most 128 bytes of any input: its length, 32 evenly
    spaced bytes and its last 16.  Equality is [String.equal], which
    tests pointer equality first, so looking up the memo's own string
    (every warm rerun through one cache handle, every input reference
    impactd resolves) costs the same for a 100-byte and a 2 MiB input.
    An equal copy is compared once, byte for byte.  Worst case: inputs
    that agree in length and at every sampled byte share one bucket,
    and a lookup compares content along that chain.  The chain holds
    at most the {!budget}, so one lookup compares at most 2 MiB.
    Nothing is ever compared by hash or by digest.

    Every digest in the memo is one it computed itself ({!add}), so a
    lookup by digest returns only bytes whose MD5 this process took.
    The memo holds at most {!budget} bytes of inputs, drops the least
    recently used first, and never keeps an input larger than the
    budget.  All operations are safe from several domains and threads
    at once.  The lock covers the bucket hash, the chain's comparisons
    and the ring; no MD5 runs under it. *)

type t

(** The byte budget: 2 MiB, which holds the suite's inputs. *)
val budget : int

(** [hash s] is the memo's bucket hash: [Hashtbl.hash s] for an input
    of at most 128 bytes, otherwise a mix of the length, 32 evenly
    spaced bytes and the last 16 bytes.  It allocates nothing. *)
val hash : string -> int

val create : unit -> t

(** [find m s] is the MD5 of [s] when the memo holds an input equal to
    [s], which becomes the most recently used. *)
val find : t -> string -> Digest.t option

(** [find_digest m d] is the input whose MD5 is [d] when the memo holds
    one, which becomes the most recently used.  The string returned is
    the memo's own, so a later {!find} of it is a pointer-equal hit. *)
val find_digest : t -> Digest.t -> string option

(** [add m s] is [Digest.string s], and the memo remembers [s] with it
    unless it already holds an equal input or [s] is larger than
    {!budget}.  Adding may evict the least recently used inputs. *)
val add : t -> string -> Digest.t

(** [bytes m] is the bytes of input the memo holds now. *)
val bytes : t -> int
