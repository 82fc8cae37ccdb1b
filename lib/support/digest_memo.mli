(** A bounded memo of inputs and their MD5s, looked up by content or by
    digest.

    The stage cache digests each profiling input through one, so a
    warm rerun over unchanged inputs costs one [Hashtbl.hash] and one
    [String.equal] per input (a pointer test when the caller passes the
    memo's own string) instead of an MD5.  impactd resolves the input
    references of a request through the same memo, and its client
    remembers in one which inputs a connection has sent.

    Every digest in the memo is one it computed itself ({!add}), so a
    lookup by digest returns only bytes whose MD5 this process took.
    The memo holds at most {!budget} bytes of inputs, drops the least
    recently used first, and never keeps an input larger than the
    budget.  All operations are safe from several domains and threads
    at once; no MD5 is computed under the memo's lock. *)

type t

(** The byte budget: 2 MiB, which holds the suite's inputs. *)
val budget : int

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
