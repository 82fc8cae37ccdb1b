(** Synchronous [impactd] client: one Unix-domain connection, blocking
    request/response.  For concurrency, open one client per thread —
    the load generator does exactly that.

    A connection sends each job input of at least {!min_ref_bytes} in
    full the first time and as a reference to its MD5 afterwards (see
    {!Protocol}).  It remembers the inputs it has sent in a
    {!Impact_support.Digest_memo}, with the same 2 MiB budget and
    least-recently-used eviction as the daemon's, and digests them after
    the frame is written, while the daemon works.  When the daemon
    answers {!Protocol.missing_input} (its memo, shared by every
    connection, dropped the input), the client resends the request once
    with every input in full and returns that outcome.  Shorter inputs
    always go in full. *)

type t

(** [connect path] connects to a daemon's socket.
    @raise Unix.Unix_error when the daemon is not listening. *)
val connect : string -> t

val close : t -> unit

(** The raw descriptor — for tests that need to shutdown(2) or
    half-close mid-request. *)
val fd : t -> Unix.file_descr

(** Raised when the server's reply cannot be framed or parsed, or
    answers with a mismatched request id. *)
exception Protocol_error of string

(** The shortest input sent as a reference: 64 bytes, since a
    reference is 42. *)
val min_ref_bytes : int

(** [request t kind] sends one request and blocks for its response:
    [Ok payload] or [Error typed_error] exactly as the daemon
    classified it.  Ids are assigned per connection, starting at 1; a
    resend in full after a missing input keeps the request's id.
    @raise Protocol_error on a wire-level failure
    @raise Unix.Unix_error when the connection breaks mid-write *)
val request :
  t ->
  Protocol.kind ->
  (Impact_obs.Sink.json, Impact_support.Ierr.t) result

(** [send_raw t bytes] writes raw bytes with no framing — the fuzz
    tests' tool for truncated/oversized/garbage frames. *)
val send_raw : t -> string -> unit

(** [read_response t] reads one frame and parses it as a response,
    without sending anything first. *)
val read_response :
  t ->
  ( (Impact_obs.Sink.json, Impact_support.Ierr.t) result,
    Protocol.frame_error )
  result
