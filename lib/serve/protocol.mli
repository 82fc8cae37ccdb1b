(** The [impactd] wire protocol: length-prefixed JSON frames carrying
    versioned request/response records.

    A frame is a 4-byte big-endian unsigned length [N] (bounded by
    {!max_frame_bytes}) followed by [N] bytes holding one JSON document
    terminated by ['\n'] — JSONL with explicit framing, so a reader
    never scans an unbounded stream and a malformed payload can be
    rejected without losing synchronisation.  Error payloads on the
    wire are serialized {!Impact_support.Ierr.t} values: the client
    sees the same typed taxonomy the batch CLI acts on. *)

val version : int

val max_frame_bytes : int

(** How reading a frame can fail.  [Closed] is a clean EOF between
    frames; [Truncated] an EOF inside one (a mid-request disconnect);
    [Empty] a length prefix of 0 and [Oversized] one beyond
    {!max_frame_bytes}, prefixes the reader refuses to trust (the stream
    cannot be resynchronised afterwards); [Bad_json] a complete frame
    whose payload does not parse (framing is still intact — the
    connection can continue). *)
type frame_error =
  | Closed
  | Truncated
  | Empty
  | Oversized of int
  | Bad_json of string

val frame_error_to_string : frame_error -> string

(** [read_frame fd] reads one frame.  Restarts on [EINTR]; never raises
    on EOF (only on unexpected [Unix_error]s such as [ECONNRESET],
    which callers treat as a disconnect). *)
val read_frame : Unix.file_descr -> (Impact_obs.Sink.json, frame_error) result

(** A connection's reusable frame buffer: one per connection, used by
    its one writer. *)
type frame_buf

val frame_buf : unit -> frame_buf

(** [write_frame fb fd json] renders one frame in [fb] and writes it.
    [fb] keeps its storage, so a frame no larger than the largest one
    written through it allocates nothing.  @raise Unix.Unix_error on a
    broken peer ([EPIPE] — the daemon ignores [SIGPIPE]). *)
val write_frame : frame_buf -> Unix.file_descr -> Impact_obs.Sink.json -> unit

val ierr_to_json : Impact_support.Ierr.t -> Impact_obs.Sink.json

(** [ierr_of_json j] decodes a wire error; unknown stage/severity/
    recovery names degrade to [Serve]/[Fatal]/[Abort] rather than
    failing the decode. *)
val ierr_of_json : Impact_obs.Sink.json -> Impact_support.Ierr.t

(** [serve_error fmt ...] is a [Serve]-stage, [Skippable]/[Retry_once]
    error value (not raised). *)
val serve_error : ('a, unit, string, Impact_support.Ierr.t) format4 -> 'a

(** Chaos-only fault arming carried by a request; honored only by a
    daemon started with fault injection allowed.  Points are
    process-global, so a faulted request may fault a concurrent
    neighbour — the blast radius the state-leak tests measure. *)
type fault_spec = {
  f_point : Impact_support.Fault.point;
  f_after : int;
  f_sticky : bool;
}

(** Execution parameters shared by compile/profile/report requests. *)
type job = {
  j_source : string;
  j_inputs : string list;  (** default [[""]] *)
  j_policy : Impact_harness.Pipeline.policy;  (** default [Strict] *)
  j_devirt : bool;
      (** wire field [devirt]; absent defaults to [false] — requests
          from clients predating the field keep the exact
          non-speculative pipeline *)
  j_devirt_threshold : float;
      (** wire field [devirt_threshold], a number in (0, 1]; absent
          defaults to {!Impact_core.Config.default}'s threshold *)
  j_timeout_s : float option;  (** per-run wall-clock budget *)
  j_max_output : int option;  (** per-run output watermark, bytes *)
  j_fault : fault_spec option;
}

type kind =
  | Ping
  | Compile of job  (** full pipeline: profile → inline → re-profile *)
  | Profile of job  (** profile only *)
  | Report of string * job  (** named built-in benchmark, table rows *)
  | Stats
  | Shutdown

type request = { rq_id : int; rq_kind : kind }

val kind_name : kind -> string

(** All defaults: empty source, [[""]] inputs, [Strict], no
    devirtualization, no budgets, no fault. *)
val default_job : job

(** [parse_request j] validates the version field and every parameter;
    any violation is a typed [Serve] error carrying the reason.  Two
    retired fields are still accepted with the one value earlier
    clients sent: [engine] as ["threaded"] and [profile_mode] as
    ["full"]; any other value is a [Serve] error. *)
val parse_request :
  Impact_obs.Sink.json -> (request, Impact_support.Ierr.t) result

val request_to_json : request -> Impact_obs.Sink.json

val ok_response : id:int -> Impact_obs.Sink.json -> Impact_obs.Sink.json

val error_response : id:int -> Impact_support.Ierr.t -> Impact_obs.Sink.json

(** [parse_response j] is [(id, result-or-typed-error)], or [Error _]
    when [j] is not a response object at all. *)
val parse_response :
  Impact_obs.Sink.json ->
  (int * (Impact_obs.Sink.json, Impact_support.Ierr.t) result, string) result
