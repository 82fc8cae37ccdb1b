(** The [impactd] daemon core: accept loop, per-connection handler
    threads, worker-domain execution, admission control, and serving
    telemetry.

    Layering: one accept systhread, one cheap handler systhread per
    connection (frame I/O only), and a fixed {!Impact_support.Pool.Service}
    of worker domains that run the actual compile/profile/report work in
    parallel.  Handler threads parked on reads or on submit tickets
    release the OCaml runtime lock, so concurrent connections scale with
    file descriptors while parallelism scales with worker domains.

    Admission control: when [Service.pending >= max_pending], heavy
    requests are refused immediately with a typed [Serve]/[Retry_once]
    error.  Ping, stats and shutdown bypass admission so the control
    plane stays responsive under saturation.

    Inputs: the daemon keeps one {!Impact_support.Digest_memo} (its
    cache's, when it has one).  The handler thread puts each input a
    request gives in full into it, counted in [serve.input_bytes], and
    resolves each input reference through it, counted in
    [serve.input_refs]; a reference it does not hold is refused with
    {!Protocol.missing_input}, counted in [serve.input_misses] and not
    in [serve.malformed].  Digests taken on receipt are not counted in
    [cache.key_bytes].

    Telemetry: the server keeps none of its own; everything lands in
    [obs]'s registry (a discard-sink context when [obs] is
    {!Impact_obs.Obs.null}).  Request outcomes are counters; each
    admitted request runs on its worker domain as one ["serve.request"]
    task ({!Impact_obs.Obs.task}: span, queue wait, GC deltas) and adds
    its admission-to-response latency to a histogram of its kind.  On
    the handler thread each frame's decoding (JSON parse and
    {!Protocol.parse_request}) is a ["serve.frame_decode"] span tagged
    [conn], and each response's write a ["serve.encode"] span tagged
    [conn] and [id].  The [stats] request renders that registry, so it
    agrees with the trace, and the trace opens in Chrome trace
    export. *)

type config = {
  socket_path : string;
  domains : int option;  (** worker domains; default: recommended count *)
  max_pending : int;  (** admission cap on queued+running jobs *)
  cache : Impact_harness.Cache.t option;
      (** the shared cross-request artifact store ([--cache DIR]) *)
  obs : Impact_obs.Obs.t;
  allow_faults : bool;
      (** honor per-request fault specs (tests and chaos drills only) *)
}

(** [default_config ~socket_path]: recommended domains, [max_pending]
    64, no cache, null obs, faults refused. *)
val default_config : socket_path:string -> config

type t

(** [start cfg] binds the Unix-domain socket (unlinking any stale
    file), ignores [SIGPIPE] process-wide, spawns the worker domains
    and the accept thread, and returns immediately.
    @raise Unix.Unix_error when the socket cannot be bound. *)
val start : config -> t

val socket_path : t -> string

(** [shutdown_requested t] becomes true once a client's [shutdown]
    request has been acknowledged; the daemon keeps serving until
    {!stop}. *)
val shutdown_requested : t -> bool

(** [request_shutdown t] makes {!wait} return (also safe from a signal
    handler: it only sets an atomic flag). *)
val request_shutdown : t -> unit

(** [wait t] blocks (polling every 0.1 s) until a shutdown is requested
    or {!stop} has run. *)
val wait : t -> unit

(** [stop t] shuts down gracefully: stop accepting, drain queued jobs
    on the worker domains, unblock and join every handler thread, and
    unlink the socket.  Idempotent. *)
val stop : t -> unit

(** [stats_json t] is the live serving snapshot, the payload of the
    [stats] request: uptime, worker domains, pending jobs and the cap;
    [requests] (total, ok, error, rejected, malformed, connections);
    [latency_ms], admission-to-response latency histograms of every
    admitted request ([all]) and per kind ([compile:full], ...);
    [flight], the summed ["serve.request"] tasks
    ({!Impact_obs.Obs.flight_to_json}); [spans], the histogram of every
    span name; [counters], every counter of the registry
    ({!Impact_obs.Metrics.counters_json}); and, with a cache, its
    stats. *)
val stats_json : t -> Impact_obs.Sink.json
