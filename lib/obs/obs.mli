(** The observability context threaded through the pipeline.

    Bundles a {!Trace} tracer and a {!Metrics} registry over one shared
    {!Sink}: the one telemetry handle.  Every closed {!span} also lands
    in the registry's span histogram of its name, with the exact
    ["dur_ms"] of its [span_end] event, so traces, counters and latency
    histograms cannot disagree.  Every instrumented function takes
    [?obs:Obs.t] defaulting to {!null}, which makes the whole layer
    disappear: no events, no allocation, no clock reads — behaviour and
    output stay byte-identical to an uninstrumented build.  A context
    over {!Sink.discard} counts and times without keeping events. *)

type t = {
  trace : Trace.t;
  metrics : Metrics.t;
}

(** [null] observes nothing. *)
val null : t

(** [create ?clock sink] builds a context over [sink]. *)
val create : ?clock:(unit -> float) -> Sink.t -> t

val enabled : t -> bool

val sink : t -> Sink.t

(** Shorthands delegating to the bundled tracer/registry. *)

val span : t -> ?attrs:(string * Sink.json) list -> string -> (unit -> 'a) -> 'a

val instant : t -> kind:string -> ?attrs:(string * Sink.json) list -> string -> unit

val incr : t -> ?by:int -> string -> unit

val gauge_int : t -> string -> int -> unit

val gauge_float : t -> string -> float -> unit

val observe : t -> string -> float -> unit

(** {2 Tasks}

    A task of [name] — a pool item, a served request — is recorded as
    its run time in the span histogram [name] (so a task that runs in
    a span of [name] is counted once), its queue wait in the histogram
    [name.queue_ms], and the GC work of its domain meanwhile in the
    counters [name.minor_collections], [name.major_collections],
    [name.promoted_words] and [name.minor_words].  The minor words are
    a [Gc.minor_words] delta, exact for the task however small.  The
    other three are [Gc.quick_stat] deltas: per domain, and lumpy, since
    they move only when a collection runs, so one task may be charged
    with a collection that the allocation of earlier tasks made due. *)

(** [task t ~queue_ms ?attrs name f] runs [f] as one task of [name]
    that waited [queue_ms]: inside a span of [name], counting the GC
    work its domain does meanwhile.  On a disabled context it is
    [f ()]. *)
val task :
  t -> queue_ms:float -> ?attrs:(string * Sink.json) list -> string -> (unit -> 'a) -> 'a

(** [probe t name] records each pool sample as one task of [name]. *)
val probe : t -> string -> Impact_support.Pool.probe

(** The tasks of one name, summed: how many ran, on how many domains,
    their summed queue wait and run time in milliseconds, and their
    summed GC deltas. *)
type flight = {
  f_tasks : int;
  f_domains : int;
  f_queue_ms : float;
  f_run_ms : float;
  f_minor_collections : int;
  f_major_collections : int;
  f_promoted_words : float;
  f_minor_words : float;
}

val flight : t -> string -> flight

(** [flight_to_json f] is
    [{"tasks","recorded","domains","queue_ms","run_ms","minor_collections",
    "major_collections","promoted_words","minor_words"}]; [recorded]
    repeats [tasks]. *)
val flight_to_json : flight -> Sink.json

(** [finish ?metrics_out t] flushes metrics as ["metric"] events, writes
    the JSON snapshot to [metrics_out] when given, and flushes the
    sink. *)
val finish : ?metrics_out:string -> t -> unit
