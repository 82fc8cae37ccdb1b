(** Counters, gauges and latency histograms: the one telemetry store.

    A registry accumulates named monotonic counters, last-value gauges
    and one {!Histogram} per name in memory; {!flush} reports every
    counter and gauge as one ["metric"] event through the registry's
    sink, and {!to_json} renders all of it for a [--metrics-out] file.
    On the {!Sink.null} sink every operation is a no-op, so default
    (unobserved) runs accumulate nothing.

    Counters and histograms are sharded per domain and merged at read
    time: {!incr} from a pool worker bumps a domain-private table with
    no lock on the hot path, and the readers sum every shard.  Totals
    read after the workers have joined (which every
    {!Impact_support.Pool} map guarantees) are exact, also when several
    systhreads of one domain write. *)

type t

val create : Sink.t -> t

(** [null] is a registry over {!Sink.null}; all operations no-ops. *)
val null : t

val enabled : t -> bool

(** [incr t ?by name] bumps counter [name] (default [by = 1]). *)
val incr : t -> ?by:int -> string -> unit

(** [observe t name v] records [v] in histogram [name]. *)
val observe : t -> string -> float -> unit

(** [observe_span t name ms] records one closed span of [name] lasting
    [ms] milliseconds; {!Obs.span} calls it with the ["dur_ms"] its
    [span_end] event carries.  Span histograms are a family of their
    own: a span and an {!observe} name may coincide without mixing. *)
val observe_span : t -> string -> float -> unit

(** [histogram ?span t name] is histogram [name] merged across domains
    ([~span:true]: the span family's), with the number of domains that
    recorded into it; empty and 0 when nothing did. *)
val histogram : ?span:bool -> t -> string -> Histogram.snapshot * int

(** [histogram_json t name] is {!Histogram.snapshot_to_json} of
    {!histogram} [t name]. *)
val histogram_json : t -> string -> Sink.json

(** [histograms_json ?span t ~prefix] is every histogram of the family
    whose name starts with [prefix], keyed by the rest of its name and
    sorted by it. *)
val histograms_json : ?span:bool -> t -> prefix:string -> (string * Sink.json) list

(** [gauge t name v] sets gauge [name] to [v] (last write wins). *)
val gauge : t -> string -> Sink.json -> unit

val gauge_int : t -> string -> int -> unit

val gauge_float : t -> string -> float -> unit

(** [counter_value t name] is the current count (0 when absent). *)
val counter_value : t -> string -> int

(** [snapshot t] is every metric, sorted by name: counters as
    [Sink.Int], gauges as recorded. *)
val snapshot : t -> (string * Sink.json) list

(** [counters_json t] is every counter as one object, keys sorted:
    [{"name":count,…}]. *)
val counters_json : t -> Sink.json

(** [to_json t] is
    [{"counters":{…},"gauges":{…},"histograms":{…},"spans":{…}}], keys
    sorted, each histogram rendered by {!Histogram.snapshot_to_json}. *)
val to_json : t -> Sink.json

(** [flush ?trace t] emits one ["metric"] event per entry through the
    sink, tagged with the current span of [trace] when given. *)
val flush : ?trace:Trace.t -> t -> unit

(** [write_json t path] writes {!to_json} to [path] (pretty: one line). *)
val write_json : t -> string -> unit
