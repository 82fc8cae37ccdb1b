(** Hierarchical spans over a {!Sink}.

    A tracer maintains a stack of open spans per thread of each domain,
    so concurrent threads never parent each other's spans; {!with_span}
    emits a [span_begin]/[span_end] pair around a computation, recording
    the parent span id and the wall-clock duration.  On the {!Sink.null}
    sink nothing is emitted, no event is built, and the clock is never
    read — instrumented code pays one branch.  On a sink that keeps no
    event ({!Sink.discard}) a span reads the clock twice for its
    duration and builds nothing else. *)

type t

(** [create ?clock ~on_span sink] is a tracer whose timestamps come
    from [clock] (default [Unix.gettimeofday]), reported relative to the
    tracer's creation instant.  [on_span name dur_ms] runs as each span
    closes, with the ["dur_ms"] its [span_end] event carries ({!Obs}
    feeds the span histograms with it). *)
val create :
  ?clock:(unit -> float) -> on_span:(string -> float -> unit) -> Sink.t -> t

(** [null] is a tracer over {!Sink.null}. *)
val null : t

val sink : t -> Sink.t

val enabled : t -> bool

(** [current_span t] is the id of the innermost open span, 0 at the
    root. *)
val current_span : t -> int

(** [with_span t ?attrs name f] runs [f ()] inside a fresh span.
    [span_begin] carries [attrs] and a ["parent"] attribute; [span_end]
    repeats the span id and adds ["dur_ms"].  The span is closed even
    when [f] raises. *)
val with_span : t -> ?attrs:(string * Sink.json) list -> string -> (unit -> 'a) -> 'a

(** [instant t ~kind ?attrs name] emits a point event inside the current
    span. *)
val instant : t -> kind:string -> ?attrs:(string * Sink.json) list -> string -> unit

(** One span of a recorded trace, with its self time. *)
type span = {
  id : int;
  name : string;
  parent : int;  (** 0 for a root span *)
  attrs : (string * Sink.json) list;  (** the begin's, without ["parent"] *)
  dur_ms : float;
  self_ms : float;  (** [dur_ms] minus the summed [dur_ms] of its children *)
}

(** [self_times events] is every span begun in [events], in begin order.
    A span's duration runs from its begin's timestamp to its end's; one
    still open when the trace stops lasts until the trace's last event.
    Children are found through the ["parent"] attribute, so spans of
    several domains interleaved in one trace each count only their own
    children.  An end whose begin is missing is ignored. *)
val self_times : Sink.event list -> span list
