(** Telemetry events and the pluggable sinks they flow through.

    Every observation the pipeline makes — a span opening or closing, a
    metric being reported, an inline decision being taken — is one
    {!event}.  Producers never format events themselves; they hand them
    to a {!t} and the sink decides what happens: nothing (the default),
    nothing while metrics still count (a metrics-only run, a daemon
    without [--trace]), buffering in memory (tests), or one JSON object
    per line on an output channel (the [--trace] file format).

    The module also carries the tiny JSON encoder/parser the rest of the
    repository uses for machine-readable output ({!Metrics.to_json},
    [Report.to_json], the bench smoke summary), so observability output
    round-trips without external dependencies. *)

(** A JSON value.  Integers and floats are kept distinct so counters
    survive a round-trip exactly. *)
type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

(** [json_to_string j] is the compact (single-line) rendering.  Floats
    are printed with enough digits to round-trip; a float that would
    print without ['.'] or ['e'] gets a trailing [".0"] so it re-parses
    as a float.  A NaN or an infinity, which JSON cannot spell, is
    rendered [null]. *)
val json_to_string : json -> string

(** [json_to_buffer buf j] appends [json_to_string j] to [buf]. *)
val json_to_buffer : Buffer.t -> json -> unit

exception Parse_error of string

(** [json_of_string s] parses one JSON value.
    @raise Parse_error on malformed input or trailing garbage. *)
val json_of_string : string -> json

(** [mem key obj] is the value bound to [key] in object [obj], or
    {!Null} when absent or when [obj] is not an object. *)
val mem : string -> json -> json

(** One telemetry event.  [ev_span] is the id of the innermost enclosing
    span (0 when emitted outside any span); [ev_ts] is seconds since the
    trace clock's origin; [ev_dom] is the id of the OCaml domain that
    emitted the event, which becomes the Perfetto track in the Chrome
    export ({!Trace_export}). *)
type event = {
  ev_ts : float;
  ev_kind : string;   (** ["span_begin"], ["span_end"], ["metric"], ["decision"], ["run"], ... *)
  ev_name : string;
  ev_span : int;
  ev_dom : int;
  ev_attrs : (string * json) list;
}

(** [event_to_json ev] / [event_of_json j] convert an event to/from the
    JSONL object shape
    [{"ts":…,"kind":…,"name":…,"span":…,"dom":…,"attrs":{…}}].  A
    parsed object without ["dom"] (a pre-PR 6 trace) yields domain 0.
    @raise Parse_error when [j] lacks a required field. *)
val event_to_json : event -> json

val event_of_json : json -> event

(** [event_of_line s] parses one JSONL line. @raise Parse_error *)
val event_of_line : string -> event

type t

(** [null] drops every event; {!enabled} is [false] only for it, so
    instrumentation can skip building events entirely. *)
val null : t

(** [discard ()] is enabled, so instrumentation runs and an
    {!Obs} context over it counts, but it keeps no event.  Like {!null}
    it is no fault point: {!emit} on it can never break. *)
val discard : unit -> t

(** [memory ()] buffers events in order; read them back with {!events}. *)
val memory : unit -> t

(** [jsonl oc] writes each event as one JSON line on [oc].  The channel
    is flushed by {!close} but not owned: callers opened it, callers
    close it after {!close}. *)
val jsonl : out_channel -> t

val enabled : t -> bool

(** [keeps t] is [false] for {!null} and {!discard}, whose {!emit}
    does nothing: producers need not build events for them. *)
val keeps : t -> bool

val emit : t -> event -> unit
(** Sinks fail open: a write that raises (disk full, closed channel, an
    injected fault) records the first error and silently stops emitting
    — observability never unwinds the pipeline.  Check {!broken} after
    the run to decide whether that matters. *)

(** [events t] is the buffered contents of a {!memory} sink, in emission
    order; [[]] for every other sink. *)
val events : t -> event list

(** [broken t] is the first write error this sink swallowed, if any.
    Strict drivers turn it into a typed artifact error; degraded
    drivers report it alongside the result. *)
val broken : t -> exn option

(** [close t] flushes buffered output (JSONL channel). *)
val close : t -> unit
