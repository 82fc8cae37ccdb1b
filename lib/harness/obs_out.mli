(** The trace file and metrics snapshot behind [--trace],
    [--trace-format] and [--metrics-out], shared by [impactc], [impactd]
    and the smoke bench. *)

(** [with_obs ~format ~trace ~metrics_out ~on_broken f] is [f obs]; with
    no file asked for, [obs] is {!Impact_obs.Obs.null}.  A [`Jsonl]
    trace streams through {!Impact_support.Atomic_io.with_file}, a
    [`Chrome] one is buffered and written at the end, and a metrics file
    without a trace counts over {!Impact_obs.Sink.discard}, keeping no
    event.  If [f] raises,
    its exception passes through unchanged and no trace is written.  If
    the sink broke, the trace is discarded and [on_broken] gets the
    typed artifact error: raising it fails the run, returning keeps
    [f]'s value.
    @raise Impact_support.Ierr.Error of stage [Artifact] when a file
      cannot be written *)
val with_obs :
  format:[ `Jsonl | `Chrome ] ->
  trace:string option ->
  metrics_out:string option ->
  on_broken:(Impact_support.Ierr.t -> unit) ->
  (Impact_obs.Obs.t -> 'a) ->
  'a
