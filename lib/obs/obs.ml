module Pool = Impact_support.Pool

type t = {
  trace : Trace.t;
  metrics : Metrics.t;
}

let null = { trace = Trace.null; metrics = Metrics.null }

let create ?clock sink =
  let metrics = Metrics.create sink in
  { trace = Trace.create ?clock ~on_span:(Metrics.observe_span metrics) sink; metrics }

let enabled t = Trace.enabled t.trace

let sink t = Trace.sink t.trace

let span t ?attrs name f = Trace.with_span t.trace ?attrs name f

let instant t ~kind ?attrs name = Trace.instant t.trace ~kind ?attrs name

let incr t ?by name = Metrics.incr t.metrics ?by name

let gauge_int t name n = Metrics.gauge_int t.metrics name n

let gauge_float t name x = Metrics.gauge_float t.metrics name x

let observe t name v = Metrics.observe t.metrics name v

(* The names a task of [name] is recorded under (obs.mli, "Tasks"):
   [task] and [probe] write them, [flight] reads them back. *)

let gc_delta t name ~minor ~major ~promoted ~minor_words =
  incr t ~by:minor (name ^ ".minor_collections");
  incr t ~by:major (name ^ ".major_collections");
  incr t ~by:(int_of_float promoted) (name ^ ".promoted_words");
  incr t ~by:(int_of_float minor_words) (name ^ ".minor_words")

let task t ~queue_ms ?attrs name f =
  if not (enabled t) then f ()
  else begin
    observe t (name ^ ".queue_ms") queue_ms;
    let g0 = Gc.quick_stat () in
    Fun.protect
      ~finally:(fun () ->
        let g1 = Gc.quick_stat () in
        gc_delta t name
          ~minor:(g1.Gc.minor_collections - g0.Gc.minor_collections)
          ~major:(g1.Gc.major_collections - g0.Gc.major_collections)
          ~promoted:(g1.Gc.promoted_words -. g0.Gc.promoted_words)
          ~minor_words:(g1.Gc.minor_words -. g0.Gc.minor_words))
      (fun () -> span t ?attrs name f)
  end

let probe t name : Pool.probe =
 fun s ->
  Metrics.observe_span t.metrics name s.Pool.ts_run_ms;
  observe t (name ^ ".queue_ms") s.Pool.ts_queue_ms;
  gc_delta t name ~minor:s.Pool.ts_minor_collections
    ~major:s.Pool.ts_major_collections ~promoted:s.Pool.ts_promoted_words
    ~minor_words:s.Pool.ts_minor_words

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

let flight t name =
  let run, domains = Metrics.histogram ~span:true t.metrics name in
  let queue, _ = Metrics.histogram t.metrics (name ^ ".queue_ms") in
  let counter what = Metrics.counter_value t.metrics (name ^ "." ^ what) in
  {
    f_tasks = run.Histogram.s_count;
    f_domains = domains;
    f_queue_ms = queue.Histogram.s_sum;
    f_run_ms = run.Histogram.s_sum;
    f_minor_collections = counter "minor_collections";
    f_major_collections = counter "major_collections";
    f_promoted_words = float_of_int (counter "promoted_words");
    f_minor_words = float_of_int (counter "minor_words");
  }

let flight_to_json f =
  Sink.Obj
    [
      ("tasks", Sink.Int f.f_tasks);
      (* Every task is kept, so the lifetime total is the task count. *)
      ("recorded", Sink.Int f.f_tasks);
      ("domains", Sink.Int f.f_domains);
      ("queue_ms", Sink.Float f.f_queue_ms);
      ("run_ms", Sink.Float f.f_run_ms);
      ("minor_collections", Sink.Int f.f_minor_collections);
      ("major_collections", Sink.Int f.f_major_collections);
      ("promoted_words", Sink.Float f.f_promoted_words);
      ("minor_words", Sink.Float f.f_minor_words);
    ]

let finish ?metrics_out t =
  Metrics.flush ~trace:t.trace t.metrics;
  (match metrics_out with
  | Some path when enabled t -> Metrics.write_json t.metrics path
  | _ -> ());
  Sink.close (sink t)
