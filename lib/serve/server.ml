(* impactd: a Unix-domain-socket daemon serving
   compile/profile/report requests over the length-prefixed frame
   protocol ({!Protocol}).

   Thread/domain architecture — one process, three layers:

   - one {e accept} systhread selects on the listening socket (with a
     short timeout so shutdown is prompt) and spawns one handler
     systhread per connection;
   - handler threads do only frame I/O and protocol work.  They are
     cheap to park: a systhread blocked on a read or on a
     {!Impact_support.Pool.Service.submit} ticket releases the runtime
     lock, so hundreds of connections cost file descriptors, not cores;
   - actual compilation work runs on the {!Pool.Service} worker
     domains, which execute OCaml code in parallel.  Requests share the
     one [--cache] cstore — safe because the store's warm path reads
     payloads outside its mutex — and each request gets its own
     {!Impact_interp.Rt.budget} from its wire parameters.

   Admission control is a single bounded counter: when
   [Service.pending] reaches [max_pending], new work is refused with a
   typed [Serve] error ([Retry_once]) before any parsing of the
   request's source happens — overload sheds load instead of queueing
   without bound.  Ping/stats/shutdown bypass admission (they must work
   precisely when the daemon is saturated).

   Profiling inputs cross the wire once per connection.  The daemon
   keeps one input memo (its cache's, with [--cache]): the handler
   thread puts each input a request gives in full into it, and resolves
   each reference ({"md5":...}) to the memo's own string, so the
   pipeline's digest of that input is a pointer-equal hit.  A reference
   resolves only to bytes this process received and digested itself.

   Telemetry has one store, the [obs] context's registry; the server
   keeps none of its own.  Handed {!Obs.null}, it serves over a
   discard-sink context, which counts without keeping events.  Request
   outcomes are counters.  Each admitted request runs on its worker
   domain as one ["serve.request"] task ({!Obs.task}: a span, its
   queue wait and its domain's GC deltas), and its admission-to-response
   latency lands in a histogram of its kind, so `stats` and the trace
   read the same numbers, and `--trace-format chrome` of a serving
   session opens in Perfetto with one track per worker domain.  On the
   handler thread, decoding each frame is a ["serve.frame_decode"] span
   and writing each response a ["serve.encode"] span. *)

module Sink = Impact_obs.Sink
module Obs = Impact_obs.Obs
module Metrics = Impact_obs.Metrics
module Ierr = Impact_support.Ierr
module Fault = Impact_support.Fault
module Pool = Impact_support.Pool
module Cstore = Impact_support.Cstore
module Pipeline = Impact_harness.Pipeline
module Cache = Impact_harness.Cache
module Digest_memo = Impact_support.Digest_memo
module Errors = Impact_harness.Errors
module Report = Impact_harness.Report
module Rt = Impact_interp.Rt
module Lower = Impact_il.Lower
module Profiler = Impact_profile.Profiler
module Profile = Impact_profile.Profile
module Suite = Impact_bench_progs.Suite

type config = {
  socket_path : string;
  domains : int option;  (** worker domains; default: recommended count *)
  max_pending : int;  (** admission cap on queued+running jobs *)
  cache : Cache.t option;  (** the shared cross-request artifact store *)
  obs : Obs.t;
  allow_faults : bool;  (** honor per-request fault specs (tests/chaos) *)
}

let default_config ~socket_path =
  {
    socket_path;
    domains = None;
    max_pending = 64;
    cache = None;
    obs = Obs.null;
    allow_faults = false;
  }

type t = {
  cfg : config;
  obs : Obs.t;  (* [cfg.obs], or a discard-sink context for Obs.null *)
  listen_fd : Unix.file_descr;
  service : Pool.Service.t;
  inputs : Protocol.input_store;  (* over the daemon's one input memo *)
  mu : Mutex.t;
  mutable accepting : bool;
  mutable stopped : bool;
  shutdown_flag : bool Atomic.t;
  mutable accept_thread : Thread.t option;
  mutable conn_threads : Thread.t list;
  conn_fds : (int, Unix.file_descr) Hashtbl.t;
  mutable next_conn : int;
  t0 : float;
}

(* The [requests] object of [stats]: each key and the counter behind it. *)
let request_counters =
  [
    ("total", "serve.requests");
    ("ok", "serve.ok");
    ("error", "serve.errors");
    ("rejected", "serve.rejected");
    ("malformed", "serve.malformed");
    ("connections", "serve.connections");
  ]

(* Admission-to-response latency: "serve.latency_ms" for every admitted
   request and "serve.latency_ms.<kind>:full" per kind (the ":full"
   suffix is the one profiling mode's name, kept because stats readers
   look labels up by it). *)
let latency = "serve.latency_ms"

let stopping_error () =
  Ierr.make ~severity:Ierr.Skippable ~recovery:Ierr.Retry_once Ierr.Serve
    "server shutting down"

(* ------------------------------------------------------------------ *)
(* Request execution (worker domain)                                   *)
(* ------------------------------------------------------------------ *)

let budget_of_job (job : Protocol.job) =
  match (job.Protocol.j_timeout_s, job.Protocol.j_max_output) with
  | None, None -> None
  | timeout_s, max_output ->
    Some (Rt.budget ?timeout_s ?max_output ())

let degradations_json (r : Pipeline.result) =
  Sink.List
    (List.map
       (fun (d : Pipeline.degradation) ->
         Sink.Obj
           [
             ("stage", Sink.String (Ierr.stage_name d.Pipeline.d_stage));
             ("detail", Sink.String d.Pipeline.d_detail);
             ("action", Sink.String d.Pipeline.d_action);
           ])
       r.Pipeline.degradations)

let compile_result_json (r : Pipeline.result) =
  let inl = r.Pipeline.inliner in
  let devirt =
    (* Present only when the run actually speculated, mirroring
       {!Impact_harness.Report.to_json}: devirt-off responses keep their
       exact historical shape. *)
    match inl.Impact_core.Inliner.devirt with
    | [] -> []
    | ds -> [ ("devirt_sites", Sink.Int (List.length ds)) ]
  in
  Sink.Obj
    ([
      ("code_before", Sink.Int inl.Impact_core.Inliner.size_before);
      ("code_after", Sink.Int inl.Impact_core.Inliner.size_after);
      ("code_increase_pct", Sink.Float (Pipeline.code_increase r));
      ("call_decrease_pct", Sink.Float (Pipeline.call_decrease r));
      ( "expansions",
        Sink.Int
          (List.length
             inl.Impact_core.Inliner.expansion.Impact_core.Expand.expansions) );
      ("outputs_match", Sink.Bool r.Pipeline.outputs_match);
      ("nruns", Sink.Int r.Pipeline.nruns);
      ("avg_calls_before", Sink.Float r.Pipeline.profile.Profile.avg_calls);
      ("avg_calls_after", Sink.Float r.Pipeline.post_profile.Profile.avg_calls);
      ("degradations", degradations_json r);
    ]
    @ devirt)

let profile_json (p : Profile.t) ~nruns =
  Sink.Obj
    [
      ("avg_ils", Sink.Float p.Profile.avg_ils);
      ("avg_cts", Sink.Float p.Profile.avg_cts);
      ("avg_calls", Sink.Float p.Profile.avg_calls);
      ("avg_returns", Sink.Float p.Profile.avg_returns);
      ("avg_ext_calls", Sink.Float p.Profile.avg_ext_calls);
      ("avg_max_stack", Sink.Float p.Profile.avg_max_stack);
      ("nruns", Sink.Int nruns);
    ]

(* The job body proper.  Anything escaping is classified into the typed
   taxonomy; [Ierr.Error] payloads keep their original stage. *)
let execute_work t ~req_label (kind : Protocol.kind) :
    (Sink.json, Ierr.t) result =
  let run_guarded f =
    match f () with
    | v -> Ok v
    | exception Ierr.Error e -> Error e
    | exception e -> Error (Errors.classify Ierr.Serve e)
  in
  let with_fault (job : Protocol.job) f =
    match job.Protocol.j_fault with
    | None -> f ()
    | Some _ when not t.cfg.allow_faults ->
      raise
        (Ierr.Error
           (Protocol.serve_error
              "fault injection not enabled on this daemon (--allow-faults)"))
    | Some { Protocol.f_point; f_after; f_sticky } ->
      (* Disarm only this point afterwards: a blanket [Fault.reset]
         would stomp a concurrent request's arming.  But hit counters
         advance (on every point) while anything is armed, and arming
         ordinals count from the last reset — so when this was the
         last armed point, zero the counters too, or the next arming
         in this process would count from a leaked offset. *)
      Fault.arm ~once:(not f_sticky) f_point ~after:f_after;
      Fun.protect
        ~finally:(fun () ->
          Fault.disarm f_point;
          if not (Fault.enabled ()) then Fault.reset ())
        f
  in
  let config_of_job (job : Protocol.job) =
    {
      Impact_core.Config.default with
      Impact_core.Config.devirt = job.Protocol.j_devirt;
      devirt_threshold = job.Protocol.j_devirt_threshold;
    }
  in
  match kind with
  | Protocol.Ping ->
    Ok
      (Sink.Obj
         [
           ("pong", Sink.Bool true);
           ("uptime_s", Sink.Float (Unix.gettimeofday () -. t.t0));
         ])
  | Protocol.Stats -> Ok (Sink.Obj []) (* replaced by the caller *)
  | Protocol.Shutdown -> Ok (Sink.Obj [ ("stopping", Sink.Bool true) ])
  | Protocol.Compile job ->
    run_guarded (fun () ->
        with_fault job (fun () ->
            let bench =
              {
                Impact_bench_progs.Benchmark.name = req_label;
                description = "served source";
                source = job.Protocol.j_source;
                inputs = (fun () -> job.Protocol.j_inputs);
              }
            in
            let r =
              Pipeline.run ~obs:t.obs ~policy:job.Protocol.j_policy
                ~config:(config_of_job job) ?cache:t.cfg.cache
                ?budget:(budget_of_job job) bench
            in
            compile_result_json r))
  | Protocol.Profile job ->
    run_guarded (fun () ->
        with_fault job (fun () ->
            let prog =
              Errors.guard Ierr.Parse (fun () ->
                  Lower.lower_source job.Protocol.j_source)
            in
            ignore (Impact_opt.Driver.pre_inline prog);
            let { Profiler.profile; _ } =
              Errors.guard Ierr.Profile_run (fun () ->
                  Profiler.profile ~obs:t.obs
                    ?budget:(budget_of_job job) ~keep_outputs:false prog
                    ~inputs:job.Protocol.j_inputs)
            in
            profile_json profile ~nruns:(List.length job.Protocol.j_inputs)))
  | Protocol.Report (bench_name, job) ->
    run_guarded (fun () ->
        with_fault job (fun () ->
            let bench =
              match Suite.find bench_name with
              | b -> b
              | exception Not_found ->
                raise
                  (Ierr.Error
                     (Protocol.serve_error "unknown benchmark %S (have: %s)"
                        bench_name
                        (String.concat ", " Suite.names)))
            in
            let r =
              Pipeline.run ~obs:t.obs ~policy:job.Protocol.j_policy
                ~config:(config_of_job job) ?cache:t.cfg.cache
                ?budget:(budget_of_job job) bench
            in
            Report.to_json [ r ]))

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let stats_json t =
  let m = t.obs.Obs.metrics in
  Sink.Obj
    ([
       ("uptime_s", Sink.Float (Unix.gettimeofday () -. t.t0));
       ("domains", Sink.Int (Pool.Service.domains t.service));
       ("pending", Sink.Int (Pool.Service.pending t.service));
       ("max_pending", Sink.Int t.cfg.max_pending);
       ( "requests",
         Sink.Obj
           (List.map
              (fun (key, name) -> (key, Sink.Int (Metrics.counter_value m name)))
              request_counters) );
       ( "latency_ms",
         Sink.Obj
           (("all", Metrics.histogram_json m latency)
           :: Metrics.histograms_json m ~prefix:(latency ^ ".")) );
       ("flight", Obs.flight_to_json (Obs.flight t.obs "serve.request"));
       ("spans", Sink.Obj (Metrics.histograms_json ~span:true m ~prefix:""));
       ("counters", Metrics.counters_json m);
     ]
    @
    match t.cfg.cache with
    | None -> []
    | Some c ->
      let s = Cstore.stats (Cache.cstore c) in
      [
        ( "cache",
          Sink.Obj
            [
              ("hits", Sink.Int s.Cstore.hits);
              ("misses", Sink.Int s.Cstore.misses);
              ("corrupt", Sink.Int s.Cstore.corrupt);
              ("stores", Sink.Int s.Cstore.stores);
              ("evictions", Sink.Int s.Cstore.evictions);
              ("entries", Sink.Int (Cstore.entry_count (Cache.cstore c)));
              ("bytes", Sink.Int (Cstore.total_bytes (Cache.cstore c)));
              ("hit_rate", Sink.Float (Cstore.hit_rate s));
            ] );
      ])

(* ------------------------------------------------------------------ *)
(* Per-connection handler                                              *)
(* ------------------------------------------------------------------ *)

(* One request, end to end: admission, dispatch to a worker domain,
   latency accounting, response JSON.  Runs on the connection's handler
   thread; only the [execute_work] body runs on a worker domain. *)
let process_request t ~conn_id (rq : Protocol.request) =
  let id = rq.Protocol.rq_id in
  let kind = rq.Protocol.rq_kind in
  Obs.incr t.obs "serve.requests";
  let finish outcome =
    match outcome with
    | Ok result ->
      Obs.incr t.obs "serve.ok";
      Protocol.ok_response ~id result
    | Error err ->
      Obs.incr t.obs "serve.errors";
      Protocol.error_response ~id err
  in
  (* Control-plane requests answer on the connection thread and skip
     admission: they must respond precisely when the daemon is full. *)
  match kind with
  | Protocol.Stats -> finish (Ok (stats_json t))
  | Protocol.Ping | Protocol.Shutdown ->
    finish (execute_work t ~req_label:"control" kind)
  | Protocol.Compile _ | Protocol.Profile _ | Protocol.Report _ ->
    if Pool.Service.pending t.service >= t.cfg.max_pending then begin
      Obs.incr t.obs "serve.rejected";
      finish
        (Error
           (Protocol.overloaded
              ~pending:(Pool.Service.pending t.service)
              ~cap:t.cfg.max_pending))
    end
    else begin
      let req_label = Printf.sprintf "req-%d.%d" conn_id id in
      let label =
        Printf.sprintf "%s.%s:%s" latency (Protocol.kind_name kind)
          Impact_profile.Coverage.(mode_name Full)
      in
      let t_submit = Unix.gettimeofday () in
      let ms_since t0 = (Unix.gettimeofday () -. t0) *. 1000. in
      let outcome =
        Pool.Service.submit t.service (fun () ->
            let r =
              Obs.task t.obs ~queue_ms:(ms_since t_submit) "serve.request"
                ~attrs:
                  [
                    ("kind", Sink.String (Protocol.kind_name kind));
                    ("id", Sink.Int id);
                    ("conn", Sink.Int conn_id);
                  ]
                (fun () -> execute_work t ~req_label kind)
            in
            let ms = ms_since t_submit in
            Obs.observe t.obs latency ms;
            Obs.observe t.obs label ms;
            r)
      in
      match outcome with
      | Ok r -> finish r
      | Error Pool.Service.Stopped -> finish (Error (stopping_error ()))
      | Error e -> finish (Error (Errors.classify Ierr.Serve e))
    end

let request_shutdown t = Atomic.set t.shutdown_flag true

(* The handler loop.  Protocol-level failures follow the frame-error
   taxonomy: invalid JSON in a complete frame is answered with a typed
   error and the connection continues (framing is intact); an empty or
   oversized prefix is answered and the connection closed (framing
   lost); a truncated frame or EOF closes silently (no one is
   listening). *)
let handle_connection t ~conn_id fd =
  let frames = Protocol.frame_buf () in
  let conn = ("conn", Sink.Int conn_id) in
  let send ~id json =
    match
      Obs.span t.obs "serve.encode"
        ~attrs:[ conn; ("id", Sink.Int id) ]
        (fun () -> Protocol.write_frame frames fd json)
    with
    | () -> true
    | exception _ -> false (* peer gone: stop serving this connection *)
  in
  let frame_error fe =
    Obs.incr t.obs "serve.malformed";
    send ~id:0
      (Protocol.error_response ~id:0
         (Protocol.serve_error "%s" (Protocol.frame_error_to_string fe)))
  in
  (* The JSON parse and [parse_request], references resolved. *)
  let decode payload =
    match Protocol.decode_payload payload with
    | Error fe -> Error (`Frame fe)
    | Ok json -> (
      match Protocol.parse_request ~inputs:t.inputs json with
      | Ok rq -> Ok rq
      | Error err ->
        Error (`Request ((match Sink.mem "id" json with Sink.Int n -> n | _ -> 0), err)))
  in
  let rec loop () =
    match Protocol.read_payload fd with
    | Error Protocol.Closed | Error Protocol.Truncated -> ()
    | Error fe -> ignore (frame_error fe)
    | Ok payload -> (
      match
        Obs.span t.obs "serve.frame_decode" ~attrs:[ conn ] (fun () ->
            decode payload)
      with
      | Error (`Frame fe) -> if frame_error fe then loop ()
      | Error (`Request (id, err)) ->
        Obs.incr t.obs
          (if Protocol.is_missing_input err then "serve.input_misses"
           else "serve.malformed");
        if send ~id (Protocol.error_response ~id err) then loop ()
      | Ok rq ->
        let resp = process_request t ~conn_id rq in
        let sent = send ~id:rq.Protocol.rq_id resp in
        if rq.Protocol.rq_kind = Protocol.Shutdown then request_shutdown t
        else if sent then loop ())
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Mutex.protect t.mu (fun () -> Hashtbl.remove t.conn_fds conn_id))
    loop

(* ------------------------------------------------------------------ *)
(* Accept loop and lifecycle                                           *)
(* ------------------------------------------------------------------ *)

let accept_loop t =
  while Mutex.protect t.mu (fun () -> t.accepting) do
    (* Select with a short timeout so [stop] never waits on a blocked
       accept(2); the listening socket outlives every check. *)
    match Unix.select [ t.listen_fd ] [] [] 0.25 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
      match Unix.accept ~cloexec:true t.listen_fd with
      | exception Unix.Unix_error _ -> ()
      | fd, _ ->
        Obs.incr t.obs "serve.connections";
        let conn_id =
          Mutex.protect t.mu (fun () ->
              let id = t.next_conn in
              t.next_conn <- id + 1;
              Hashtbl.replace t.conn_fds id fd;
              id)
        in
        let th =
          Thread.create (fun () -> handle_connection t ~conn_id fd) ()
        in
        Mutex.protect t.mu (fun () -> t.conn_threads <- th :: t.conn_threads))
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let start cfg =
  (* A dead client mid-write must be an EPIPE error on that connection,
     never a process-killing SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path)
   with Unix.Unix_error (err, fn, _) ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise (Unix.Unix_error (err, fn, cfg.socket_path)));
  Unix.listen listen_fd 128;
  let obs =
    if Obs.enabled cfg.obs then cfg.obs else Obs.create (Sink.discard ())
  in
  let memo =
    match cfg.cache with Some c -> Cache.memo c | None -> Digest_memo.create ()
  in
  (* Digests taken on receipt are the ones the pipeline would take; they
     are not key bytes.  An input the memo would not keep is left for the
     pipeline to digest. *)
  let inputs =
    {
      Protocol.take =
        (fun s ->
          Obs.incr obs ~by:(String.length s) "serve.input_bytes";
          if String.length s <= Digest_memo.budget && Digest_memo.find memo s = None
          then ignore (Digest_memo.add memo s));
      held =
        (fun sum ->
          let s = Digest_memo.find_digest memo sum in
          if s <> None then Obs.incr obs "serve.input_refs";
          s);
    }
  in
  let t =
    {
      cfg;
      obs;
      listen_fd;
      service = Pool.Service.create ?domains:cfg.domains ();
      inputs;
      mu = Mutex.create ();
      accepting = true;
      stopped = false;
      shutdown_flag = Atomic.make false;
      accept_thread = None;
      conn_threads = [];
      conn_fds = Hashtbl.create 32;
      next_conn = 0;
      t0 = Unix.gettimeofday ();
    }
  in
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let socket_path t = t.cfg.socket_path

let shutdown_requested t = Atomic.get t.shutdown_flag

(* Poll-loop rather than a condition: the flag may be set from a signal
   handler, where taking a mutex is not safe. *)
let wait t =
  while
    not (Atomic.get t.shutdown_flag || Mutex.protect t.mu (fun () -> t.stopped))
  do
    Thread.delay 0.1
  done

let stop t =
  let was_stopped =
    Mutex.protect t.mu (fun () ->
        let was = t.stopped in
        t.stopped <- true;
        t.accepting <- false;
        was)
  in
  if not was_stopped then begin
    (* 1. No new connections. *)
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (* 2. Drain accepted work: queued jobs run, new submits are refused
       with a typed shutting-down error. *)
    Pool.Service.shutdown t.service;
    (* 3. Unblock handler threads parked on reads and join them. *)
    let fds =
      Mutex.protect t.mu (fun () ->
          Hashtbl.fold (fun _ fd acc -> fd :: acc) t.conn_fds [])
    in
    List.iter
      (fun fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      fds;
    let threads = Mutex.protect t.mu (fun () -> t.conn_threads) in
    List.iter Thread.join threads;
    (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ())
  end
