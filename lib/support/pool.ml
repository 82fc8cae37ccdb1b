(* A small domain pool for embarrassingly-parallel maps.

   No Domainslib: each map spawns [jobs - 1] worker domains, the calling
   domain works too, and an atomic cursor hands out indices.  Results
   land in a pre-sized array slot per index, so the output order is the
   input order no matter which domain ran which item — parallel and
   sequential maps are indistinguishable to the caller.

   Oversubscription discipline: on a machine with fewer cores than the
   requested [jobs], extra domains cannot run in parallel — they
   time-slice one core while every minor collection stops the world
   across all of them, which made jobs=4 profiling measurably *slower*
   than jobs=1 (the PR 6 flight recorder quantified it).  Maps therefore
   clamp the domain count to [Domain.recommended_domain_count] by
   default; [~clamp:false] restores the literal count for tests and
   diagnostics that want the oversubscribed behaviour on purpose.

   Telemetry: [?probe] observes one {!task_sample} per completed item —
   queue wait, run time and GC deltas ([Gc.quick_stat] before/after on
   the running domain) — so a telemetry registry (see
   [Impact_obs.Obs.probe]) can reconstruct per-domain utilisation
   without the pool depending on the observability layer.  The probe runs on the worker domain that
   executed the item and must be thread-safe; without a probe the per-
   item overhead is one physical-equality check.

   Failure discipline:
   - [map_array] is fail-fast: exceptions are captured per index, workers
     stop picking up new work once any item has failed, and after all
     domains join the exception of the lowest failed index is re-raised
     (independent of scheduling).
   - [map_array_results] never fails fast: every item yields an
     [(_, exn) result], optionally after one same-domain retry, so a
     degrading caller can keep the survivors and report the casualties.
   - A failure during *submission* (a [Domain.spawn] that raises, or an
     injected [Pool_worker_start] fault) stops the cursor, joins every
     domain already spawned, and re-raises — the remaining queue is
     drained, never leaked.
   - An exception escaping a worker *body* (outside per-item capture,
     e.g. an injected [Pool_worker_finish] fault) is stowed in a
     compare-and-set slot and re-raised only after every domain has
     joined, so no join is ever skipped.

   [f] must be safe to call from any domain and must not share unguarded
   mutable state across items. *)

type 'a cell = Empty | Value of 'a | Error of exn

type task_sample = {
  ts_index : int;
  ts_domain : int;
  ts_queue_ms : float;
  ts_run_ms : float;
  ts_minor_collections : int;
  ts_major_collections : int;
  ts_promoted_words : float;
  ts_minor_words : float;
}

type probe = task_sample -> unit

let default_jobs () = Domain.recommended_domain_count ()

let effective_jobs ~clamp jobs =
  if clamp then min jobs (max 1 (Domain.recommended_domain_count ())) else jobs

(* Run [g ()] as item [i]'s body and hand the probe one sample on
   success.  [t0] is the map's start instant, so queue wait is the gap
   between submission and this domain picking the item up.  A failing
   item yields no sample: its timing would measure the raise path, and
   the error already surfaces through the map's failure discipline. *)
let observed ~probe ~t0 i g =
  match probe with
  | None -> g ()
  | Some p ->
    let s0 = Unix.gettimeofday () in
    let g0 = Gc.quick_stat () in
    let v = g () in
    let g1 = Gc.quick_stat () in
    let s1 = Unix.gettimeofday () in
    p
      {
        ts_index = i;
        ts_domain = (Domain.self () :> int);
        ts_queue_ms = (s0 -. t0) *. 1000.;
        ts_run_ms = (s1 -. s0) *. 1000.;
        ts_minor_collections =
          g1.Gc.minor_collections - g0.Gc.minor_collections;
        ts_major_collections =
          g1.Gc.major_collections - g0.Gc.major_collections;
        ts_promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
        ts_minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      };
    v

(* Spawn [jobs - 1] copies of [worker], run one on the calling domain,
   join them all, then re-raise any exception that escaped a worker
   body.  [quit] is the shared stop flag item loops poll. *)
let parallel_run ~jobs ~quit worker =
  let escaped : exn option Atomic.t = Atomic.make None in
  let wrapped () =
    match
      worker ();
      Fault.hit Fault.Pool_worker_finish
    with
    | () -> ()
    | exception e ->
      Atomic.set quit true;
      ignore (Atomic.compare_and_set escaped None (Some e))
  in
  let spawned = ref [] in
  (try
     for _ = 1 to jobs - 1 do
       Fault.hit Fault.Pool_worker_start;
       spawned := Domain.spawn wrapped :: !spawned
     done
   with e ->
     (* Submission failed: stop handing out work, drain by joining what
        was already spawned, then re-raise deterministically. *)
     Atomic.set quit true;
     List.iter Domain.join !spawned;
     raise e);
  wrapped ();
  List.iter Domain.join !spawned;
  match Atomic.get escaped with Some e -> raise e | None -> ()

let map_array ?(jobs = 1) ?(clamp = true) ?probe (f : 'a -> 'b)
    (items : 'a array) : 'b array =
  let n = Array.length items in
  let jobs = max 1 (min (effective_jobs ~clamp jobs) n) in
  let t0 = match probe with None -> 0. | Some _ -> Unix.gettimeofday () in
  if jobs = 1 then begin
    Fault.hit Fault.Pool_worker_start;
    let r = Array.mapi (fun i x -> observed ~probe ~t0 i (fun () -> f x)) items in
    Fault.hit Fault.Pool_worker_finish;
    r
  end
  else begin
    let results = Array.make n Empty in
    let next = Atomic.make 0 in
    let quit = Atomic.make false in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n || Atomic.get quit then continue := false
        else
          match observed ~probe ~t0 i (fun () -> f items.(i)) with
          | v -> results.(i) <- Value v
          | exception e ->
            results.(i) <- Error e;
            Atomic.set quit true
      done
    in
    parallel_run ~jobs ~quit worker;
    (* Deterministic error: re-raise for the lowest failed index. *)
    Array.iter (function Error e -> raise e | _ -> ()) results;
    Array.map
      (function
        | Value v -> v
        | Empty | Error _ ->
          (* Unreached: every index below the cursor holds a value once
             no item failed, and the cursor passed n. *)
          assert false)
      results
  end

let map_array_results ?(jobs = 1) ?(clamp = true) ?probe ?(retry = false)
    ?on_retry (f : 'a -> 'b) (items : 'a array) : ('b, exn) result array =
  let n = Array.length items in
  let jobs = max 1 (min (effective_jobs ~clamp jobs) n) in
  let t0 = match probe with None -> 0. | Some _ -> Unix.gettimeofday () in
  let attempt i x =
    match f x with
    | v -> Ok v
    | exception e ->
      if retry then begin
        (match on_retry with Some g -> g i e | None -> ());
        match f x with v -> Ok v | exception e2 -> Stdlib.Error e2
      end
      else Stdlib.Error e
  in
  (* The sample spans the whole attempt, retry included: that is the
     time the item actually occupied its domain. *)
  let attempt i x = observed ~probe ~t0 i (fun () -> attempt i x) in
  if jobs = 1 then begin
    Fault.hit Fault.Pool_worker_start;
    let r = Array.mapi attempt items in
    Fault.hit Fault.Pool_worker_finish;
    r
  end
  else begin
    let results = Array.make n Empty in
    let next = Atomic.make 0 in
    let quit = Atomic.make false in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n || Atomic.get quit then continue := false
        else results.(i) <- Value (attempt i items.(i))
      done
    in
    parallel_run ~jobs ~quit worker;
    Array.map
      (function
        | Value r -> r
        | Empty | Error _ ->
          (* Unreached: results-mode workers only stop early when a
             worker body escaped, and that re-raises in parallel_run. *)
          assert false)
      results
  end

(* ------------------------------------------------------------------ *)
(* Persistent executor service                                         *)
(* ------------------------------------------------------------------ *)

(* The maps above spawn domains per call — right for batch suites, wrong
   for a daemon that must absorb a stream of independent requests
   without paying a [Domain.spawn] per request.  [Service] keeps a fixed
   set of worker domains alive behind a mutex/condition work queue;
   {!submit} blocks the calling (sys)thread until its job has run on
   some worker and returns the job's outcome as a result.  Blocking is
   deliberate: the caller is a connection handler thread that has
   nothing else to do, and the returned result keeps the daemon's
   failure discipline exception-free.

   Shutdown drains: jobs already accepted run to completion, new submits
   are refused with {!Service.Stopped}, and [shutdown] returns only
   after every worker domain has joined. *)

module Service = struct
  exception Stopped

  type t = {
    mu : Mutex.t;
    nonempty : Condition.t;
    queue : (unit -> unit) Queue.t;
    mutable stopping : bool;
    mutable pending : int;  (* jobs queued or running *)
    mutable workers : unit Domain.t list;
    ndomains : int;
  }

  type 'a ticket = {
    tk_mu : Mutex.t;
    tk_done : Condition.t;
    mutable tk_result : ('a, exn) result option;
  }

  let rec worker_loop t =
    Mutex.lock t.mu;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.nonempty t.mu
    done;
    if Queue.is_empty t.queue then Mutex.unlock t.mu
    else begin
      let job = Queue.pop t.queue in
      Mutex.unlock t.mu;
      job ();
      worker_loop t
    end

  let create ?domains () =
    let ndomains =
      match domains with
      | Some n -> max 1 n
      | None -> max 1 (Domain.recommended_domain_count ())
    in
    let t =
      {
        mu = Mutex.create ();
        nonempty = Condition.create ();
        queue = Queue.create ();
        stopping = false;
        pending = 0;
        workers = [];
        ndomains;
      }
    in
    t.workers <-
      List.init ndomains (fun _ -> Domain.spawn (fun () -> worker_loop t));
    t

  let domains t = t.ndomains

  let pending t = Mutex.protect t.mu (fun () -> t.pending)

  let submit t f =
    let tk =
      { tk_mu = Mutex.create (); tk_done = Condition.create (); tk_result = None }
    in
    let job () =
      (* The job body never lets an exception escape into the worker
         loop: the outcome — value or exception — travels back to the
         submitter through the ticket. *)
      let r = match f () with v -> Ok v | exception e -> Stdlib.Error e in
      Mutex.protect t.mu (fun () -> t.pending <- t.pending - 1);
      Mutex.protect tk.tk_mu (fun () ->
          tk.tk_result <- Some r;
          Condition.signal tk.tk_done)
    in
    let accepted =
      Mutex.protect t.mu (fun () ->
          if t.stopping then false
          else begin
            Queue.push job t.queue;
            t.pending <- t.pending + 1;
            Condition.signal t.nonempty;
            true
          end)
    in
    if not accepted then Stdlib.Error Stopped
    else begin
      Mutex.lock tk.tk_mu;
      while tk.tk_result = None do
        Condition.wait tk.tk_done tk.tk_mu
      done;
      let r = Option.get tk.tk_result in
      Mutex.unlock tk.tk_mu;
      r
    end

  let shutdown t =
    let workers =
      Mutex.protect t.mu (fun () ->
          if t.stopping then []
          else begin
            t.stopping <- true;
            Condition.broadcast t.nonempty;
            let w = t.workers in
            t.workers <- [];
            w
          end)
    in
    List.iter Domain.join workers
end

let map_list ?jobs ?clamp ?probe f items =
  Array.to_list (map_array ?jobs ?clamp ?probe f (Array.of_list items))

let map_list_results ?jobs ?clamp ?probe ?retry ?on_retry f items =
  Array.to_list
    (map_array_results ?jobs ?clamp ?probe ?retry ?on_retry f
       (Array.of_list items))
