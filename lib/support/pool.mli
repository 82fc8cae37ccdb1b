(** A minimal domain pool for embarrassingly-parallel maps.

    [map_array ~jobs f items] behaves exactly like [Array.map f items]
    — same result order, and on failure the exception of the lowest
    failing index — but runs [f] on up to [jobs] OCaml domains
    ([jobs - 1] spawned workers plus the calling domain).  [jobs <= 1]
    or a single item degrades to a plain sequential map with no domain
    spawned.

    By default the domain count is additionally clamped to
    [Domain.recommended_domain_count]: requesting more domains than the
    machine has cores cannot add parallelism, only cross-domain minor-GC
    stalls (measured at +93% wall time for jobs=4 on one core before
    PR 6).  Pass [~clamp:false] to run the literal count anyway — tests
    exercising the multi-domain machinery on small machines need that.

    Resilience guarantees (both variants):
    - a failure during worker {e submission} (a [Domain.spawn] that
      raises, or an injected {!Fault.Pool_worker_start} fault) joins
      every already-spawned domain before re-raising — the remaining
      queue is drained, never leaked;
    - an exception escaping a worker body outside per-item capture is
      re-raised only after every domain has joined;
    - results are always reassembled in input order.

    [f] is called from arbitrary domains: it must not share unguarded
    mutable state across items (per-item state, or a mutex-protected
    sink, is fine — see {!Impact_obs.Sink}). *)

(** One completed task, as seen by a {!probe}: which item ran where,
    how long it waited between map submission and pickup
    ([ts_queue_ms]), how long it ran ([ts_run_ms]), and the GC work
    its domain did while running it, in OCaml heap words.
    [ts_minor_words] is a [Gc.minor_words] delta, exact however small
    the task.  The collection counts and [ts_promoted_words] are
    [Gc.quick_stat] deltas: per domain, and lumpy, since they move only
    when a collection runs. *)
type task_sample = {
  ts_index : int;  (** input index of the item *)
  ts_domain : int;  (** id of the domain that ran it *)
  ts_queue_ms : float;  (** map start → task start *)
  ts_run_ms : float;  (** task start → task end *)
  ts_minor_collections : int;
  ts_major_collections : int;
  ts_promoted_words : float;
  ts_minor_words : float;
}

(** A probe runs on the worker domain that completed the item, outside
    any pool lock; it must be thread-safe.  In the fail-fast maps a
    raising item produces no sample; the [_results] variants sample
    every item — the attempt occupied its domain whether it ended in
    [Ok] or [Error].  See [Impact_obs.Obs.probe] for the consumer that
    sums them into a telemetry registry. *)
type probe = task_sample -> unit

val map_array :
  ?jobs:int -> ?clamp:bool -> ?probe:probe -> ('a -> 'b) -> 'a array -> 'b array

val map_list :
  ?jobs:int -> ?clamp:bool -> ?probe:probe -> ('a -> 'b) -> 'a list -> 'b list

(** [map_array_results] never fails fast: every item yields an
    [(_, exn) result] in input order.  With [~retry:true] a failing item
    is retried once, deterministically, on the same domain ([?on_retry]
    observes the first failure; it may be called from any worker domain
    and must be thread-safe).  Hung tasks are the caller's problem:
    bound them with interpreter budgets ({!Impact_interp.Rt.budget} —
    fuel plus wall-clock deadline), which make every profiling run
    finite; the pool then turns crashes into typed per-item errors. *)

val map_array_results :
  ?jobs:int ->
  ?clamp:bool ->
  ?probe:probe ->
  ?retry:bool ->
  ?on_retry:(int -> exn -> unit) ->
  ('a -> 'b) ->
  'a array ->
  ('b, exn) result array

val map_list_results :
  ?jobs:int ->
  ?clamp:bool ->
  ?probe:probe ->
  ?retry:bool ->
  ?on_retry:(int -> exn -> unit) ->
  ('a -> 'b) ->
  'a list ->
  ('b, exn) result list

(** [default_jobs ()] is the runtime's recommended domain count for this
    machine. *)
val default_jobs : unit -> int

(** A persistent executor: a fixed set of worker domains behind a work
    queue, for callers (the [impactd] daemon) that absorb a stream of
    independent jobs and must not pay a [Domain.spawn] per job.

    {!Service.submit} blocks the calling thread until the job has run on
    some worker, returning its outcome as a result — systhreads waiting
    on the condition release the runtime lock, so a daemon may park
    hundreds of connection-handler threads on submits while [domains]
    workers execute in parallel.  Jobs must not share unguarded mutable
    state (same contract as the maps above); a job may itself call the
    pool maps. *)
module Service : sig
  (** Raised-by-value (returned as [Error Stopped]) when submitting to a
      service that has begun shutting down. *)
  exception Stopped

  type t

  (** [create ?domains ()] spawns the worker domains immediately
      (default: [Domain.recommended_domain_count ()], min 1). *)
  val create : ?domains:int -> unit -> t

  (** [domains t] is the fixed worker count. *)
  val domains : t -> int

  (** [pending t] is the number of jobs queued or running — the
      admission-control signal. *)
  val pending : t -> int

  (** [submit t f] runs [f] on some worker domain and blocks until it
      finishes; an exception escaping [f] arrives as [Error].  After
      {!shutdown} has begun: [Error Stopped], without running [f]. *)
  val submit : t -> (unit -> 'a) -> ('a, exn) result

  (** [shutdown t] refuses new jobs, lets accepted ones drain, and joins
      every worker domain.  Idempotent. *)
  val shutdown : t -> unit
end
