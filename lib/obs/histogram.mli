(** Fixed-bucket latency histograms with mergeable snapshots.

    Bucket boundaries are fixed at creation, so snapshots of histograms
    sharing the same bounds merge by element-wise addition — {!merge}
    is associative and commutative on the counts.  A histogram has one
    writer at a time; {!Metrics} keeps one per name in each domain's
    shard, so recording from any domain or thread goes through
    {!Metrics.observe}, and reading merges the shards' snapshots. *)

(** Upper bounds of the finite buckets, strictly increasing.  Bucket
    [i] covers [(bounds.(i-1), bounds.(i)]] (upper-inclusive; the first
    bucket reaches down to 0) and one extra overflow bucket catches
    everything above the last bound. *)
type bounds = float array

type t

(** [default_bounds ~lo ~hi ~per_decade] is log-spaced bounds from [lo]
    to [hi] with [per_decade] buckets per factor of 10.
    @raise Invalid_argument unless [0 < lo < hi] and [per_decade > 0]. *)
val default_bounds : lo:float -> hi:float -> per_decade:int -> bounds

(** 1µs to 10s expressed in milliseconds, 5 buckets per decade — the
    default scale for stage and task latencies. *)
val latency_ms_bounds : bounds

(** [create ?bounds ()] is an empty histogram (default
    {!latency_ms_bounds}).  The bounds array is copied.
    @raise Invalid_argument if [bounds] is empty or not strictly
    increasing. *)
val create : ?bounds:bounds -> unit -> t

(** [observe t v] records one value.  Not synchronised: callers
    serialise their writers. *)
val observe : t -> float -> unit

(** A merged, immutable frame of a histogram. *)
type snapshot = {
  s_bounds : bounds;
  s_counts : int array;  (** length [Array.length s_bounds + 1] *)
  s_count : int;
  s_sum : float;
  s_min : float;  (** [infinity] when empty *)
  s_max : float;  (** [neg_infinity] when empty *)
}

(** [snapshot t] is a copy of [t]'s current state. *)
val snapshot : t -> snapshot

(** [merge a b] adds two snapshots.
    @raise Invalid_argument when the bounds differ. *)
val merge : snapshot -> snapshot -> snapshot

(** [bucket_index bounds v] is the bucket [v] lands in: the first bucket
    whose upper bound is [>= v] (boundaries are upper-inclusive), or the
    overflow bucket. *)
val bucket_index : bounds -> float -> int

(** [percentile snap q] estimates the [q]-quantile ([0. <= q <= 1.]) by
    linear interpolation inside the winning bucket, clamped to the
    observed min/max.  [nan] when empty.
    @raise Invalid_argument when [q] is outside [0, 1]. *)
val percentile : snapshot -> float -> float

(** [mean snap] is [s_sum / s_count]; [nan] when empty. *)
val mean : snapshot -> float

(** [snapshot_to_json snap] is
    [{"count":…,"sum":…,"mean":…,"min":…,"max":…,"p50":…,"p90":…,"p99":…}]
    (zeros when empty, so the JSON never carries NaN). *)
val snapshot_to_json : snapshot -> Sink.json
