(* Fixed-bucket latency histograms.

   Bucket boundaries are fixed at creation (log-spaced by default), so
   two snapshots of histograms created with the same bounds merge by
   adding counts element-wise; no rebinning, and merge is associative
   and commutative on the integer counts (the float [sum] accumulates
   in merge order, so it is exact only up to float addition).

   A histogram has one writer at a time: {!Metrics} keeps one per name
   in each domain's shard and observes under that shard's mutex, then
   merges the shards' snapshots when read. *)

type bounds = float array
(* Upper bounds of each finite bucket, strictly increasing; one extra
   overflow bucket catches everything above the last bound. *)

type t = {
  bounds : bounds;
  counts : int array;  (* length = Array.length bounds + 1 *)
  mutable sum : float;
  mutable count : int;
  mutable min_v : float;
  mutable max_v : float;
}

type snapshot = {
  s_bounds : bounds;
  s_counts : int array;
  s_count : int;
  s_sum : float;
  s_min : float;  (* infinity when empty *)
  s_max : float;  (* neg_infinity when empty *)
}

let default_bounds ~lo ~hi ~per_decade =
  if not (lo > 0. && hi > lo && per_decade > 0) then
    invalid_arg "Histogram.default_bounds";
  let step = 10. ** (1. /. float_of_int per_decade) in
  let rec build acc v =
    if v >= hi then List.rev (hi :: acc) else build (v :: acc) (v *. step)
  in
  Array.of_list (build [] lo)

(* 0.001 ms .. 10 s, 5 buckets per decade: 36 buckets, fine enough for
   p99 on anything from a sub-microsecond no-op to a whole suite run. *)
let latency_ms_bounds = default_bounds ~lo:0.001 ~hi:10_000. ~per_decade:5

let validate_bounds bounds =
  let n = Array.length bounds in
  if n = 0 then invalid_arg "Histogram.create: empty bounds";
  for i = 1 to n - 1 do
    if not (bounds.(i) > bounds.(i - 1)) then
      invalid_arg "Histogram.create: bounds must be strictly increasing"
  done

let create ?(bounds = latency_ms_bounds) () =
  validate_bounds bounds;
  {
    bounds = Array.copy bounds;
    counts = Array.make (Array.length bounds + 1) 0;
    sum = 0.;
    count = 0;
    min_v = infinity;
    max_v = neg_infinity;
  }

(* [bucket_index bounds v] is the index of the bucket holding [v]:
   the first bucket whose upper bound is >= v, or the overflow bucket.
   A value exactly on a boundary lands in the bucket it bounds
   (upper-inclusive), so bucket i covers (bounds[i-1], bounds[i]]. *)
let bucket_index (bounds : bounds) v =
  let n = Array.length bounds in
  let lo = ref 0 and hi = ref (n - 1) and found = ref n in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if bounds.(mid) >= v then begin
      found := mid;
      hi := mid - 1
    end
    else lo := mid + 1
  done;
  !found

let observe t v =
  let i = bucket_index t.bounds v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.sum <- t.sum +. v;
  t.count <- t.count + 1;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let snapshot t =
  {
    s_bounds = t.bounds;
    s_counts = Array.copy t.counts;
    s_count = t.count;
    s_sum = t.sum;
    s_min = t.min_v;
    s_max = t.max_v;
  }

let merge a b =
  if a.s_bounds <> b.s_bounds then
    invalid_arg "Histogram.merge: snapshots have different bounds";
  {
    s_bounds = a.s_bounds;
    s_counts = Array.mapi (fun i c -> c + b.s_counts.(i)) a.s_counts;
    s_count = a.s_count + b.s_count;
    s_sum = a.s_sum +. b.s_sum;
    s_min = min a.s_min b.s_min;
    s_max = max a.s_max b.s_max;
  }

(* Percentile by linear interpolation inside the winning bucket: find
   the bucket where the cumulative count crosses rank q*count, then
   interpolate between its bounds by the fraction of the bucket's own
   count below the rank.  Clamped to the observed min/max so p0/p100
   are exact and no estimate leaves the observed range. *)
let percentile snap q =
  if not (q >= 0. && q <= 1.) then invalid_arg "Histogram.percentile";
  if snap.s_count = 0 then nan
  else begin
    let rank = q *. float_of_int snap.s_count in
    let n = Array.length snap.s_counts in
    let i = ref 0 and cum = ref 0 in
    while
      !i < n - 1
      && float_of_int (!cum + snap.s_counts.(!i)) < rank
    do
      cum := !cum + snap.s_counts.(!i);
      incr i
    done;
    let in_bucket = snap.s_counts.(!i) in
    let lo = if !i = 0 then 0. else snap.s_bounds.(!i - 1) in
    let hi =
      if !i < Array.length snap.s_bounds then snap.s_bounds.(!i)
      else snap.s_max
    in
    let est =
      if in_bucket = 0 then lo
      else
        let frac = (rank -. float_of_int !cum) /. float_of_int in_bucket in
        lo +. ((hi -. lo) *. Float.max 0. (Float.min 1. frac))
    in
    Float.max snap.s_min (Float.min snap.s_max est)
  end

let mean snap =
  if snap.s_count = 0 then nan else snap.s_sum /. float_of_int snap.s_count

let snapshot_to_json snap =
  let pct q = Sink.Float (if snap.s_count = 0 then 0. else percentile snap q) in
  Sink.Obj
    [
      ("count", Sink.Int snap.s_count);
      ("sum", Sink.Float snap.s_sum);
      ("mean", Sink.Float (if snap.s_count = 0 then 0. else mean snap));
      ("min", Sink.Float (if snap.s_count = 0 then 0. else snap.s_min));
      ("max", Sink.Float (if snap.s_count = 0 then 0. else snap.s_max));
      ("p50", pct 0.5);
      ("p90", pct 0.9);
      ("p99", pct 0.99);
    ]
