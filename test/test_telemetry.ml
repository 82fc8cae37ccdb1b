(* The telemetry layer: histogram math, the per-domain shard merging
   behind the registry's counters and histograms, pool tasks recorded
   into the registry and the scaling verdict read from it, and the
   Chrome trace-event export. *)

module Sink = Impact_obs.Sink
module Obs = Impact_obs.Obs
module Metrics = Impact_obs.Metrics
module Histogram = Impact_obs.Histogram
module Trace_export = Impact_obs.Trace_export
module Pool = Impact_support.Pool
module Perf = Impact_harness.Perf

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Histogram buckets                                                   *)
(* ------------------------------------------------------------------ *)

(* Boundaries are upper-inclusive: bucket i covers (bounds[i-1],
   bounds[i]], and the last bucket is open-ended overflow. *)
let test_bucket_boundaries () =
  let bounds = [| 1.; 10.; 100. |] in
  let idx = Histogram.bucket_index bounds in
  Alcotest.(check int) "0 -> first" 0 (idx 0.);
  Alcotest.(check int) "0.5 -> first" 0 (idx 0.5);
  Alcotest.(check int) "boundary lands below" 0 (idx 1.0);
  Alcotest.(check int) "just above boundary" 1 (idx 1.0000001);
  Alcotest.(check int) "10 -> second" 1 (idx 10.);
  Alcotest.(check int) "100 -> third" 2 (idx 100.);
  Alcotest.(check int) "overflow" 3 (idx 100.5);
  Alcotest.(check int) "negative -> first" 0 (idx (-1.))

let test_default_bounds () =
  let b = Histogram.default_bounds ~lo:1. ~hi:1000. ~per_decade:1 in
  Alcotest.(check (array (float 1e-6))) "log spacing" [| 1.; 10.; 100.; 1000. |] b;
  Alcotest.check_raises "lo >= hi rejected"
    (Invalid_argument "Histogram.default_bounds") (fun () ->
      ignore (Histogram.default_bounds ~lo:10. ~hi:10. ~per_decade:5))

let test_counts_land_in_buckets () =
  let h = Histogram.create ~bounds:[| 1.; 2.; 4. |] () in
  List.iter (Histogram.observe h) [ 0.5; 0.9; 1.5; 3.; 3.5; 100. ];
  let s = Histogram.snapshot h in
  Alcotest.(check (array int)) "per-bucket counts" [| 2; 1; 2; 1 |]
    s.Histogram.s_counts;
  Alcotest.(check int) "count" 6 s.Histogram.s_count;
  check_float "sum" 109.4 s.Histogram.s_sum;
  check_float "min" 0.5 s.Histogram.s_min;
  check_float "max" 100. s.Histogram.s_max

(* ------------------------------------------------------------------ *)
(* Percentiles                                                         *)
(* ------------------------------------------------------------------ *)

let test_percentiles_single_value () =
  let h = Histogram.create () in
  for _ = 1 to 100 do
    Histogram.observe h 5.
  done;
  let s = Histogram.snapshot h in
  (* All mass in one bucket; interpolation clamps to observed min/max. *)
  List.iter
    (fun q -> check_float (Printf.sprintf "q=%g" q) 5. (Histogram.percentile s q))
    [ 0.; 0.5; 0.9; 0.99; 1. ]

let test_percentiles_known_distribution () =
  let h = Histogram.create ~bounds:[| 1.; 2.; 4.; 8. |] () in
  (* 90 samples at 0.5 (first bucket), 10 at 3.0 (third bucket). *)
  for _ = 1 to 90 do
    Histogram.observe h 0.5
  done;
  for _ = 1 to 10 do
    Histogram.observe h 3.
  done;
  let s = Histogram.snapshot h in
  let p50 = Histogram.percentile s 0.5 in
  let p90 = Histogram.percentile s 0.9 in
  let p99 = Histogram.percentile s 0.99 in
  Alcotest.(check bool) "p50 in first bucket" true (p50 >= 0.5 && p50 <= 1.0);
  Alcotest.(check bool) "p90 in first bucket" true (p90 >= 0.5 && p90 <= 1.0);
  Alcotest.(check bool) "p99 in third bucket" true (p99 >= 2.0 && p99 <= 3.0);
  Alcotest.(check bool) "monotone" true (p50 <= p90 && p90 <= p99);
  check_float "mean" ((90. *. 0.5 +. 10. *. 3.) /. 100.) (Histogram.mean s)

let test_percentile_empty_and_domain () =
  let s = Histogram.snapshot (Histogram.create ()) in
  Alcotest.(check bool) "empty -> nan" true
    (Float.is_nan (Histogram.percentile s 0.5));
  Alcotest.(check bool) "empty mean -> nan" true (Float.is_nan (Histogram.mean s));
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Histogram.percentile") (fun () ->
      ignore (Histogram.percentile s 1.5));
  (* The JSON rendering must never carry NaN. *)
  match Histogram.snapshot_to_json s with
  | Sink.Obj fields ->
    List.iter
      (fun (k, v) ->
        match v with
        | Sink.Float f ->
          Alcotest.(check bool) (k ^ " finite") true (Float.is_finite f)
        | _ -> ())
      fields
  | _ -> Alcotest.fail "snapshot_to_json: expected an object"

(* ------------------------------------------------------------------ *)
(* Merge                                                               *)
(* ------------------------------------------------------------------ *)

let snapshot_of_values bounds vs =
  let h = Histogram.create ~bounds () in
  List.iter (Histogram.observe h) vs;
  Histogram.snapshot h

let test_merge_mismatched_bounds () =
  let a = snapshot_of_values [| 1.; 2. |] [ 0.5 ] in
  let b = snapshot_of_values [| 1.; 3. |] [ 0.5 ] in
  Alcotest.check_raises "different bounds rejected"
    (Invalid_argument "Histogram.merge: snapshots have different bounds")
    (fun () -> ignore (Histogram.merge a b))

let prop_merge_associative =
  let bounds = [| 0.1; 1.; 10.; 100. |] in
  let gen = QCheck.(small_list (map (fun n -> float_of_int n /. 7.) small_nat)) in
  QCheck.Test.make ~count:100 ~name:"histogram merge is associative"
    (QCheck.triple gen gen gen)
    (fun (xs, ys, zs) ->
      let a = snapshot_of_values bounds xs
      and b = snapshot_of_values bounds ys
      and c = snapshot_of_values bounds zs in
      let l = Histogram.merge (Histogram.merge a b) c in
      let r = Histogram.merge a (Histogram.merge b c) in
      l.Histogram.s_counts = r.Histogram.s_counts
      && l.Histogram.s_count = r.Histogram.s_count
      && Float.abs (l.Histogram.s_sum -. r.Histogram.s_sum) < 1e-6
      && l.Histogram.s_min = r.Histogram.s_min
      && l.Histogram.s_max = r.Histogram.s_max
      &&
      (* And the merge agrees with observing everything in one go. *)
      let all = snapshot_of_values bounds (xs @ ys @ zs) in
      l.Histogram.s_counts = all.Histogram.s_counts
      && Float.abs (l.Histogram.s_sum -. all.Histogram.s_sum) < 1e-6)

(* ------------------------------------------------------------------ *)
(* Disabled / null paths                                               *)
(* ------------------------------------------------------------------ *)

(* Histograms live in the registry, so the null registry's are
   disabled: observing, or closing a span on the null context, records
   nothing. *)
let test_disabled_noop () =
  Alcotest.(check bool) "disabled" false (Metrics.enabled Metrics.null);
  Metrics.observe Metrics.null "x" 1.;
  Metrics.observe_span Metrics.null "x" 1.;
  Obs.span Obs.null "x" ignore;
  List.iter
    (fun span ->
      let s, domains = Metrics.histogram ~span Metrics.null "x" in
      Alcotest.(check int) "no counts" 0 s.Histogram.s_count;
      Alcotest.(check int) "no domain recorded" 0 domains)
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* Cross-domain exactness                                              *)
(* ------------------------------------------------------------------ *)

(* Domains are spawned directly (not through the pool, whose clamp
   would serialise them on a small machine), so four domains genuinely
   hammer the shards concurrently. *)
let test_metrics_multi_domain_exact () =
  let m = Metrics.create (Sink.memory ()) in
  let per_domain = 10_000 in
  let worker () =
    for _ = 1 to per_domain do
      Metrics.incr m "hits";
      Metrics.incr m ~by:3 "weighted"
    done
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join domains;
  Alcotest.(check int) "hits exact" (5 * per_domain)
    (Metrics.counter_value m "hits");
  Alcotest.(check int) "weighted exact" (15 * per_domain)
    (Metrics.counter_value m "weighted")

let test_histogram_multi_domain_exact () =
  let m = Metrics.create (Sink.discard ()) in
  let per_domain = 5_000 in
  let worker () =
    for i = 1 to per_domain do
      Metrics.observe m "lat" (float_of_int (i mod 100))
    done
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  let s, fed = Metrics.histogram m "lat" in
  Alcotest.(check int) "count exact" (4 * per_domain) s.Histogram.s_count;
  Alcotest.(check int) "one shard per domain" 4 fed;
  let one_domain_sum =
    List.fold_left ( +. ) 0.
      (List.init per_domain (fun i -> float_of_int ((i + 1) mod 100)))
  in
  check_float "sum exact" (4. *. one_domain_sum) s.Histogram.s_sum

(* Several systhreads of one domain share its shard: racing on a fresh
   name must not drop a count, and bumps of existing names stay exact.
   Reader threads keep taking the shard's mutex, so writers inserting a
   fresh name often block there and switch threads in mid-insert. *)
let test_metrics_threads_exact () =
  let m = Metrics.create (Sink.discard ()) in
  let nthreads = 8 and rounds = 300 and names = 100 in
  let worker () =
    for r = 1 to rounds do
      for i = 1 to names do
        Metrics.incr m (Printf.sprintf "fresh.%d.%d" r i);
        Metrics.incr m "shared"
      done
    done
  in
  let writing = Atomic.make true in
  let read () =
    while Atomic.get writing do
      ignore (Metrics.counter_value m "shared")
    done
  in
  let readers = List.init 4 (fun _ -> Thread.create read ()) in
  let threads = List.init nthreads (fun _ -> Thread.create worker ()) in
  List.iter Thread.join threads;
  Atomic.set writing false;
  List.iter Thread.join readers;
  Alcotest.(check int) "shared exact" (nthreads * rounds * names)
    (Metrics.counter_value m "shared");
  let lost = ref 0 in
  for r = 1 to rounds do
    for i = 1 to names do
      lost := !lost + nthreads - Metrics.counter_value m (Printf.sprintf "fresh.%d.%d" r i)
    done
  done;
  Alcotest.(check int) "no fresh-name count lost" 0 !lost

(* ------------------------------------------------------------------ *)
(* Pool tasks in the registry                                          *)
(* ------------------------------------------------------------------ *)

let sample ?(domain = 0) ?(queue = 0.) ?(run = 1.) ?(minor = 0) ?(major = 0)
    index =
  {
    Pool.ts_index = index;
    ts_domain = domain;
    ts_queue_ms = queue;
    ts_run_ms = run;
    ts_minor_collections = minor;
    ts_major_collections = major;
    ts_promoted_words = 0.;
    ts_minor_words = 0.;
  }

let summarize_of samples =
  let obs = Obs.create (Sink.discard ()) in
  List.iter (Obs.probe obs "task") samples;
  Obs.flight obs "task"

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let test_flight_diagnose () =
  let baseline =
    summarize_of (List.init 10 (fun i -> sample ~run:10. ~minor:1 i))
  in
  let check_verdict name prefix current =
    let v = Perf.diagnose ~baseline current in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %s" name v)
      true (has_prefix ~prefix v)
  in
  check_verdict "gc contention" "minor-GC contention"
    (summarize_of
       (List.init 10 (fun i -> sample ~domain:(i mod 4) ~run:30. ~minor:3 i)));
  check_verdict "oversubscription" "core oversubscription"
    (summarize_of
       (List.init 10 (fun i -> sample ~domain:(i mod 4) ~run:30. ~minor:1 i)));
  check_verdict "queueing" "queueing dominates"
    (summarize_of
       (List.init 10 (fun i -> sample ~queue:100. ~run:10. ~minor:1 i)));
  check_verdict "healthy" "scaling healthy"
    (summarize_of (List.init 10 (fun i -> sample ~run:10. ~minor:1 i)));
  Alcotest.(check string) "empty window"
    "no samples recorded; nothing to diagnose"
    (Perf.diagnose ~baseline (summarize_of []))

(* The end-to-end path: a pool map with the probe attached records one
   task per completed item, covering every index, and the registry's
   summary is exactly the samples' aggregate. *)
let test_flight_pool_probe () =
  let obs = Obs.create (Sink.discard ()) in
  let mu = Mutex.create () and seen = ref [] in
  let probe s =
    Obs.probe obs "task" s;
    Mutex.protect mu (fun () -> seen := s :: !seen)
  in
  let results =
    Pool.map_array ~jobs:4 ~clamp:false ~probe
      (fun i -> i * i)
      (Array.init 8 Fun.id)
  in
  Alcotest.(check (array int)) "map result" (Array.init 8 (fun i -> i * i))
    results;
  let ss = !seen in
  Alcotest.(check int) "one sample per item" 8 (List.length ss);
  let indices =
    List.sort_uniq compare (List.map (fun s -> s.Pool.ts_index) ss)
  in
  Alcotest.(check (list int)) "all indices covered" [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    indices;
  List.iter
    (fun s ->
      Alcotest.(check bool) "non-negative times" true
        (s.Pool.ts_queue_ms >= 0. && s.Pool.ts_run_ms >= 0.))
    ss;
  let f = Obs.flight obs "task" in
  let sum g = List.fold_left (fun acc s -> acc +. g s) 0. ss in
  let isum g = List.fold_left (fun acc s -> acc + g s) 0 ss in
  Alcotest.(check int) "one task per item" 8 f.Obs.f_tasks;
  Alcotest.(check int) "domains that ran items"
    (List.length (List.sort_uniq compare (List.map (fun s -> s.Pool.ts_domain) ss)))
    f.Obs.f_domains;
  Alcotest.(check (float 1e-6)) "queue wait summed"
    (sum (fun s -> s.Pool.ts_queue_ms)) f.Obs.f_queue_ms;
  Alcotest.(check (float 1e-6)) "run time summed"
    (sum (fun s -> s.Pool.ts_run_ms)) f.Obs.f_run_ms;
  Alcotest.(check int) "minor collections summed"
    (isum (fun s -> s.Pool.ts_minor_collections)) f.Obs.f_minor_collections;
  Alcotest.(check int) "major collections summed"
    (isum (fun s -> s.Pool.ts_major_collections)) f.Obs.f_major_collections;
  Alcotest.(check (float 0.)) "minor words summed"
    (sum (fun s -> s.Pool.ts_minor_words)) f.Obs.f_minor_words

(* ------------------------------------------------------------------ *)
(* Chrome trace export                                                 *)
(* ------------------------------------------------------------------ *)

let field name = function
  | Sink.Obj fields -> List.assoc_opt name fields
  | _ -> None

let trace_events json =
  match Sink.mem "traceEvents" json with
  | Sink.List evs -> evs
  | _ -> Alcotest.fail "traceEvents missing"

(* Build a real trace through the Obs layer: nested spans, an instant,
   a metric — then export and check the Chrome schema. *)
let chrome_fixture () =
  let sink = Sink.memory () in
  let now = ref 0. in
  let clock () =
    now := !now +. 0.001;
    !now
  in
  let obs = Obs.create ~clock sink in
  Obs.span obs "outer" (fun () ->
      Obs.span obs "inner" (fun () -> Obs.instant obs ~kind:"decision" "chose");
      Obs.incr obs "work.items");
  Obs.finish obs;
  Trace_export.chrome_of_events (Sink.events sink)

let test_chrome_schema () =
  let json = chrome_fixture () in
  (match Sink.mem "displayTimeUnit" json with
  | Sink.String "ms" -> ()
  | _ -> Alcotest.fail "displayTimeUnit");
  let evs = trace_events json in
  let complete =
    List.filter (fun e -> field "ph" e = Some (Sink.String "X")) evs
  in
  Alcotest.(check int) "two complete spans" 2 (List.length complete);
  List.iter
    (fun e ->
      (match field "pid" e with
      | Some (Sink.Int 1) -> ()
      | _ -> Alcotest.fail "pid");
      (match field "tid" e with
      | Some (Sink.Int _) -> ()
      | _ -> Alcotest.fail "tid");
      match (field "ts" e, field "dur" e) with
      | Some (Sink.Float ts), Some (Sink.Float dur) ->
        Alcotest.(check bool) "ts/dur non-negative" true (ts >= 0. && dur >= 0.)
      | _ -> Alcotest.fail "ts/dur")
    complete;
  (* Metadata names the process and one thread per domain. *)
  let meta =
    List.filter (fun e -> field "ph" e = Some (Sink.String "M")) evs
  in
  Alcotest.(check bool) "process_name present" true
    (List.exists (fun e -> field "name" e = Some (Sink.String "process_name")) meta);
  Alcotest.(check bool) "thread_name present" true
    (List.exists (fun e -> field "name" e = Some (Sink.String "thread_name")) meta);
  (* Counters become "C" events with a numeric args.value. *)
  let counters =
    List.filter (fun e -> field "ph" e = Some (Sink.String "C")) evs
  in
  Alcotest.(check bool) "metric exported as counter" true (counters <> []);
  (* Instants carry scope "t". *)
  Alcotest.(check bool) "instant with thread scope" true
    (List.exists
       (fun e ->
         field "ph" e = Some (Sink.String "i")
         && field "s" e = Some (Sink.String "t"))
       evs)

let test_chrome_nesting () =
  let json = chrome_fixture () in
  let find name =
    List.find
      (fun e ->
        field "name" e = Some (Sink.String name)
        && field "ph" e = Some (Sink.String "X"))
      (trace_events json)
  in
  let span_bounds e =
    match (field "ts" e, field "dur" e) with
    | Some (Sink.Float ts), Some (Sink.Float dur) -> (ts, ts +. dur)
    | _ -> Alcotest.fail "span bounds"
  in
  let o0, o1 = span_bounds (find "outer") in
  let i0, i1 = span_bounds (find "inner") in
  Alcotest.(check bool) "inner nested within outer" true (o0 <= i0 && i1 <= o1);
  Alcotest.(check bool) "inner strictly shorter" true (i1 -. i0 < o1 -. o0)

(* Unpaired events must not be dropped: an end without a begin becomes
   an instant, an open begin a zero-duration span. *)
let test_chrome_unpaired () =
  let ev ~kind ~name ~span ~ts =
    { Sink.ev_ts = ts; ev_kind = kind; ev_name = name; ev_span = span;
      ev_dom = 0; ev_attrs = [] }
  in
  let json =
    Trace_export.chrome_of_events
      [
        ev ~kind:"span_end" ~name:"orphan_end" ~span:7 ~ts:0.001;
        ev ~kind:"span_begin" ~name:"still_open" ~span:8 ~ts:0.002;
      ]
  in
  let evs = trace_events json in
  Alcotest.(check bool) "orphan end becomes instant" true
    (List.exists
       (fun e ->
         field "name" e = Some (Sink.String "orphan_end")
         && field "ph" e = Some (Sink.String "i"))
       evs);
  Alcotest.(check bool) "open begin becomes zero-duration span" true
    (List.exists
       (fun e ->
         field "name" e = Some (Sink.String "still_open")
         && field "ph" e = Some (Sink.String "X")
         && field "dur" e = Some (Sink.Float 0.))
       evs)

(* The export is valid JSON that survives this repo's own parser, and
   the JSONL event stream itself round-trips with domains intact. *)
let test_chrome_round_trip () =
  let sink = Sink.memory () in
  let obs = Obs.create sink in
  Obs.span obs "stage" (fun () -> ());
  Obs.finish obs;
  let events = Sink.events sink in
  let reparsed =
    List.map
      (fun e -> Sink.event_of_line (Sink.json_to_string (Sink.event_to_json e)))
      events
  in
  Alcotest.(check bool) "jsonl round-trip exact" true (reparsed = events);
  let s = Trace_export.chrome_string_of_events events in
  let json = Sink.json_of_string s in
  Alcotest.(check bool) "chrome export reparses" true (trace_events json <> [])

let tests =
  [
    Alcotest.test_case "histogram bucket boundaries" `Quick
      test_bucket_boundaries;
    Alcotest.test_case "histogram default bounds" `Quick test_default_bounds;
    Alcotest.test_case "histogram counts land in buckets" `Quick
      test_counts_land_in_buckets;
    Alcotest.test_case "percentiles of a point mass" `Quick
      test_percentiles_single_value;
    Alcotest.test_case "percentiles of a known distribution" `Quick
      test_percentiles_known_distribution;
    Alcotest.test_case "percentile edge cases and JSON" `Quick
      test_percentile_empty_and_domain;
    Alcotest.test_case "merge rejects mismatched bounds" `Quick
      test_merge_mismatched_bounds;
    Alcotest.test_case "disabled histograms and null telemetry" `Quick
      test_disabled_noop;
    Alcotest.test_case "metrics exact across 5 domains" `Quick
      test_metrics_multi_domain_exact;
    Alcotest.test_case "histogram exact across 4 domains" `Quick
      test_histogram_multi_domain_exact;
    Alcotest.test_case "flight diagnose verdicts" `Quick test_flight_diagnose;
    Alcotest.test_case "flight records pool tasks" `Quick
      test_flight_pool_probe;
    Alcotest.test_case "chrome export schema" `Quick test_chrome_schema;
    Alcotest.test_case "chrome span nesting" `Quick test_chrome_nesting;
    Alcotest.test_case "chrome unpaired events survive" `Quick
      test_chrome_unpaired;
    Alcotest.test_case "chrome export round-trips" `Quick
      test_chrome_round_trip;
    Alcotest.test_case "metrics exact across threads of one domain" `Quick
      test_metrics_threads_exact;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_merge_associative ]
