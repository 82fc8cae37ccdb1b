(* Tests for the observability layer (lib/obs): span structure, JSONL
   round-tripping, decision-log completeness against the selector, and
   the zero-overhead guarantee of the null sink. *)

module Sink = Impact_obs.Sink
module Trace = Impact_obs.Trace
module Metrics = Impact_obs.Metrics
module Obs = Impact_obs.Obs
module Callgraph = Impact_callgraph.Callgraph
module Classify = Impact_core.Classify
module Select = Impact_core.Select
module Inliner = Impact_core.Inliner
module Profiler = Impact_profile.Profiler
module Profile = Impact_profile.Profile

let check = Alcotest.check
let checki = check Alcotest.int
let checks = check Alcotest.string
let checkb = check Alcotest.bool

(* A deterministic clock: every read advances one second. *)
let ticking () =
  let t = ref 0. in
  fun () ->
    t := !t +. 1.;
    !t

let obs_over_memory () =
  let sink = Sink.memory () in
  (Obs.create ~clock:(ticking ()) sink, sink)

let attr key ev = Sink.mem key (Sink.Obj ev.Sink.ev_attrs)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  let obs, sink = obs_over_memory () in
  let r =
    Obs.span obs "outer" (fun () ->
        Obs.span obs "first" (fun () -> ());
        Obs.span obs "second" (fun () -> Obs.instant obs ~kind:"note" "mark");
        42)
  in
  checki "result threaded through" 42 r;
  let evs = Sink.events sink in
  let shape = List.map (fun e -> (e.Sink.ev_kind, e.Sink.ev_name)) evs in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "begin/end ordering"
    [
      ("span_begin", "outer");
      ("span_begin", "first");
      ("span_end", "first");
      ("span_begin", "second");
      ("note", "mark");
      ("span_end", "second");
      ("span_end", "outer");
    ]
    shape;
  (* Parent links: children begin inside the outer span's id. *)
  let find kind name =
    List.find (fun e -> e.Sink.ev_kind = kind && e.Sink.ev_name = name) evs
  in
  let outer_id = (find "span_begin" "outer").Sink.ev_span in
  check Alcotest.bool "outer is a root span"
    true
    (attr "parent" (find "span_begin" "outer") = Sink.Int 0);
  checkb "first nests in outer" true
    (attr "parent" (find "span_begin" "first") = Sink.Int outer_id);
  checki "instant carries enclosing span"
    (find "span_begin" "second").Sink.ev_span
    (find "note" "mark").Sink.ev_span;
  (* Durations: the ticking clock gives every span a positive dur_ms. *)
  List.iter
    (fun e ->
      if e.Sink.ev_kind = "span_end" then
        match attr "dur_ms" e with
        | Sink.Float d -> checkb (e.Sink.ev_name ^ " has duration") true (d > 0.)
        | _ -> Alcotest.fail "span_end without dur_ms")
    evs

let test_span_closed_on_raise () =
  let obs, sink = obs_over_memory () in
  (try Obs.span obs "doomed" (fun () -> failwith "boom") with Failure _ -> ());
  let kinds = List.map (fun e -> e.Sink.ev_kind) (Sink.events sink) in
  check (Alcotest.list Alcotest.string) "span_end emitted despite raise"
    [ "span_begin"; "span_end" ] kinds

(* ------------------------------------------------------------------ *)
(* Self times                                                          *)
(* ------------------------------------------------------------------ *)

(* Every clock read of the ticking clock is one second later, and a span
   reads it once at each edge, so its duration is 1000 ms per clock read
   from its begin to its end. *)
let test_self_times () =
  let obs, sink = obs_over_memory () in
  let open_trace =
    Obs.span obs "outer" (fun () ->
        Obs.span obs "a" (fun () -> Obs.span obs "b" ignore);
        Obs.span obs "c" ignore;
        (try
           Obs.span obs "raises" (fun () ->
               Obs.span obs "inner" ignore;
               failwith "boom")
         with Failure _ -> ());
        (* Spans of another domain interleave with this one's, under
           their own root. *)
        Domain.join
          (Domain.spawn (fun () ->
               Obs.span obs "d_outer" (fun () -> Obs.span obs "d_inner" ignore)));
        Obs.span obs "open" (fun () ->
            Obs.span obs "done" ignore;
            Sink.events sink))
  in
  let spans = Trace.self_times (Sink.events sink) in
  let find spans name = List.find (fun s -> s.Trace.name = name) spans in
  let ms_in spans name =
    let s = find spans name in
    (s.Trace.dur_ms, s.Trace.self_ms)
  in
  let ms = ms_in spans in
  let pair = Alcotest.(pair (float 1e-6) (float 1e-6)) in
  check
    (Alcotest.list Alcotest.string)
    "every span, in begin order"
    [ "outer"; "a"; "b"; "c"; "raises"; "inner"; "d_outer"; "d_inner"; "open";
      "done" ]
    (List.map (fun s -> s.Trace.name) spans);
  check pair "leaf" (1000., 1000.) (ms "b");
  check pair "nested parent" (3000., 2000.) (ms "a");
  check pair "sibling" (1000., 1000.) (ms "c");
  check pair "span left by an exception" (3000., 2000.) (ms "raises");
  check pair "other domain's root" (3000., 2000.) (ms "d_outer");
  checki "other domain's root has no parent" 0 (find spans "d_outer").Trace.parent;
  check pair "open span" (3000., 2000.) (ms "open");
  (* outer's children are a, c, raises and open, not d_outer. *)
  check pair "root" (19000., 9000.) (ms "outer");
  List.iter
    (fun (s : Trace.span) ->
      let children =
        List.fold_left
          (fun acc (c : Trace.span) ->
            if c.Trace.parent = s.Trace.id then acc +. c.Trace.dur_ms else acc)
          0. spans
      in
      check (Alcotest.float 1e-6)
        (s.Trace.name ^ ": self = duration - children")
        (s.Trace.dur_ms -. children) s.Trace.self_ms)
    spans;
  (* A trace cut while "open" and "outer" were running: both last until
     its last event, "done"'s end. *)
  let cut_ms = ms_in (Trace.self_times open_trace) in
  check pair "span still open at the end" (2000., 1000.) (cut_ms "open");
  check pair "its open parent" (17000., 8000.) (cut_ms "outer");
  checkb "no trace, no spans" true (Trace.self_times [] = [])

(* ------------------------------------------------------------------ *)
(* JSONL round-trip                                                    *)
(* ------------------------------------------------------------------ *)

let test_jsonl_roundtrip () =
  let obs, sink = obs_over_memory () in
  Obs.span obs "stage"
    ~attrs:[ ("benchmark", Sink.String "a \"quoted\"\nname") ]
    (fun () ->
      Obs.instant obs ~kind:"decision" "f->g"
        ~attrs:
          [
            ("site", Sink.Int 7);
            ("weight", Sink.Float 12.5);
            ("whole", Sink.Float 3.0);
            ("flag", Sink.Bool true);
            ("nothing", Sink.Null);
            ("nested", Sink.Obj [ ("xs", Sink.List [ Sink.Int 1; Sink.Int (-2) ]) ]);
          ];
      Obs.incr obs ~by:3 "roundtrip.counter");
  Obs.gauge_float obs "roundtrip.gauge" 0.125;
  Metrics.flush obs.Obs.metrics;
  let emitted = Sink.events sink in
  let path = Filename.temp_file "impact_obs" ".jsonl" in
  let oc = open_out path in
  let js = Sink.jsonl oc in
  List.iter (Sink.emit js) emitted;
  Sink.close js;
  close_out oc;
  let ic = open_in path in
  let back = ref [] in
  (try
     while true do
       back := Sink.event_of_line (input_line ic) :: !back
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  let back = List.rev !back in
  checki "event count survives" (List.length emitted) (List.length back);
  List.iter2
    (fun a b ->
      checkb
        (Printf.sprintf "event %s/%s round-trips exactly" a.Sink.ev_kind a.Sink.ev_name)
        true (a = b))
    emitted back;
  (* The float that happens to be integral must come back a float. *)
  let dec = List.find (fun e -> e.Sink.ev_kind = "decision") back in
  checkb "integral float stays a float" true (attr "whole" dec = Sink.Float 3.0);
  checkb "int stays an int" true (attr "site" dec = Sink.Int 7)

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Sink.json_of_string s with
      | exception Sink.Parse_error _ -> ()
      | _ -> Alcotest.failf "parser accepted %S" s)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

(* ------------------------------------------------------------------ *)
(* Decision log vs the selector                                        *)
(* ------------------------------------------------------------------ *)

let inline_src =
  {|
extern int print_int(int n);
int add(int a, int b) { return a + b; }
int mul(int a, int b) { int r; int i; r = 0; for (i = 0; i < a; i = i + 1) r = add(r, b); return r; }
int main() {
  int i; int acc; acc = 0;
  for (i = 0; i < 25; i = i + 1) acc = acc + mul(i, 3);
  print_int(acc);
  return 0;
}
|}

let test_decision_log_complete () =
  let prog = Testutil.compile inline_src in
  let { Profiler.profile; _ } = Profiler.profile prog ~inputs:[ "" ] in
  let obs, sink = obs_over_memory () in
  let report = Inliner.run ~obs prog profile in
  let decisions =
    List.filter (fun e -> e.Sink.ev_kind = "decision") (Sink.events sink)
  in
  let graph = report.Inliner.graph in
  checki "one decision per call-graph arc" (Callgraph.arc_count graph)
    (List.length decisions);
  let site_of e =
    match attr "site" e with Sink.Int s -> s | _ -> Alcotest.fail "decision without site"
  in
  let verdict_of e =
    match attr "verdict" e with
    | Sink.String v -> v
    | _ -> Alcotest.fail "decision without verdict"
  in
  (* Exactly one record per site, and the verdict agrees with the
     selector's own status table. *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let site = site_of e in
      checkb (Printf.sprintf "site %d logged once" site) false (Hashtbl.mem seen site);
      Hashtbl.replace seen site ();
      let expected =
        match Select.status_of report.Inliner.selection site with
        | Select.Selected -> "selected"
        | Select.Rejected -> "rejected"
        | Select.Not_expandable _ -> "not_expandable"
      in
      checks (Printf.sprintf "site %d verdict" site) expected (verdict_of e))
    decisions;
  (* Every safe arc got a real verdict (selected or rejected), never
     silently dropped. *)
  List.iter
    (fun (a : Callgraph.arc) ->
      match Classify.classify_arc graph Impact_core.Config.default a with
      | Classify.Safe ->
        let e = List.find (fun e -> site_of e = a.Callgraph.a_id) decisions in
        checkb
          (Printf.sprintf "safe arc %d judged" a.Callgraph.a_id)
          true
          (List.mem (verdict_of e) [ "selected"; "rejected" ])
      | _ -> ())
    graph.Callgraph.arcs;
  (* The selected sites in the log are exactly the selector's picks. *)
  let logged_selected =
    List.filter (fun e -> verdict_of e = "selected") decisions
    |> List.map site_of |> List.sort compare
  in
  let picked =
    List.map
      (fun (d : Select.decision) -> d.Select.d_site)
      report.Inliner.selection.Select.decisions
    |> List.sort compare
  in
  check (Alcotest.list Alcotest.int) "selected set matches" picked logged_selected;
  (* Counters agree with the log. *)
  let m = obs.Obs.metrics in
  checki "select.arcs counter" (Callgraph.arc_count graph)
    (Metrics.counter_value m "select.arcs");
  checki "select.selected counter" (List.length picked)
    (Metrics.counter_value m "select.selected")

(* ------------------------------------------------------------------ *)
(* Metrics vs the interpreter's own counters                           *)
(* ------------------------------------------------------------------ *)

let test_metrics_match_counters () =
  let prog = Testutil.compile inline_src in
  let obs, _sink = obs_over_memory () in
  let { Profiler.profile; _ } = Profiler.profile ~obs prog ~inputs:[ "" ] in
  let m = obs.Obs.metrics in
  checki "machine.runs" 1 (Metrics.counter_value m "machine.runs");
  checki "machine.ext_calls matches profile"
    (int_of_float profile.Profile.avg_ext_calls)
    (Metrics.counter_value m "machine.ext_calls");
  checki "machine.calls matches profile"
    (int_of_float profile.Profile.avg_calls)
    (Metrics.counter_value m "machine.calls");
  (* The one-line rendering reports external calls too (it is
     cross-checked against the metric above). *)
  let line = Profile.to_string profile in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  checkb "summary line mentions ext calls" true (contains line "ext=")

(* ------------------------------------------------------------------ *)
(* Zero overhead on the null sink                                      *)
(* ------------------------------------------------------------------ *)

let test_null_sink_zero_overhead () =
  let clock_reads = ref 0 in
  let clock () =
    incr clock_reads;
    0.
  in
  let obs = Obs.create ~clock Sink.null in
  checkb "null sink disabled" false (Obs.enabled obs);
  let r =
    Obs.span obs "outer" (fun () ->
        Obs.instant obs ~kind:"note" "mark";
        Obs.incr obs "some.counter";
        Obs.gauge_int obs "some.gauge" 9;
        Obs.span obs "inner" (fun () -> 7))
  in
  checki "computation still runs" 7 r;
  checki "clock never read" 0 !clock_reads;
  checki "no events buffered" 0 (List.length (Sink.events (Obs.sink obs)));
  checki "metrics accumulate nothing" 0
    (List.length (Metrics.snapshot obs.Obs.metrics));
  checki "counter stays unreported" 0
    (Metrics.counter_value obs.Obs.metrics "some.counter");
  (* Obs.null behaves identically without constructing anything. *)
  checki "Obs.null runs the body" 5 (Obs.span Obs.null "x" (fun () -> 5))

let tests =
  [
    Alcotest.test_case "span nesting and ordering" `Quick test_span_nesting;
    Alcotest.test_case "span closed on raise" `Quick test_span_closed_on_raise;
    Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "json parse errors" `Quick test_json_parse_errors;
    Alcotest.test_case "decision log complete" `Quick test_decision_log_complete;
    Alcotest.test_case "metrics match interpreter counters" `Quick
      test_metrics_match_counters;
    Alcotest.test_case "null sink has zero overhead" `Quick
      test_null_sink_zero_overhead;
    Alcotest.test_case "self times from a recorded trace" `Quick test_self_times;
  ]
