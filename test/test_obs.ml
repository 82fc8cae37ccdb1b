(* Tests for the observability layer (lib/obs): span structure, JSONL
   round-tripping, decision-log completeness against the selector, the
   zero-overhead guarantee of the null sink, span histograms against
   the trace, and metrics-only runs that keep no events. *)

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
  checkb "int stays an int" true (attr "site" dec = Sink.Int 7);
  (* JSON cannot spell a non-finite float; it is written [null], so the
     line still parses. *)
  let odd = Sink.List [ Sink.Float Float.nan; Sink.Float Float.infinity;
                        Sink.Float Float.neg_infinity ] in
  checks "non-finite floats render null" "[null,null,null]" (Sink.json_to_string odd);
  checkb "and parse back as null" true
    (Sink.json_of_string (Sink.json_to_string odd)
     = Sink.List [ Sink.Null; Sink.Null; Sink.Null ])

let test_json_parse_errors () =
  List.iter
    (fun (s, msg) ->
      match Sink.json_of_string s with
      | exception Sink.Parse_error m -> checks (Printf.sprintf "error for %S" s) msg m
      | _ -> Alcotest.failf "parser accepted %S" s)
    [
      ("", "unexpected end of input");
      ("{", "expected '\"' at 1, found end of input");
      ("[1,]", "unexpected character ']' at 3");
      ("{\"a\":}", "unexpected character '}' at 5");
      ("tru", "invalid literal at 0");
      ("1 2", "trailing garbage at 2");
      ("\"unterminated", "unterminated string at 13");
      (* A [\u] escape takes exactly four hex digits. *)
      ("\"\\u1_2f\"", "bad \\u escape at 3");
      ("\"\\u00_1\"", "bad \\u escape at 3");
      ("nan", "invalid literal at 0");
    ]

(* ------------------------------------------------------------------ *)
(* JSON string codec vs a per-byte reference                           *)
(* ------------------------------------------------------------------ *)

(* The per-byte string codec that Sink's run-copying one replaced, kept
   verbatim as the oracle.  It still reads [\u] digits with
   [int_of_string], which also takes '_'; the generated bad [\u] escapes
   below avoid '_', and "json parse errors" pins that case. *)
module Per_byte = struct
  let fail fmt = Printf.ksprintf (fun msg -> raise (Sink.Parse_error msg)) fmt

  let escape_string buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  type parser_state = { src : string; mutable pos : int }

  let peek p = if p.pos < String.length p.src then Some p.src.[p.pos] else None

  let advance p = p.pos <- p.pos + 1

  let expect p c =
    match peek p with
    | Some c' when c' = c -> advance p
    | Some c' -> fail "expected '%c' at %d, found '%c'" c p.pos c'
    | None -> fail "expected '%c' at %d, found end of input" c p.pos

  let parse_string p =
    expect p '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek p with
      | None -> fail "unterminated string at %d" p.pos
      | Some '"' -> advance p
      | Some '\\' ->
        advance p;
        (match peek p with
        | Some '"' -> Buffer.add_char buf '"'; advance p
        | Some '\\' -> Buffer.add_char buf '\\'; advance p
        | Some '/' -> Buffer.add_char buf '/'; advance p
        | Some 'n' -> Buffer.add_char buf '\n'; advance p
        | Some 'r' -> Buffer.add_char buf '\r'; advance p
        | Some 't' -> Buffer.add_char buf '\t'; advance p
        | Some 'b' -> Buffer.add_char buf '\b'; advance p
        | Some 'f' -> Buffer.add_char buf '\012'; advance p
        | Some 'u' ->
          advance p;
          if p.pos + 4 > String.length p.src then fail "bad \\u escape at %d" p.pos;
          let hex = String.sub p.src p.pos 4 in
          let code =
            try int_of_string ("0x" ^ hex)
            with _ -> fail "bad \\u escape at %d" p.pos
          in
          p.pos <- p.pos + 4;
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
          end
        | _ -> fail "bad escape at %d" p.pos);
        loop ()
      | Some c ->
        Buffer.add_char buf c;
        advance p;
        loop ()
    in
    loop ();
    Buffer.contents buf

  let encode s =
    let buf = Buffer.create 16 in
    escape_string buf s;
    Buffer.contents buf

  (* [lit] is one string literal and nothing after it. *)
  let decode lit =
    let p = { src = lit; pos = 0 } in
    match parse_string p with
    | s -> if p.pos = String.length lit then Ok s else Error "trailing garbage"
    | exception Sink.Parse_error msg -> Error msg
end

let decode lit =
  match Sink.json_of_string lit with
  | Sink.String s -> Ok s
  | _ -> Error "not a string"
  | exception Sink.Parse_error msg -> Error msg

(* The bytes that take an escape, mixed into byte strings made of any of
   the 256 byte values, long unescaped runs, escapes first, last and
   adjacent, and now and then more than 64 KiB. *)
let escaped_byte = QCheck.Gen.oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\000'; '\b'; '\012'; '\031' ]

let gen_bytes =
  let open QCheck.Gen in
  let piece =
    frequency
      [
        (3, string_size ~gen:char (int_bound 6));
        (2, string_size ~gen:escaped_byte (int_range 1 3));
        (2, map2 String.make (int_range 1 300) printable);
      ]
  in
  let edge = string_size ~gen:escaped_byte (int_bound 2) in
  let body = map (String.concat "") (list_size (int_bound 12) piece) in
  let framed = map3 (fun a b c -> a ^ b ^ c) edge body edge in
  frequency
    [
      (12, framed);
      (1, map2 (fun a b -> a ^ String.make 65_537 'r' ^ b) framed framed);
      (1, return (String.init 256 Char.chr));
    ]

let print_bytes s =
  if String.length s > 200 then Printf.sprintf "<%d bytes>" (String.length s)
  else Printf.sprintf "%S" s

let arb_bytes = QCheck.make gen_bytes ~print:print_bytes

let prop_codec_matches_reference =
  QCheck.Test.make ~count:400 ~name:"json string codec matches the per-byte one"
    arb_bytes (fun s ->
      let lit = Sink.json_to_string (Sink.String s) in
      lit = Per_byte.encode s
      && Sink.json_of_string lit = Sink.String s
      && decode lit = Per_byte.decode lit)

(* Malformed literals: a well-formed prefix and suffix around one fault,
   so the fault is the first error either codec meets. *)
let gen_malformed =
  let open QCheck.Gen in
  let body =
    map (fun s -> let l = Per_byte.encode s in String.sub l 1 (String.length l - 2)) gen_bytes
  in
  let hex = oneofl (List.of_seq (String.to_seq "0123456789abcdefABCDEF")) in
  let not_hex = map (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' | '_' -> 'g' | c -> c) char in
  let bad_u =
    (* four digits, one of them not hex *)
    map3 (fun digits k c -> "\\u" ^ String.mapi (fun i d -> if i = k then c else d) digits)
      (string_size ~gen:hex (return 4)) (int_bound 3) not_hex
  in
  let bad_escape =
    map (fun c -> if String.contains "\"\\/bfnrtu" c then "\\q" else "\\" ^ String.make 1 c) char
  in
  let short_u = map (fun d -> "\\u" ^ d) (string_size ~gen:hex (int_bound 3)) in
  oneof
    [
      map (fun b -> "\"" ^ b) body;
      map (fun b -> "\"" ^ b ^ "\\") body;
      map3 (fun a f b -> "\"" ^ a ^ f ^ b ^ "\"") body bad_escape body;
      map3 (fun a f b -> "\"" ^ a ^ f ^ b ^ "\"") body bad_u body;
      map2 (fun a f -> "\"" ^ a ^ f) body short_u;
    ]

let prop_malformed_like_reference =
  QCheck.Test.make ~count:400 ~name:"malformed json strings fail like the per-byte one"
    (QCheck.make gen_malformed ~print:print_bytes)
    (fun lit ->
      match (decode lit, Per_byte.decode lit) with
      | Error m, Error m' -> m = m'
      | _ -> false)

(* Allocated words, not time: a codec that allocates per byte again
   fails here whatever the machine's speed.  On OCaml 5 the minor count
   of [Gc.counters] is exact only right after a minor collection, so
   one is forced on both sides: otherwise whatever the earlier tests
   left in the minor heap is counted too, up to a whole minor heap. *)
let allocated_words f =
  let words () =
    Gc.minor ();
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = words () in
  let r = f () in
  (r, words () -. w0)

let test_codec_allocation () =
  let n = 1 lsl 20 in
  let s =
    String.init n (fun i -> if i mod 80 = 79 then '\n' else Char.chr (Char.code 'a' + (i mod 26)))
  in
  let lit, enc = allocated_words (fun () -> Sink.json_to_string (Sink.String s)) in
  let back, dec = allocated_words (fun () -> Sink.json_of_string lit) in
  checkb "1 MiB string round-trips" true (back = Sink.String s);
  let per_byte w = w /. float_of_int n in
  checkb (Printf.sprintf "decoding allocates %.3f words/byte (<= 0.5)" (per_byte dec))
    true (per_byte dec <= 0.5);
  checkb (Printf.sprintf "encoding allocates %.3f words/byte (<= 0.75)" (per_byte enc))
    true (per_byte enc <= 0.75)

(* A connection's frame buffer is reused: once it has held a frame, a
   repeat frame of that size allocates almost nothing, however large.
   The bytes written are the length prefix, the JSON and its newline. *)
let test_frame_allocation () =
  let module Protocol = Impact_serve.Protocol in
  let n = 1 lsl 18 in
  let doc =
    Sink.Obj
      [
        ("v", Sink.Int 1); ("kind", Sink.String "compile");
        ("source", Sink.String (String.init n (fun i -> Char.chr (Char.code 'a' + (i mod 26)))));
      ]
  in
  let body = Sink.json_to_string doc ^ "\n" in
  let prefix = Bytes.create 4 in
  Bytes.set_int32_be prefix 0 (Int32.of_int (String.length body));
  let frame = Bytes.to_string prefix ^ body in
  let path = Filename.temp_file "impact_frames" ".bin" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let frames = Protocol.frame_buf () in
  Protocol.write_frame frames fd doc;
  let (), words = allocated_words (fun () -> Protocol.write_frame frames fd doc) in
  Unix.close fd;
  let written = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  checkb "two frames, byte for byte" true (written = frame ^ frame);
  let per_byte = words /. float_of_int (String.length frame) in
  checkb (Printf.sprintf "a repeat frame allocates %.4f words/byte (< 0.05)" per_byte)
    true (per_byte < 0.05)

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
  checkb "summary line mentions ext calls" true (Testutil.contains line "ext=")

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

(* ------------------------------------------------------------------ *)
(* Span histograms                                                     *)
(* ------------------------------------------------------------------ *)

(* Each closed span lands in the span histogram of its name with the
   exact dur_ms its span_end carries, also when the span raises; plain
   observations of the same name stay apart. *)
let test_span_histograms () =
  let obs, sink = obs_over_memory () in
  Obs.span obs "outer" (fun () ->
      Obs.span obs "leaf" ignore;
      Obs.span obs "leaf" ignore;
      try Obs.span obs "leaf" (fun () -> failwith "boom") with Failure _ -> ());
  Obs.observe obs "leaf" 1000.;
  let durs name =
    List.filter_map
      (fun (e : Sink.event) ->
        match (e.Sink.ev_kind, attr "dur_ms" e) with
        | "span_end", Sink.Float d when e.Sink.ev_name = name -> Some d
        | _ -> None)
      (Sink.events sink)
  in
  List.iter
    (fun name ->
      let snap, domains = Metrics.histogram ~span:true obs.Obs.metrics name in
      let ds = durs name in
      checki (name ^ ": count") (List.length ds) snap.Impact_obs.Histogram.s_count;
      check (Alcotest.float 0.) (name ^ ": sum")
        (List.fold_left ( +. ) 0. ds) snap.Impact_obs.Histogram.s_sum;
      checki (name ^ ": one domain") 1 domains)
    [ "outer"; "leaf" ];
  let values, _ = Metrics.histogram obs.Obs.metrics "leaf" in
  checki "plain observation kept apart" 1 values.Impact_obs.Histogram.s_count

(* ------------------------------------------------------------------ *)
(* Metrics without a trace                                             *)
(* ------------------------------------------------------------------ *)

(* --metrics-out without --trace counts over a sink that keeps no
   events, and its file holds the same counters as a traced run's. *)
let test_metrics_only_keeps_no_events () =
  let bench = Impact_bench_progs.Suite.find "wc" in
  let run ~trace =
    let dir = Filename.temp_file "impact_obs" "" in
    Sys.remove dir;
    Sys.mkdir dir 0o755;
    let metrics = Filename.concat dir "m.json" in
    let trace = Option.map (Filename.concat dir) trace in
    let kept =
      Impact_harness.Obs_out.with_obs ~format:`Jsonl ~trace ~metrics_out:(Some metrics)
        ~on_broken:(fun e -> raise (Impact_support.Ierr.Error e))
        (fun obs ->
          checkb "metrics-only context is enabled" true (Obs.enabled obs);
          ignore (Impact_harness.Pipeline.run ~obs bench);
          List.length (Sink.events (Obs.sink obs)))
    in
    let json = In_channel.with_open_bin metrics In_channel.input_all in
    List.iter Sys.remove (metrics :: Option.to_list trace);
    Sys.rmdir dir;
    (kept, Sink.mem "counters" (Sink.json_of_string json))
  in
  let kept, counters = run ~trace:None in
  checki "no event kept" 0 kept;
  let _, traced = run ~trace:(Some "t.jsonl") in
  checkb "counters present" true (Sink.mem "machine.runs" counters <> Sink.Null);
  checks "same counters as a traced run" (Sink.json_to_string traced)
    (Sink.json_to_string counters)

let tests =
  [
    Alcotest.test_case "span nesting and ordering" `Quick test_span_nesting;
    Alcotest.test_case "span closed on raise" `Quick test_span_closed_on_raise;
    Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "json parse errors" `Quick test_json_parse_errors;
    QCheck_alcotest.to_alcotest prop_codec_matches_reference;
    QCheck_alcotest.to_alcotest prop_malformed_like_reference;
    Alcotest.test_case "json codec allocation per byte" `Quick test_codec_allocation;
    Alcotest.test_case "frame writes reuse the connection's buffer" `Quick
      test_frame_allocation;
    Alcotest.test_case "decision log complete" `Quick test_decision_log_complete;
    Alcotest.test_case "metrics match interpreter counters" `Quick
      test_metrics_match_counters;
    Alcotest.test_case "null sink has zero overhead" `Quick
      test_null_sink_zero_overhead;
    Alcotest.test_case "self times from a recorded trace" `Quick test_self_times;
    Alcotest.test_case "span histograms match the trace" `Quick test_span_histograms;
    Alcotest.test_case "metrics-only runs keep no events" `Quick
      test_metrics_only_keeps_no_events;
  ]
