(* bench/smoke — observability smoke test seeding the perf trajectory.

   Runs one small benchmark through the full pipeline with tracing
   enabled, re-parses the emitted JSONL (so an encoder regression fails
   the build), checks structural invariants (balanced spans, one
   decision per call-graph arc), and writes a BENCH_obs.json summary:
   per-stage self times (each span name's summed duration minus what
   its child spans cover) plus the benchmark's headline numbers.

   Usage: smoke.exe [--bench NAME] [--trace FILE] [--out FILE]
   Built by `dune build @bench-smoke`. *)

module Pipeline = Impact_harness.Pipeline
module Suite = Impact_bench_progs.Suite
module Obs = Impact_obs.Obs
module Sink = Impact_obs.Sink
module Callgraph = Impact_callgraph.Callgraph
module Inliner = Impact_core.Inliner

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("smoke: " ^ msg); exit 1) fmt

let () =
  let bench_name = ref "cmp" in
  let trace_file = ref "smoke_trace.jsonl" in
  let out_file = ref "BENCH_obs.json" in
  let rec parse_args = function
    | [] -> ()
    | "--bench" :: v :: rest -> bench_name := v; parse_args rest
    | "--trace" :: v :: rest -> trace_file := v; parse_args rest
    | "--out" :: v :: rest -> out_file := v; parse_args rest
    | arg :: _ -> fail "unknown argument '%s'" arg
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let bench =
    try Suite.find !bench_name with Not_found -> fail "unknown benchmark '%s'" !bench_name
  in
  (* 1. Run the pipeline with a JSONL sink. *)
  let trace_tmp = Impact_support.Atomic_io.tmp_path !trace_file in
  let oc = open_out trace_tmp in
  (* A pipeline failure must not leave the .tmp trace behind. *)
  let r =
    match
      let obs = Obs.create (Sink.jsonl oc) in
      let r = Pipeline.run ~obs bench in
      Obs.finish obs;
      r
    with
    | r ->
      close_out oc;
      Sys.rename trace_tmp !trace_file;
      r
    | exception e ->
      close_out_noerr oc;
      (try Sys.remove trace_tmp with Sys_error _ -> ());
      raise e
  in
  (* 2. Re-parse every line: the trace must be valid JSONL. *)
  let ic = open_in !trace_file in
  let events = ref [] in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then
         match Sink.event_of_line line with
         | ev -> events := ev :: !events
         | exception Sink.Parse_error msg -> fail "invalid JSONL line: %s (%s)" line msg
     done
   with End_of_file -> ());
  close_in ic;
  let events = List.rev !events in
  if events = [] then fail "trace is empty";
  (* 3. Structural invariants. *)
  let count p = List.length (List.filter p events) in
  let begins = count (fun e -> e.Sink.ev_kind = "span_begin") in
  let ends = count (fun e -> e.Sink.ev_kind = "span_end") in
  if begins <> ends then fail "unbalanced spans: %d begin, %d end" begins ends;
  let decisions = count (fun e -> e.Sink.ev_kind = "decision") in
  let arcs = Callgraph.arc_count r.Pipeline.inliner.Inliner.graph in
  if decisions <> arcs then
    fail "decision log covers %d arcs, call graph has %d" decisions arcs;
  (* 4. Per-stage self times. *)
  let stages_json =
    match Impact_harness.Perf.stage_self_ms events with
    | [ (_, row) ] -> List.map (fun (name, ms) -> (name, Sink.Float ms)) row
    | _ -> fail "trace holds no single pipeline run of %s" !bench_name
  in
  let verdicts verdict =
    count (fun e ->
        e.Sink.ev_kind = "decision"
        && Sink.mem "verdict" (Sink.Obj e.Sink.ev_attrs) = Sink.String verdict)
  in
  let summary =
    Sink.Obj
      [
        ("benchmark", Sink.String !bench_name);
        ("events", Sink.Int (List.length events));
        ("stages_ms", Sink.Obj stages_json);
        ( "decisions",
          Sink.Obj
            [
              ("total", Sink.Int decisions);
              ("selected", Sink.Int (verdicts "selected"));
              ("rejected", Sink.Int (verdicts "rejected"));
              ("not_expandable", Sink.Int (verdicts "not_expandable"));
            ] );
        ( "aggregates",
          Sink.Obj
            [
              ("code_increase_pct", Sink.Float (Pipeline.code_increase r));
              ("call_decrease_pct", Sink.Float (Pipeline.call_decrease r));
              ("size_before", Sink.Int r.Pipeline.inliner.Inliner.size_before);
              ("size_after", Sink.Int r.Pipeline.inliner.Inliner.size_after);
              ("outputs_match", Sink.Bool r.Pipeline.outputs_match);
            ] );
      ]
  in
  Impact_support.Atomic_io.write_string !out_file
    (Sink.json_to_string summary ^ "\n");
  Printf.printf "bench-smoke ok: %s, %d events, %d decisions -> %s\n" !bench_name
    (List.length events) decisions !out_file
