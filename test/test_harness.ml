(* Harness tests: table formatting and pipeline/profile plumbing. *)

module Tables = Impact_harness.Tables
module Pipeline = Impact_harness.Pipeline
module Profile = Impact_profile.Profile
module Profiler = Impact_profile.Profiler

let test_table_render () =
  let s =
    Tables.render ~title:"T"
      ~header:[ "name"; "value" ]
      ~aligns:[ Tables.Left; Tables.Right ]
      [ [ "a"; "1" ]; [ "long-name"; "2345" ] ]
  in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check string) "title first" "T" (List.nth lines 0);
  Alcotest.(check bool) "header contains both columns" true
    (String.length (List.nth lines 1) >= String.length "name  value");
  (* Right-aligned numbers end the line. *)
  Alcotest.(check bool) "right alignment" true
    (String.length (List.nth lines 3) = String.length (List.nth lines 4))

let test_table_render_validates () =
  Alcotest.check_raises "row width mismatch"
    (Invalid_argument "Tables.render: row width differs from header") (fun () ->
      ignore
        (Tables.render ~title:"T" ~header:[ "a"; "b" ]
           ~aligns:[ Tables.Left; Tables.Left ]
           [ [ "only-one" ] ]))

let test_formatters () =
  Alcotest.(check string) "pct" "59%" (Tables.pct 59.2);
  Alcotest.(check string) "pct1" "58.7%" (Tables.pct1 58.71);
  Alcotest.(check string) "kcount" "585K" (Tables.kcount 585_400.);
  Alcotest.(check string) "f0" "42" (Tables.f0 42.4);
  Alcotest.(check string) "f1" "42.4" (Tables.f1 42.44)

let test_c_lines () =
  Alcotest.(check int) "blank lines do not count" 2
    (Pipeline.count_c_lines "int x;\n\n  \nint y;\n")

let test_profile_averaging () =
  let src =
    {|
extern int getchar();
int tick(int x) { return x + 1; }
int main() { int c, s = 0; while ((c = getchar()) != -1) s = tick(s); return s & 0; }
|}
  in
  let prog = Testutil.compile src in
  (* 10 calls in one run, 20 in the other: the node weight must be 15. *)
  let { Profiler.profile; _ } =
    Profiler.profile prog ~inputs:[ String.make 10 'x'; String.make 20 'x' ]
  in
  let tick = Option.get (Impact_il.Il.find_func prog "tick") in
  Alcotest.(check (float 0.01)) "averaged node weight" 15.
    (Profile.func_weight profile tick.Impact_il.Il.fid);
  Alcotest.(check int) "run count" 2 profile.Profile.nruns;
  (* Out-of-range lookups are 0, not an exception. *)
  Alcotest.(check (float 0.01)) "unknown site" 0. (Profile.site_weight profile 99999);
  Alcotest.(check (float 0.01)) "unknown func" 0. (Profile.func_weight profile 99999)

let test_report_renders () =
  (* One benchmark through the full report stack: the strings must
     contain the benchmark name and the paper-reference columns. *)
  let r = Pipeline.run (Impact_bench_progs.Suite.find "tee") in
  List.iter
    (fun table ->
      Alcotest.(check bool) "mentions tee" true (Testutil.contains (table [ r ]) "tee"))
    [
      Impact_harness.Report.table1;
      Impact_harness.Report.table2;
      Impact_harness.Report.table3;
      Impact_harness.Report.table4;
    ];
  Alcotest.(check bool) "residual mix renders" true
    (Testutil.contains (Impact_harness.Report.residual_mix [ r ]) "paper")

let test_paper_reference_table () =
  Alcotest.(check int) "twelve reference rows" 12
    (List.length Impact_harness.Report.paper_table4);
  let avg_dec =
    Impact_support.Stats.mean
      (List.map (fun (_, (_, d)) -> d) Impact_harness.Report.paper_table4)
  in
  (* The paper's AVG row: 58.7%. *)
  Alcotest.(check (float 0.2)) "reference decs average to the paper's AVG" 58.7 avg_dec

let tests =
  [
    Alcotest.test_case "table rendering" `Quick test_table_render;
    Alcotest.test_case "table validation" `Quick test_table_render_validates;
    Alcotest.test_case "formatters" `Quick test_formatters;
    Alcotest.test_case "C line counting" `Quick test_c_lines;
    Alcotest.test_case "profile averaging" `Quick test_profile_averaging;
    Alcotest.test_case "report rendering" `Slow test_report_renders;
    Alcotest.test_case "paper reference data" `Quick test_paper_reference_table;
  ]
