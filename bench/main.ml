(* bench/main — regenerates every table of the paper's evaluation.

   Usage:
     dune exec bench/main.exe              tables, ablations and i-cache
     dune exec bench/main.exe tables       tables only
     dune exec bench/main.exe tables-json  tables 1-4 + aggregates as JSON
     dune exec bench/main.exe ablation     the ablation sweeps
     dune exec bench/main.exe icache       the instruction-cache extension *)

module Pipeline = Impact_harness.Pipeline
module Report = Impact_harness.Report
module Ablation = Impact_harness.Ablation

let print_tables () = print_string (Report.all (Pipeline.run_suite ()))

let print_ablations () =
  let sweeps =
    [
      ("Ablation A. Arc-weight threshold (paper: 10).", Ablation.threshold_sweep);
      ("Ablation B. Program growth bound (default: 1.2x).", Ablation.growth_sweep);
      ( "Ablation C. Linearisation order (paper: weight-sorted).",
        Ablation.linearization_sweep );
      ( "Ablation D. Selection heuristic (paper: profile-guided).",
        Ablation.heuristic_sweep );
      ( "Ablation E. Post-inline clean-up optimisation (paper: none).",
        Ablation.post_opt_sweep );
      ( "Ablation F. Pointer-callee analysis (paper \u{00a7}2.5: \"provides little help\").",
        Ablation.pointer_analysis_sweep );
    ]
  in
  List.iter
    (fun (title, sweep) ->
      print_string (Ablation.render title (sweep ()));
      print_newline ())
    sweeps

let print_icache () =
  print_string (Impact_harness.Icache_exp.render (Impact_harness.Icache_exp.run_suite ()))

let () =
  match if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" with
  | "tables" -> print_tables ()
  | "tables-json" ->
    let results = Pipeline.run_suite () in
    print_endline (Impact_obs.Sink.json_to_string (Report.to_json results))
  | "ablation" -> print_ablations ()
  | "icache" -> print_icache ()
  | "all" ->
    print_tables ();
    print_newline ();
    print_ablations ();
    print_newline ();
    print_icache ()
  | other ->
    Printf.eprintf
      "unknown mode '%s' (expected tables|tables-json|ablation|icache)\n" other;
    exit 2
