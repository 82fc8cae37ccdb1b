(* Property-based tests over randomly generated C programs: the compiler
   pipeline must be total on the generator's output, and every program
   transformation — each optimisation pass and, centrally, inline
   expansion under any configuration — must preserve observable
   behaviour.  Dynamic calls must never increase after inlining. *)

module Il = Impact_il.Il
module Machine = Impact_interp.Machine
module Rng = Impact_support.Rng
module Config = Impact_core.Config
module Inliner = Impact_core.Inliner
module Profiler = Impact_profile.Profiler

let gen_source =
  QCheck.make
    ~print:(fun s -> s)
    (QCheck.Gen.map
       (fun seed -> Testutil.gen_program (Rng.create seed))
       QCheck.Gen.small_nat)

let run prog =
  let o = Machine.run prog ~input:"" in
  (o.Machine.output, o.Machine.exit_code, o.Machine.counters.Impact_interp.Counters.calls)

let compiles_and_validates src =
  let prog = Testutil.compile src in
  match Impact_il.Il_check.check prog with
  | [] -> true
  | errs ->
    QCheck.Test.fail_reportf "invalid IL: %s"
      (String.concat "; " (List.map Impact_il.Il_check.to_string errs))

let pass_preserves pass src =
  let prog = Testutil.compile src in
  let reference = run prog in
  let transformed = Testutil.compile src in
  let _ = pass transformed in
  Impact_il.Il_check.check_exn transformed;
  let out, code, _ = run transformed in
  let ref_out, ref_code, _ = reference in
  if out <> ref_out || code <> ref_code then
    QCheck.Test.fail_reportf "pass changed behaviour: %S/%d vs %S/%d" ref_out ref_code
      out code
  else true

let inline_preserves config src =
  let prog = Testutil.compile src in
  let ref_out, ref_code, ref_calls = run prog in
  let { Profiler.profile; _ } = Profiler.profile prog ~inputs:[ "" ] in
  let report = Inliner.run ~config prog profile in
  Impact_il.Il_check.check_exn report.Inliner.program;
  let out, code, calls = run report.Inliner.program in
  if out <> ref_out || code <> ref_code then
    QCheck.Test.fail_reportf "inlining changed behaviour: %S/%d vs %S/%d" ref_out
      ref_code out code
  else if calls > ref_calls then
    QCheck.Test.fail_reportf "inlining increased dynamic calls: %d -> %d" ref_calls
      calls
  else true

(* The indexed expansion engine must be byte-identical to the reference
   rescan engine: same reports, same bodies, same namespace counters,
   same fresh-site numbering. *)
let engines_agree config src =
  let prog = Testutil.compile src in
  let { Profiler.profile; _ } = Profiler.profile prog ~inputs:[ "" ] in
  let graph = Impact_callgraph.Callgraph.build prog profile in
  let linear =
    Impact_core.Linearize.linearize graph ~seed:Config.default.Config.linearize_seed
  in
  let selection = Impact_core.Select.select graph config linear in
  let p1 = Il.copy_program prog in
  let p2 = Il.copy_program prog in
  let r1 = Impact_core.Expand.expand_all p1 linear selection in
  let r2 = Expand_rescan.expand_all p2 linear selection in
  Impact_il.Il_check.check_exn p1;
  if r1 <> r2 then QCheck.Test.fail_reportf "engine reports differ";
  if p1.Il.next_site <> p2.Il.next_site then
    QCheck.Test.fail_reportf "next_site: %d vs %d" p1.Il.next_site p2.Il.next_site;
  Array.iteri
    (fun i (f1 : Il.func) ->
      let f2 = p2.Il.funcs.(i) in
      if f1.Il.body <> f2.Il.body then
        QCheck.Test.fail_reportf "body of %s differs between engines" f1.Il.name;
      if
        (f1.Il.nregs, f1.Il.nlabels, f1.Il.frame_size, f1.Il.alive)
        <> (f2.Il.nregs, f2.Il.nlabels, f2.Il.frame_size, f2.Il.alive)
      then QCheck.Test.fail_reportf "metadata of %s differs between engines" f1.Il.name)
    p1.Il.funcs;
  true

let roomy = { Config.default with Config.program_size_limit_ratio = 4.0 }

let aggressive =
  {
    Config.default with
    Config.program_size_limit_ratio = 100.;
    weight_threshold = 1.;
  }

let props =
  let open QCheck in
  let t ?(count = 60) name f = Test.make ~count ~name gen_source f in
  [
    t "generated programs compile to valid IL" compiles_and_validates;
    t "interpreter is deterministic" (fun src ->
        let a = run (Testutil.compile src) in
        let b = run (Testutil.compile src) in
        a = b);
    t "const_fold preserves behaviour" (pass_preserves Impact_opt.Const_fold.fold);
    t "copy_prop preserves behaviour" (pass_preserves Impact_opt.Copy_prop.propagate);
    t "dce preserves behaviour" (pass_preserves Impact_opt.Dce.eliminate);
    t "jump_opt preserves behaviour" (pass_preserves Impact_opt.Jump_opt.optimize);
    t "full cleanup pipeline preserves behaviour"
      (pass_preserves Impact_opt.Driver.post_inline_cleanup);
    t ~count:40 "inlining preserves behaviour (default config)"
      (inline_preserves Config.default);
    t ~count:40 "inlining preserves behaviour (roomy bound)"
      (inline_preserves roomy);
    t ~count:40 "inlining preserves behaviour (aggressive)"
      (inline_preserves aggressive);
    t ~count:30 "optimise after inlining preserves behaviour" (fun src ->
        let prog = Testutil.compile src in
        let ref_out, ref_code, _ = run prog in
        let { Profiler.profile; _ } = Profiler.profile prog ~inputs:[ "" ] in
        let report = Inliner.run ~config:aggressive prog profile in
        let _ = Impact_opt.Driver.post_inline_cleanup report.Inliner.program in
        Impact_il.Il_check.check_exn report.Inliner.program;
        let out, code, _ = run report.Inliner.program in
        (out, code) = (ref_out, ref_code));
    Test.make ~count:200 ~name:"front end is total: random bytes never crash"
      (string_gen_of_size (Gen.int_bound 80) Gen.printable) (fun junk ->
        (* Any input must either parse or raise one of the documented
           front-end exceptions — never an assert or Not_found. *)
        match Impact_cfront.Sema.check_source junk with
        | _ -> true
        | exception Impact_cfront.Lexer.Lex_error _ -> true
        | exception Impact_cfront.Parser.Parse_error _ -> true
        | exception Impact_cfront.Sema.Sema_error _ -> true);
    Test.make ~count:100 ~name:"front end is total: mutated C programs"
      (pair small_nat small_nat) (fun (seed, cut) ->
        let src = Testutil.gen_program (Rng.create seed) in
        (* Truncate mid-token to exercise error paths. *)
        let junk = String.sub src 0 (cut * String.length src / 400) in
        match Impact_cfront.Sema.check_source junk with
        | _ -> true
        | exception Impact_cfront.Lexer.Lex_error _ -> true
        | exception Impact_cfront.Parser.Parse_error _ -> true
        | exception Impact_cfront.Sema.Sema_error _ -> true);
    t ~count:60 "pretty-printer reaches a fixpoint" (fun src ->
        let parse s = Impact_cfront.Parser.parse_program s in
        let once = Impact_cfront.C_pp.print_program (parse src) in
        let twice = Impact_cfront.C_pp.print_program (parse once) in
        String.equal once twice);
    t ~count:40 "pretty-printer preserves behaviour" (fun src ->
        let printed =
          Impact_cfront.C_pp.print_program (Impact_cfront.Parser.parse_program src)
        in
        run (Testutil.compile printed) = run (Testutil.compile src));
    t ~count:40 "indexed and rescan expanders agree (default)"
      (engines_agree Config.default);
    t ~count:40 "indexed and rescan expanders agree (roomy)" (engines_agree roomy);
    t ~count:40 "indexed and rescan expanders agree (aggressive)"
      (engines_agree aggressive);
    t ~count:40 "code-size accounting matches reality" (fun src ->
        let prog = Testutil.compile src in
        let { Profiler.profile; _ } = Profiler.profile prog ~inputs:[ "" ] in
        let report = Inliner.run ~config:roomy prog profile in
        Il.program_code_size report.Inliner.program = report.Inliner.size_after);
  ]

let tests = List.map QCheck_alcotest.to_alcotest props
