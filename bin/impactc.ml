(* impactc — command-line driver for the IMPACT-style tool chain.

   Subcommands:
     parse    check a C file and report its declarations
     il       dump the lowered IL
     run      compile and execute with stdin from a file or empty
     profile  run over inputs and print node/arc weights
     inline   profile, inline, and report what was expanded
     bench    run one of the built-in benchmarks end to end

   Exit codes: 0 success, 2 usage error, 3 parse/sema/lowering error,
   4 profile error (I/O or a failing run), 5 internal error. *)

module Il = Impact_il.Il
module Lower = Impact_il.Lower
module Machine = Impact_interp.Machine
module Profiler = Impact_profile.Profiler
module Profile = Impact_profile.Profile
module Profile_io = Impact_profile.Profile_io
module Inliner = Impact_core.Inliner
module Config = Impact_core.Config
module Classify = Impact_core.Classify
module Select = Impact_core.Select
module Benchmark = Impact_bench_progs.Benchmark
module Ierr = Impact_support.Ierr
module Atomic_io = Impact_support.Atomic_io
module Errors = Impact_harness.Errors
module Pipeline = Impact_harness.Pipeline

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Every command body runs under a guard: whatever escapes is converted
   into a typed {!Ierr.t} attributed to [stage] (front-end exceptions
   carry their own stage and source location regardless), and the
   top-level handler turns it into a message and the right exit code. *)
let guarded stage f = Errors.guard stage f

let source_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"C source file")

(* Failure policy: --strict (the default) aborts on the first error;
   --degrade lets the pipeline recover where the taxonomy permits. *)

let policy_arg =
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Abort on the first error of any severity (the default)")
  in
  let degrade =
    Arg.(
      value & flag
      & info [ "degrade" ]
          ~doc:
            "Recover from degradable failures: retry or drop failing \
             profiling runs, fall back to static weights (no inlining) when \
             profiling is impossible, skip callers whose expansion fails, \
             and report a broken trace sink instead of aborting")
  in
  Term.(
    const (fun s d -> if d && not s then Pipeline.Degrade else Pipeline.Strict)
    $ strict $ degrade)

(* Observability: --trace/--metrics-out build an Obs context over a
   JSONL (or, metrics-only, in-memory) sink; with neither flag the
   context is Obs.null and behaviour is byte-identical to before. *)

module Obs = Impact_obs.Obs
module Sink = Impact_obs.Sink

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write an event trace (spans, metrics, decision log) to $(docv)")

let trace_format_arg =
  let fmt = Arg.enum [ ("jsonl", `Jsonl); ("chrome", `Chrome) ] in
  Arg.(
    value & opt fmt `Jsonl
    & info [ "trace-format" ] ~docv:"FORMAT"
        ~doc:
          "Format of the $(b,--trace) file: $(b,jsonl) (one event object per \
           line, the default) or $(b,chrome) (Chrome trace-event JSON with \
           one track per domain — load it in ui.perfetto.dev or \
           chrome://tracing)")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Write the final counter/gauge snapshot as JSON to $(docv)")

(* A broken trace sink fails a strict run and is reported by a degraded
   one; either way no partial trace is left behind. *)
let with_obs ?(policy = Pipeline.Strict) ?(trace_format = `Jsonl) ~trace
    ~metrics_out f =
  Impact_harness.Obs_out.with_obs ~format:trace_format ~trace ~metrics_out
    ~on_broken:(fun err ->
      match policy with
      | Pipeline.Strict -> raise (Ierr.Error err)
      | Pipeline.Degrade ->
        Printf.eprintf "impactc: warning: trace discarded: %s\n"
          (Ierr.to_string err))
    f

let input_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "i"; "input" ] ~docv:"INPUT" ~doc:"File supplying the program's stdin")

let inputs_arg =
  Arg.(
    value
    & opt_all file []
    & info [ "i"; "input" ] ~docv:"INPUT" ~doc:"Profiling input file (repeatable)")

let optimize_arg =
  Arg.(value & flag & info [ "O" ] ~doc:"Apply pre-inline optimisations first")

(* Profiling parallelism. *)

let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Fan independent profiling runs across $(docv) domains (default 1; \
           results are deterministic regardless of $(docv))")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:"Wall-clock budget per profiling run (default: none)")

(* Speculative devirtualization: --devirt rewrites indirect call sites
   whose value profile shows one dominant target into a guarded direct
   call, so the speculated callee becomes inlinable. *)

let devirt_arg =
  Arg.(
    value & flag
    & info [ "devirt" ]
        ~doc:
          "Speculatively devirtualize indirect call sites whose recorded \
           target histogram is dominated by a single function: the site is \
           rewritten into $(b,if (fp == &f) f(...) else (*fp)(...)), and the \
           direct call then takes part in inline expansion.  Requires a \
           dynamic profile; a profile without value data (an old saved \
           profile, or static weights) simply speculates nothing.")

let devirt_threshold_arg =
  Arg.(
    value
    & opt float Config.default.Config.devirt_threshold
    & info [ "devirt-threshold" ] ~docv:"SHARE"
        ~doc:
          "Minimum share of a site's recorded indirect calls the dominant \
           target must hold before $(b,--devirt) speculates on it \
           (default $(b,0.8))")

let config_term =
  Term.(
    const (fun devirt devirt_threshold ->
        { Config.default with Config.devirt; devirt_threshold })
    $ devirt_arg $ devirt_threshold_arg)

(* Incremental driving: --cache DIR makes every expensive pipeline stage
   consult a content-addressed store first, so reruns over unchanged
   sources/configs skip the work entirely. *)

let cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"DIR"
        ~doc:
          "Reuse front-end, profiling, classification and inlining artifacts \
           from the content-addressed stage cache at $(docv) when their \
           inputs (source bytes, program and profile checksums, config \
           fingerprint) are unchanged, and store fresh ones for the next \
           run.  Corrupt or truncated entries are recomputed, never fatal.")

let cache_of = Option.map Impact_harness.Cache.create

let report_cache = function
  | None -> ()
  | Some c ->
    let s = Impact_support.Cstore.stats (Impact_harness.Cache.cstore c) in
    Printf.eprintf
      "impactc: cache: %d hit(s), %d miss(es), %d stored, %d corrupt, %d \
       evicted\n"
      s.Impact_support.Cstore.hits s.Impact_support.Cstore.misses
      s.Impact_support.Cstore.stores s.Impact_support.Cstore.corrupt
      s.Impact_support.Cstore.evictions

let budget_of_timeout = function
  | None -> None
  | Some t -> Some (Impact_interp.Rt.budget ~timeout_s:t ())

(* parse *)

let dump_arg =
  Arg.(
    value & flag
    & info [ "dump" ] ~doc:"Pretty-print the parsed program back as C")

let parse_cmd =
  let run src dump =
    guarded Ierr.Driver (fun () ->
        if dump then
          print_string
            (Impact_cfront.C_pp.print_program
               (Impact_cfront.Parser.parse_program (read_file src)));
        let tp = Impact_cfront.Sema.check_source (read_file src) in
        Printf.printf "%d function(s), %d global(s), %d extern(s), %d string(s)\n"
          (List.length tp.Impact_cfront.Tast.funcs)
          (List.length tp.Impact_cfront.Tast.globals)
          (List.length tp.Impact_cfront.Tast.externs)
          (Array.length tp.Impact_cfront.Tast.strings);
        List.iter
          (fun (f : Impact_cfront.Tast.tfunc) ->
            Printf.printf "  %s %s(%d params)\n"
              (Impact_cfront.Ast.string_of_ty f.Impact_cfront.Tast.f_ret)
              f.Impact_cfront.Tast.f_name
              (List.length f.Impact_cfront.Tast.f_params))
          tp.Impact_cfront.Tast.funcs)
  in
  Cmd.v (Cmd.info "parse" ~doc:"Parse and type-check a C file")
    Term.(const run $ source_arg $ dump_arg)

(* il *)

let il_cmd =
  let run src optimize =
    guarded Ierr.Driver (fun () ->
        let prog = Lower.lower_source (read_file src) in
        if optimize then ignore (Impact_opt.Driver.pre_inline prog);
        print_string (Impact_il.Il_pp.dump prog))
  in
  Cmd.v (Cmd.info "il" ~doc:"Dump the lowered intermediate language")
    Term.(const run $ source_arg $ optimize_arg)

(* run *)

let run_cmd =
  let run src input optimize timeout trace trace_format metrics_out =
    (* Execution failures (traps, exhausted budgets) are profile-stage
       errors: the program ran, the run failed — exit 4, not 5. *)
    guarded Ierr.Profile_run (fun () ->
        with_obs ~trace_format ~trace ~metrics_out (fun obs ->
            let prog =
              Obs.span obs "lower" (fun () -> Lower.lower_source (read_file src))
            in
            if optimize then
              ignore
                (Obs.span obs "pre_opt" (fun () -> Impact_opt.Driver.pre_inline prog));
            let stdin_data = match input with Some f -> read_file f | None -> "" in
            let outcome =
              Machine.run ~obs ?budget:(budget_of_timeout timeout) prog
                ~input:stdin_data
            in
            print_string outcome.Machine.output;
            Printf.eprintf "[exit %d; %s]\n" outcome.Machine.exit_code
              (Impact_interp.Counters.summary outcome.Machine.counters);
            outcome.Machine.exit_code))
    |> exit
  in
  Cmd.v (Cmd.info "run" ~doc:"Compile and execute a C file")
    Term.(
      const run $ source_arg $ input_arg $ optimize_arg $ timeout_arg
      $ trace_arg $ trace_format_arg $ metrics_out_arg)

(* profile *)

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the profile to FILE")

let profile_file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "p"; "profile" ] ~docv:"FILE"
        ~doc:"Use a saved profile instead of re-profiling")

let profile_cmd =
  let run src inputs output jobs timeout =
    guarded Ierr.Profile_run (fun () ->
        let prog = Lower.lower_source (read_file src) in
        ignore (Impact_opt.Driver.pre_inline prog);
        let inputs =
          match inputs with [] -> [ "" ] | files -> List.map read_file files
        in
        let { Profiler.profile; _ } =
          Profiler.profile ~jobs ?budget:(budget_of_timeout timeout) prog
            ~inputs
        in
        (match output with
        | Some path ->
          Profile_io.save ~checksum:(Profile_io.program_checksum prog) path
            profile;
          Printf.printf "profile written to %s\n" path
        | None -> ());
        Printf.printf "%s\n" (Profile.to_string profile);
        Array.iter
          (fun (f : Il.func) ->
            if f.Il.alive then
              Printf.printf "  %-20s weight %10.1f  size %5d  stack %5d\n" f.Il.name
                (Profile.func_weight profile f.Il.fid)
                (Il.code_size f) (Il.stack_usage f))
          prog.Il.funcs)
  in
  Cmd.v (Cmd.info "profile" ~doc:"Profile a C program over input files")
    Term.(
      const run $ source_arg $ inputs_arg $ output_arg $ jobs_arg $ timeout_arg)

(* inline *)

let inline_cmd =
  let run src inputs profile_file jobs policy config trace trace_format
      metrics_out =
    guarded Ierr.Driver (fun () ->
        with_obs ~policy ~trace_format ~trace ~metrics_out (fun obs ->
        let prog =
          Obs.span obs "lower" (fun () -> Lower.lower_source (read_file src))
        in
        ignore (Obs.span obs "pre_opt" (fun () -> Impact_opt.Driver.pre_inline prog));
        let checksum = Profile_io.program_checksum prog in
        let profile_dynamically () =
          let inputs =
            match inputs with [] -> [ "" ] | files -> List.map read_file files
          in
          Obs.span obs "profile" (fun () ->
              (Profiler.profile ~obs ~jobs prog ~inputs).Profiler.profile)
        in
        let profile =
          match profile_file with
          | None -> profile_dynamically ()
          | Some path -> (
            (* The saved profile is validated against this very program:
               a corrupt file, a checksum recorded for different IL, or a
               header naming a retired profiling mode is a typed
               profile-io error.  Strict aborts; degrade re-profiles, and
               if that fails too, falls back to static weights (no
               inlining). *)
            match Profile_io.load ~expect_checksum:checksum path with
            | Ok p -> p
            | Error e -> (
              match policy with
              | Pipeline.Strict -> raise (Ierr.Error e)
              | Pipeline.Degrade -> (
                Printf.eprintf "impactc: warning: %s; re-profiling\n"
                  (Ierr.to_string e);
                try profile_dynamically ()
                with e2 ->
                  Printf.eprintf
                    "impactc: warning: re-profiling failed (%s); using static \
                     weights (no inlining)\n"
                    (match e2 with
                    | Ierr.Error t -> Ierr.to_string t
                    | e2 -> Printexc.to_string e2);
                  Profile.static_uniform
                    ~nfuncs:(Array.length prog.Il.funcs)
                    ~nsites:prog.Il.next_site)))
        in
        let report =
          Obs.span obs "inline" (fun () -> Inliner.run ~obs ~config prog profile)
        in
        List.iter
          (fun (d : Impact_opt.Devirt.decision) ->
            Printf.printf
              "  devirtualized site %d in %s: speculating %s (%.0f%% of %.1f \
               calls)\n"
              d.Impact_opt.Devirt.d_site
              prog.Il.funcs.(d.Impact_opt.Devirt.d_caller).Il.name
              prog.Il.funcs.(d.Impact_opt.Devirt.d_target).Il.name
              (100. *. d.Impact_opt.Devirt.d_share)
              d.Impact_opt.Devirt.d_weight)
          report.Inliner.devirt;
        Printf.printf "code size: %d -> %d instructions (%+.1f%%)\n"
          report.Inliner.size_before report.Inliner.size_after
          (100.
          *. float_of_int (report.Inliner.size_after - report.Inliner.size_before)
          /. float_of_int (max report.Inliner.size_before 1));
        List.iter
          (fun (site, caller, callee) ->
            Printf.printf "  expanded site %d: %s <- %s\n" site
              prog.Il.funcs.(caller).Il.name prog.Il.funcs.(callee).Il.name)
          report.Inliner.expansion.Impact_core.Expand.expansions;
        let counts = Classify.static_summary report.Inliner.classified in
        Printf.printf
          "call sites: %d total (%d external, %d pointer, %d unsafe, %d safe)\n"
          counts.Classify.total counts.Classify.external_ counts.Classify.pointer
          counts.Classify.unsafe counts.Classify.safe))
  in
  Cmd.v
    (Cmd.info "inline" ~doc:"Profile-guided inline expansion of a C program")
    Term.(const run $ source_arg $ inputs_arg $ profile_file_arg $ jobs_arg
          $ policy_arg $ config_term $ trace_arg
          $ trace_format_arg $ metrics_out_arg)

(* bench *)

let report_degradations r =
  List.iter
    (fun (d : Pipeline.degradation) ->
      Printf.eprintf "impactc: degraded [%s] %s — %s\n"
        (Ierr.stage_name d.Pipeline.d_stage)
        d.Pipeline.d_detail d.Pipeline.d_action)
    r.Pipeline.degradations

let bench_cmd =
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NAME"
          ~doc:
            (Printf.sprintf "Benchmark name (one of: %s)"
               (String.concat ", " Impact_bench_progs.Suite.names)))
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the benchmark's table rows (Report.to_json) to $(docv)")
  in
  let run name jobs policy timeout cache_dir config trace trace_format
      metrics_out json =
    match Impact_bench_progs.Suite.find name with
    | exception Not_found ->
      Printf.eprintf "unknown benchmark '%s'\n" name;
      exit 2
    | bench ->
      guarded Ierr.Driver (fun () ->
          let cache = cache_of cache_dir in
          let r =
            with_obs ~policy ~trace_format ~trace ~metrics_out (fun obs ->
                Pipeline.run ~obs ~policy ~config ?cache ~jobs
                  ?budget:(budget_of_timeout timeout) bench)
          in
          report_degradations r;
          report_cache cache;
          (match json with
          | Some path ->
            guarded Ierr.Artifact (fun () ->
                Atomic_io.write_string path
                  (Sink.json_to_string (Impact_harness.Report.to_json [ r ])
                  ^ "\n"))
          | None -> ());
          Printf.printf "%s: code %+.0f%%, calls -%.0f%%, outputs match: %b\n"
            name
            (Pipeline.code_increase r)
            (Pipeline.call_decrease r)
            r.Pipeline.outputs_match)
  in
  Cmd.v (Cmd.info "bench" ~doc:"Run one built-in benchmark end to end")
    Term.(
      const run $ name_arg $ jobs_arg $ policy_arg $ timeout_arg
      $ cache_arg $ config_term $ trace_arg $ trace_format_arg
      $ metrics_out_arg $ json_arg)

(* Default command: the full observed pipeline over a user C file —
   `impactc --trace t.jsonl --metrics-out m.json -O file.c` compiles,
   profiles, inlines and re-profiles, with every stage in its own
   span. *)

let default_term =
  let run src inputs optimize jobs policy timeout cache_dir config trace
      trace_format metrics_out =
    match src with
    | None -> `Help (`Pager, None)
    | Some src ->
      guarded Ierr.Driver (fun () ->
          let source = read_file src in
          let bench =
            {
              Benchmark.name = Filename.basename src;
              description = "user program";
              source;
              inputs =
                (fun () ->
                  match inputs with
                  | [] -> [ "" ]
                  | files -> List.map read_file files);
            }
          in
          let cache = cache_of cache_dir in
          let r =
            with_obs ~policy ~trace_format ~trace ~metrics_out (fun obs ->
                Pipeline.run ~obs ~policy ~config ~pre_opt:optimize ?cache
                  ~jobs ?budget:(budget_of_timeout timeout) bench)
          in
          report_degradations r;
          report_cache cache;
          (match r.Pipeline.inliner.Inliner.devirt with
          | [] -> ()
          | ds -> Printf.printf "devirtualized %d indirect site(s)\n" (List.length ds));
          Printf.printf "%s\n" (Profile.to_string r.Pipeline.profile);
          Printf.printf "code size: %d -> %d instructions (%+.1f%%)\n"
            r.Pipeline.inliner.Inliner.size_before
            r.Pipeline.inliner.Inliner.size_after
            (Pipeline.code_increase r);
          Printf.printf "dynamic calls: %.0f -> %.0f per run (-%.0f%%)\n"
            r.Pipeline.profile.Profile.avg_calls
            r.Pipeline.post_profile.Profile.avg_calls
            (Pipeline.call_decrease r);
          Printf.printf "outputs match: %b\n" r.Pipeline.outputs_match);
      `Ok ()
  in
  let opt_source_arg =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"C source file")
  in
  Term.(
    ret
      (const run $ opt_source_arg $ inputs_arg $ optimize_arg $ jobs_arg
     $ policy_arg $ timeout_arg $ cache_arg $ config_term $ trace_arg
     $ trace_format_arg $ metrics_out_arg))

let () =
  Printexc.record_backtrace true;
  let doc = "profile-guided inline function expansion for C (PLDI 1989)" in
  let info = Cmd.info "impactc" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group ~default:default_term info
      [ parse_cmd; il_cmd; run_cmd; profile_cmd; inline_cmd; bench_cmd ]
  in
  (* ~catch:false so failures reach the typed handler below instead of
     cmdliner's backtrace printer; usage errors map to exit 2, typed
     errors to their taxonomy code (3 front-end, 4 profile, 5 internal),
     and the message always carries the source location when the error
     has one. *)
  match Cmd.eval_value ~catch:false group with
  | Ok (`Ok ()) -> exit 0
  | Ok (`Help | `Version) -> exit 0
  | Error (`Parse | `Term) -> exit 2
  | Error `Exn ->
    (* Only reachable under cmdliner's own catch (we pass ~catch:false,
       so this is belt-and-braces): never exit mute. *)
    prerr_endline
      "impactc: internal error: exception consumed by the command parser \
       (see the report above)";
    exit 5
  | exception Ierr.Error e ->
    Printf.eprintf "impactc: %s\n" (Ierr.to_string e);
    exit (Ierr.exit_code e)
  | exception e ->
    let bt = Printexc.get_backtrace () in
    Printf.eprintf "impactc: internal error: %s\n%s%!" (Printexc.to_string e)
      bt;
    exit 5
