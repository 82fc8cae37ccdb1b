module Il = Impact_il.Il
module Lower = Impact_il.Lower
module Machine = Impact_interp.Machine
module Profiler = Impact_profile.Profiler
module Profile = Impact_profile.Profile
module Profile_io = Impact_profile.Profile_io
module Callgraph = Impact_callgraph.Callgraph
module Inliner = Impact_core.Inliner
module Classify = Impact_core.Classify
module Config = Impact_core.Config
module Benchmark = Impact_bench_progs.Benchmark
module Obs = Impact_obs.Obs
module Ierr = Impact_support.Ierr

type policy = Strict | Degrade

type degradation = {
  d_stage : Ierr.stage;
  d_detail : string;
  d_action : string;
}

type result = {
  bench : Benchmark.t;
  c_lines : int;
  nruns : int;
  prog : Il.program;
  profile : Profile.t;
  classified : Classify.classified list;
  inliner : Inliner.report;
  post_profile : Profile.t;
  post_classified : Classify.classified list;
  outputs_match : bool;
  degradations : degradation list;
}

let count_c_lines src =
  String.split_on_char '\n' src
  |> List.filter (fun l -> String.trim l <> "")
  |> List.length

(* Render an exception for a degradation note: typed errors print
   themselves; anything else is classified first so the note reads like
   the Strict-mode message would ("run exceeded its wall-clock budget"
   rather than a bare constructor name). *)
let exn_detail stage = function
  | Ierr.Error e -> Ierr.to_string e
  | e -> Ierr.to_string (Errors.classify stage e)

(* Runs are compared (and cached) as (output digest, exit code) pairs:
   everything behavioural the pipeline verifies, and nothing that
   depends on timing, so a cached profile's runs unify with fresh ones. *)
let outcome_pair (o : Machine.outcome) =
  (o.Machine.output_digest, o.Machine.exit_code)

let same_outcome (da, ca) (db, cb) = String.equal da db && ca = cb

(* Tolerant profiling returns survivors in input order plus the failed
   input indices; scatter them back onto input positions so the pre- and
   post-expansion runs can be compared per input even when different
   inputs failed in each pass. *)
let scatter_runs n runs (failures : (int * exn) list) =
  let failed = Array.make n false in
  List.iter (fun (i, _) -> if i >= 0 && i < n then failed.(i) <- true) failures;
  let arr = Array.make n None in
  let rem = ref runs in
  for i = 0 to n - 1 do
    if not failed.(i) then
      match !rem with
      | r :: tl ->
        arr.(i) <- Some r;
        rem := tl
      | [] -> ()
  done;
  arr

let run ?(obs = Obs.null) ?(policy = Strict) ?(config = Config.default)
    ?(pre_opt = true) ?(post_cleanup = false) ?cache ?jobs ?budget
    (bench : Benchmark.t) =
  let degradations = ref [] in
  let note d_stage d_detail d_action =
    degradations := { d_stage; d_detail; d_action } :: !degradations;
    Obs.instant obs ~kind:"degrade"
      ~attrs:
        [
          ("stage", Impact_obs.Sink.String (Ierr.stage_name d_stage));
          ("action", Impact_obs.Sink.String d_action);
          ("detail", Impact_obs.Sink.String d_detail);
        ]
      "pipeline.degraded"
  in
  (* Every step of the pipeline: [f] runs in a span called [name], and
     an exception escaping it surfaces as a typed error of [err] (an
     already-typed one passes through, so the innermost step wins). *)
  let step err ?attrs name f =
    Errors.guard err (fun () -> Obs.span obs ?attrs name f)
  in
  let stage_attrs name = [ ("stage", Impact_obs.Sink.String name) ] in
  (* The one place the stage cache is read or written.  Without a cache
     (or for an uncacheable stage) [compute] simply runs: no key, and so
     no checksum, is ever computed.  With one, [key] (the digests of the
     key's parts) is forced once and serves both the lookup and the
     store.  A result is stored only when computing it noted no
     degradation: a cached artifact always replays a clean computation,
     never a recovered one whose notes would silently vanish on reuse.
     Building the key, the lookup and the store are steps of their own,
     tagged with the stage. *)
  let stage name ?(cacheable = true) ?(on_hit = ignore) ~key compute =
    match cache with
    | Some c when cacheable -> (
      let attrs = stage_attrs name in
      let key =
        step Ierr.Cache ~attrs "cache.key" (fun () ->
            Cache.key_of_digests (key ()))
      in
      match
        step Ierr.Cache ~attrs "cache.find" (fun () ->
            Cache.find c obs ~stage:name ~key)
      with
      | Some v ->
        on_hit ();
        v
      | None ->
        let since = List.length !degradations in
        let v = compute () in
        if List.length !degradations = since then
          step Ierr.Cache ~attrs "cache.store" (fun () ->
              Cache.put c obs ~stage:name ~key v);
        v)
    | _ -> compute ()
  in
  let digest part =
    Obs.incr obs ~by:(String.length part) "cache.key_bytes";
    Digest.string part
  in
  (* The content checksum of stage [name]'s output, which keys later
     stages.  Only a cache ever builds a key, so without one no checksum
     is computed and the result is "". *)
  let checksum name f v =
    match cache with
    | None -> ""
    | Some _ ->
      Obs.incr obs "cache.checksum";
      step Ierr.Cache ~attrs:(stage_attrs name) "checksum" (fun () -> f v)
  in
  (* A stage whose output a later key depends on: the payload carries
     the output's checksum, so a hit reads it back instead of
     recomputing it from the artifact. *)
  let summed name ?cacheable ?on_hit ~sum ~key compute =
    stage name ?cacheable ?on_hit ~key (fun () ->
        let v = compute () in
        (v, checksum name sum v))
  in
  Obs.span obs "pipeline"
    ~attrs:[ ("benchmark", Impact_obs.Sink.String bench.Benchmark.name) ]
    (fun () ->
      (* Front end (parse + sema + lower + pre-inline optimisation) is a
         pure function of the source text and the [pre_opt] switch. *)
      let prog, prog_sum =
        summed "front" ~sum:Profile_io.program_checksum
          ~key:(fun () ->
            List.map digest
              [ "front"; bench.Benchmark.source; string_of_bool pre_opt ])
          (fun () ->
            let ast =
              step Ierr.Parse "parse" (fun () ->
                  Impact_cfront.Parser.parse_program bench.Benchmark.source)
            in
            let tast =
              step Ierr.Sema "sema" (fun () -> Impact_cfront.Sema.check ast)
            in
            let prog = step Ierr.Lower "lower" (fun () -> Lower.lower tast) in
            Obs.gauge_int obs "il.size_lowered" (Il.program_code_size prog);
            (* The paper's setup: constant folding and jump optimisation
               run before inline expansion. *)
            if pre_opt then
              ignore
                (step Ierr.Lower "pre_opt" (fun () ->
                     Impact_opt.Driver.pre_inline prog));
            prog)
      in
      Obs.gauge_int obs "il.size_pre_inline" (Il.program_code_size prog);
      let inputs =
        step Ierr.Driver "inputs" (fun () -> bench.Benchmark.inputs ())
      in
      let nfuncs = Array.length prog.Il.funcs in
      (* Key parts shared by several keys, each computed at most once and
         only when a key needs it. *)
      let input_digests = lazy (List.map digest inputs) in
      let config_fp = lazy (Config.fingerprint config) in
      (* One profiling pass, for the pre-inline profile and the re-profile
         alike.  A profile entry is keyed by the constant part
         "profile-threaded" and "mode-full" (both kept byte for byte, so
         existing keys and keys that tools rebuild still match), the
         program's checksum and the raw input bytes; the payload carries
         the averaged profile and its checksum plus each run's (digest,
         exit code) pair, so a warm rerun can still verify outputs
         without executing anything.
         A wall-clock budget can truncate runs non-deterministically, so
         profiles collected under one are never cached.

         The policy only sets tolerance.  Under [Strict] the first
         failing run raises a typed error.  Under [Degrade] a failing run
         is retried once and then dropped from the average, each step
         noted, and a pass that fails outright is noted with [fallback]
         and yields [None].  Only counters and digests are consumed
         downstream, so no pass holds every run's output text. *)
      let profile_pass ~span ~runs_name ~average ~pass_name ~fallback p sum =
        let failures = ref [] in
        match
          summed "profile"
            ~cacheable:(budget = None)
            ~sum:(fun (profile, _) -> Profile_io.profile_checksum profile)
            ~key:(fun () ->
              List.map digest
                [
                  "profile-threaded";
                  "mode-" ^ Impact_profile.Coverage.(mode_name Full);
                  sum;
                ]
              @ Lazy.force input_digests)
            (fun () ->
              let r =
                step Ierr.Profile_run span (fun () ->
                    Profiler.profile ?budget ~obs ?jobs ~keep_outputs:false
                      ~tolerant:(policy = Degrade)
                      ~on_retry:(fun i e ->
                        note Ierr.Profile_run
                          (Printf.sprintf "%s on input %d failed (%s)" runs_name
                             i
                             (exn_detail Ierr.Profile_run e))
                          "retried once")
                      p ~inputs)
              in
              failures := r.Profiler.failures;
              List.iter
                (fun (i, e) ->
                  note Ierr.Profile_run
                    (Printf.sprintf "%s on input %d failed after retry (%s)"
                       runs_name i
                       (exn_detail Ierr.Profile_run e))
                    ("dropped from " ^ average))
                r.Profiler.failures;
              (r.Profiler.profile, List.map outcome_pair r.Profiler.runs))
        with
        | (profile, pairs), profile_sum ->
          Some ((profile, profile_sum), pairs, !failures)
        | exception e when policy = Degrade ->
          note Ierr.Profile_run
            (Printf.sprintf "%s failed (%s)" pass_name
               (exn_detail Ierr.Profile_run e))
            fallback;
          None
      in
      (* Classification depends on the program, the profile's content,
         the config, and which pointer-target analysis actually ran (the
         post pass never refines, whatever the config says). *)
      let classify ~tag ~span ~graph_span ~refine ~sum ~profile_sum p profile
          =
        stage "classify"
          ~key:(fun () ->
            List.map digest
              [ "classify"; tag; sum; profile_sum; Lazy.force config_fp;
                string_of_bool refine ])
          (fun () ->
            let graph =
              step Ierr.Callgraph graph_span (fun () ->
                  Callgraph.build ~refine_pointer_targets:refine p profile)
            in
            step Ierr.Select span (fun () ->
                Classify.classify ~obs ~stage:("classify." ^ tag) graph config))
      in
      (* The static fallback for [p], with its checksum like a profiling
         pass's. *)
      let static_profile p =
        let s =
          Profile.static_uniform ~nfuncs:(Array.length p.Il.funcs)
            ~nsites:p.Il.next_site
        in
        (s, checksum "profile" Profile_io.profile_checksum s)
      in
      let static_fallback, (profile, profile_sum), runs, pre_failures =
        match
          profile_pass ~span:"profile" ~runs_name:"run"
            ~average:"profile average" ~pass_name:"profiling"
            ~fallback:"fell back to static uniform weights (no inlining)" prog
            prog_sum
        with
        | Some (profiled, runs, failures) -> (false, profiled, runs, failures)
        | None -> (true, static_profile prog, [], [])
      in
      let classified =
        classify ~tag:"pre" ~span:"classify" ~graph_span:"callgraph"
          ~refine:config.Config.refine_pointer_targets ~sum:prog_sum
          ~profile_sum prog profile
      in
      (* Expansion failures are typed at the source: in Strict they abort
         with a caller-naming [Expand] error; in Degrade the caller is
         skipped, logged as a decision, and the rest of the plan kept. *)
      let on_expand_error fid exn =
        let fname =
          if fid >= 0 && fid < nfuncs then prog.Il.funcs.(fid).Il.name
          else string_of_int fid
        in
        match policy with
        | Strict ->
          let e = Errors.classify Ierr.Expand exn in
          raise
            (Ierr.Error
               {
                 e with
                 Ierr.msg =
                   Printf.sprintf "while expanding into %s: %s" fname e.Ierr.msg;
               })
        | Degrade ->
          note Ierr.Expand
            (Printf.sprintf "expansion into %s failed (%s)" fname
               (exn_detail Ierr.Expand exn))
            "caller skipped, rest of plan kept"
      in
      (* Selection + expansion is a pure function of the program, the
         profile's content and the config; the cached payload is the
         whole report (expanded program included), so a hit skips
         linearisation, selection, expansion and DCE in one step. *)
      let inliner, post_sum =
        summed "inline"
          ~sum:(fun r -> Profile_io.program_checksum r.Inliner.program)
          ~key:(fun () ->
            List.map digest
              [ "inline"; prog_sum; profile_sum; Lazy.force config_fp;
                string_of_bool post_cleanup ])
          ~on_hit:(fun () ->
            Obs.instant obs ~kind:"decision"
              ~attrs:
                [
                  ("benchmark", Impact_obs.Sink.String bench.Benchmark.name);
                  ("config", Impact_obs.Sink.String (Lazy.force config_fp));
                  ("profile", Impact_obs.Sink.String profile_sum);
                ]
              "inline.cached")
          (fun () ->
            let run_inliner config =
              step Ierr.Select "inline" (fun () ->
                  Inliner.run ~obs ~config ~on_expand_error prog profile)
            in
            let r =
              match policy with
              | Strict -> run_inliner config
              | Degrade when not config.Config.devirt -> run_inliner config
              | Degrade -> (
                (* Devirtualization is optional speculation: a failure
                   inside the speculating inliner degrades to the plain
                   one rather than killing the run. *)
                try run_inliner config
                with Ierr.Error e ->
                  note e.Ierr.stage
                    (Printf.sprintf "inlining with devirt failed (%s)"
                       e.Ierr.msg)
                    "retried with devirtualization disabled";
                  run_inliner { config with Config.devirt = false })
            in
            if post_cleanup then
              ignore
                (step Ierr.Lower "post_opt" (fun () ->
                     Impact_opt.Driver.post_inline_cleanup r.Inliner.program));
            r)
      in
      Obs.gauge_int obs "il.size_post_inline"
        (Il.program_code_size inliner.Inliner.program);
      let post_prog = inliner.Inliner.program in
      (* Positional comparison of pre- and post-expansion runs; under
         Degrade the two passes may have dropped different inputs, so
         failures are scattered back onto input positions first. *)
      let compare_runs post_pairs post_failures =
        let n = List.length inputs in
        let pre = scatter_runs n runs pre_failures in
        let post = scatter_runs n post_pairs post_failures in
        let matches = ref true in
        for i = 0 to n - 1 do
          match (pre.(i), post.(i)) with
          | Some a, Some b -> if not (same_outcome a b) then matches := false
          | None, None -> () (* failed both times: nothing to compare *)
          | _ -> matches := false (* behaviour diverged under expansion *)
        done;
        !matches
      in
      let (post_profile, post_profile_sum), outputs_match =
        if static_fallback then (
          (* No dynamic behaviour was ever observed; the expanded program
             equals the no-inlining baseline, so re-running it could only
             repeat the original failure. *)
          note Ierr.Profile_run "no dynamic profile to compare against"
            "re-profile skipped; post metrics are static";
          (static_profile post_prog, true))
        else
          match
            profile_pass ~span:"re_profile" ~runs_name:"re-profile run"
              ~average:"post-inline average" ~pass_name:"re-profiling"
              ~fallback:"post metrics are static; outputs unverified" post_prog
              post_sum
          with
          | Some (post_profiled, post_pairs, post_failures) ->
            (post_profiled, compare_runs post_pairs post_failures)
          | None -> (static_profile post_prog, false)
      in
      let post_classified =
        classify ~tag:"post" ~span:"post_classify" ~graph_span:"post_callgraph"
          ~refine:false ~sum:post_sum
          ~profile_sum:post_profile_sum post_prog post_profile
      in
      let c_lines = count_c_lines bench.Benchmark.source in
      Obs.gauge_int obs "pipeline.c_lines" c_lines;
      Obs.gauge_int obs "pipeline.nruns" (List.length inputs);
      (* A broken trace sink never took the computation down (sinks fail
         open); decide its severity now that the result is in hand. *)
      (match Impact_obs.Sink.broken (Obs.sink obs) with
      | None -> ()
      | Some e -> (
        match policy with
        | Strict -> raise (Ierr.Error (Errors.classify Ierr.Artifact e))
        | Degrade ->
          note Ierr.Artifact
            (Printf.sprintf "trace sink failed (%s)" (exn_detail Ierr.Artifact e))
            "later events dropped; run kept"));
      (match cache with Some c -> Cache.publish c obs | None -> ());
      {
        bench;
        c_lines;
        nruns = List.length inputs;
        prog;
        profile;
        classified;
        inliner;
        post_profile;
        post_classified;
        outputs_match;
        degradations = List.rev !degradations;
      })

let run_suite ?obs ?config ?post_cleanup ?cache ?jobs () =
  (* Parallelism fans out across benchmarks — coarse sharding: one
     domain owns a benchmark pipeline end-to-end, and each benchmark's
     own profiling stays sequential (inner ?jobs unset) so domains are
     not oversubscribed.  The pool preserves suite order.  One cache is
     shared by all workers (the store is mutex-protected). *)
  Impact_support.Pool.map_list ?jobs
    (fun b -> run ?obs ?config ?post_cleanup ?cache b)
    Impact_bench_progs.Suite.all

type suite_report = {
  completed : result list;
  failed : (Benchmark.t * Ierr.t) list;
}

let run_suite_report ?obs ?cache ?(benches = Impact_bench_progs.Suite.all) () =
  let outcomes =
    Impact_support.Pool.map_list_results
      (fun b -> run ?obs ~policy:Degrade ?cache b)
      benches
  in
  let completed, failed =
    List.fold_left2
      (fun (ok, bad) b outcome ->
        match outcome with
        | Ok r -> (r :: ok, bad)
        | Error e -> (ok, (b, Errors.classify Ierr.Driver e) :: bad))
      ([], []) benches outcomes
  in
  { completed = List.rev completed; failed = List.rev failed }

let code_increase r =
  let before = float_of_int r.inliner.Inliner.size_before in
  (* Measure the program as it stands, so a post-inline clean-up pass is
     reflected in the growth number. *)
  let after = float_of_int (Il.program_code_size r.inliner.Inliner.program) in
  if before = 0. then 0. else 100. *. (after -. before) /. before

let call_decrease r =
  let before = r.profile.Profile.avg_calls in
  let after = r.post_profile.Profile.avg_calls in
  if before = 0. then 0. else 100. *. (before -. after) /. before

let ils_per_call r =
  let calls = r.post_profile.Profile.avg_calls in
  if calls = 0. then r.post_profile.Profile.avg_ils
  else r.post_profile.Profile.avg_ils /. calls

let cts_per_call r =
  let calls = r.post_profile.Profile.avg_calls in
  if calls = 0. then r.post_profile.Profile.avg_cts
  else r.post_profile.Profile.avg_cts /. calls
