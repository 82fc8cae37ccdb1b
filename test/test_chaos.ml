(* Chaos suite: deterministic fault injection across the fault × stage
   matrix.

   For every injection point, an armed fault driven through the
   appropriate entry (the full pipeline for interpreter / pool / expand /
   sink faults, Profile_io for the serialisation faults) must end in
   exactly one typed {!Ierr.Error} under [Strict], or in a completed,
   explicitly-marked degraded run under [Degrade] — never an unhandled
   exception, a partial artifact, or a wrong inlining decision. *)

module Ierr = Impact_support.Ierr
module Fault = Impact_support.Fault
module Atomic_io = Impact_support.Atomic_io
module Profile = Impact_profile.Profile
module Profile_io = Impact_profile.Profile_io
module Profiler = Impact_profile.Profiler
module Pipeline = Impact_harness.Pipeline
module Inliner = Impact_core.Inliner
module Expand = Impact_core.Expand
module Benchmark = Impact_bench_progs.Benchmark
module Suite = Impact_bench_progs.Suite
module Il = Impact_il.Il
module Obs = Impact_obs.Obs
module Sink = Impact_obs.Sink

let bench () = Suite.find "cmp"

let run_pipeline ~policy () =
  (* A live sink so Sink_write has something to hit; memory keeps it
     self-contained. *)
  let obs = Obs.create (Sink.memory ()) in
  Pipeline.run ~obs ~policy (bench ())

(* ------------------------------------------------------------------ *)
(* The matrix                                                          *)
(* ------------------------------------------------------------------ *)

(* Strict: every pipeline-reachable point must surface as exactly one
   typed error, with the stage and message pinned. *)
let test_matrix_strict () =
  let expect point stage msg =
    Fault.with_point point ~after:0 (fun () ->
        match run_pipeline ~policy:Pipeline.Strict () with
        | _ ->
          Alcotest.failf "%s: pipeline succeeded with the fault armed"
            (Fault.point_name point)
        | exception Ierr.Error e ->
          Alcotest.(check (pair string string))
            (Fault.point_name point ^ ": stage and message")
            (Ierr.stage_name stage, msg)
            (Ierr.stage_name e.Ierr.stage, e.Ierr.msg)
        | exception e ->
          Alcotest.failf "%s: untyped exception escaped: %s"
            (Fault.point_name point) (Printexc.to_string e))
  in
  expect Fault.Pool_worker_start Ierr.Profile_run
    "injected fault at pool-worker-start";
  expect Fault.Pool_worker_finish Ierr.Profile_run
    "injected fault at pool-worker-finish";
  expect Fault.Interp_step Ierr.Profile_run "injected fault at interp-step";
  expect Fault.Expand_splice Ierr.Expand
    "while expanding into main: injected fault at expand-splice";
  expect Fault.Sink_write Ierr.Artifact "injected fault at sink-write"

(* Degrade: the same faults must yield a completed run that says how it
   degraded; faults that kill profiling must leave the no-inlining
   baseline, not a half-informed plan. *)
let test_matrix_degrade () =
  let complete point ~expect_no_inlining ~marks =
    Fault.with_point point ~after:0 (fun () ->
        match run_pipeline ~policy:Pipeline.Degrade () with
        | exception e ->
          Alcotest.failf "%s: degraded run failed: %s" (Fault.point_name point)
            (Printexc.to_string e)
        | r ->
          Alcotest.(check (list (triple string string string)))
            (Fault.point_name point ^ ": degradation marks")
            marks
            (List.map
               (fun (d : Pipeline.degradation) ->
                 ( Ierr.stage_name d.Pipeline.d_stage,
                   d.Pipeline.d_detail,
                   d.Pipeline.d_action ))
               r.Pipeline.degradations);
          if
            expect_no_inlining
            && r.Pipeline.inliner.Inliner.expansion.Expand.expansions <> []
          then
            Alcotest.failf
              "%s: inlining decisions made without a trustworthy profile"
              (Fault.point_name point);
          r)
  in
  (* A dead pool / dead worker means no profile: static fallback. *)
  let fallback point =
    [
      ( "profile-run",
        Printf.sprintf
          "profiling failed (profile-run error: injected fault at %s)" point,
        "fell back to static uniform weights (no inlining)" );
      ( "profile-run",
        "no dynamic profile to compare against",
        "re-profile skipped; post metrics are static" );
    ]
  in
  let r =
    complete Fault.Pool_worker_start ~expect_no_inlining:true
      ~marks:(fallback "pool-worker-start")
  in
  Alcotest.(check bool) "static fallback is vacuously verified" true
    r.Pipeline.outputs_match;
  ignore
    (complete Fault.Pool_worker_finish ~expect_no_inlining:true
       ~marks:(fallback "pool-worker-finish"));
  (* One failing interpreter run is retried and the retry succeeds (the
     one-shot fault is spent), so the full profile survives. *)
  let r =
    complete Fault.Interp_step ~expect_no_inlining:false
      ~marks:
        [
          ( "profile-run",
            "run on input 0 failed (profile-run error: injected fault at \
             interp-step)",
            "retried once" );
        ]
  in
  Alcotest.(check bool) "retried profile still verifies outputs" true
    r.Pipeline.outputs_match;
  (* A failing splice skips that caller but keeps the program correct. *)
  let r =
    complete Fault.Expand_splice ~expect_no_inlining:false
      ~marks:
        [
          ( "expand",
            "expansion into main failed (expand error: injected fault at \
             expand-splice)",
            "caller skipped, rest of plan kept" );
        ]
  in
  Alcotest.(check bool) "outputs still match with a skipped caller" true
    r.Pipeline.outputs_match;
  (* A broken sink is reported, not fatal. *)
  ignore
    (complete Fault.Sink_write ~expect_no_inlining:false
       ~marks:
         [
           ( "artifact",
             "trace sink failed (artifact error: injected fault at sink-write)",
             "later events dropped; run kept" );
         ])

(* A sticky interpreter fault (fires on every hit, defeating the retry)
   kills every profiling run: the degraded result must be exactly the
   no-inlining baseline, pinned by comparing IL dumps. *)
let test_degraded_equals_no_inline_baseline () =
  let r =
    Fault.with_point ~once:false Fault.Interp_step ~after:0 (fun () ->
        run_pipeline ~policy:Pipeline.Degrade ())
  in
  Alcotest.(check bool) "no expansions" true
    (r.Pipeline.inliner.Inliner.expansion.Expand.expansions = []);
  Alcotest.(check bool) "static fallback recorded" true
    (List.exists
       (fun (d : Pipeline.degradation) -> d.Pipeline.d_stage = Ierr.Profile_run)
       r.Pipeline.degradations);
  Alcotest.(check string) "inlined program is byte-identical to the baseline"
    (Impact_il.Il_pp.dump r.Pipeline.prog)
    (Impact_il.Il_pp.dump r.Pipeline.inliner.Inliner.program);
  Alcotest.(check bool) "vacuous output verification" true
    r.Pipeline.outputs_match

(* The interpreter's fault point sits at each activation entry of the
   engine production runs.  With a point armed that profiling never
   reaches (so hit counters advance), profiling cmp passes
   [Interp_step] exactly once per activation. *)
let test_interp_fault_per_activation () =
  let b = bench () in
  let prog = Impact_il.Lower.lower_source b.Benchmark.source in
  ignore (Impact_opt.Driver.pre_inline prog);
  let inputs = b.Benchmark.inputs () in
  Fault.reset ();
  Fault.with_point Fault.Devirt ~after:0 (fun () ->
      let r = Profiler.profile ~jobs:1 prog ~inputs in
      let activations =
        List.fold_left
          (fun n (o : Impact_interp.Machine.outcome) ->
            Array.fold_left ( + ) n
              o.Impact_interp.Machine.counters.Impact_interp.Counters.func_counts)
          0 r.Profiler.runs
      in
      Alcotest.(check bool) "cmp makes calls" true (activations > List.length inputs);
      Alcotest.(check int) "one Interp_step hit per activation" activations
        (Fault.hits Fault.Interp_step))

(* The devirt injection point sits at the head of the speculation pass,
   so it only fires when the config asks for devirtualization. *)
let config_devirt =
  { Impact_core.Config.default with Impact_core.Config.devirt = true }

let test_devirt_fault_strict () =
  Fault.with_point Fault.Devirt ~after:0 (fun () ->
      match
        Pipeline.run ~policy:Pipeline.Strict ~config:config_devirt (bench ())
      with
      | _ -> Alcotest.fail "devirt: pipeline succeeded with the fault armed"
      | exception Ierr.Error e ->
        Alcotest.(check string) "devirt fault surfaces as the inline stage"
          "select" (Ierr.stage_name e.Ierr.stage)
      | exception e ->
        Alcotest.failf "devirt: untyped exception escaped: %s"
          (Printexc.to_string e))

(* Sticky, so the fault would fire again on any retry that still
   speculates: the degraded pipeline must complete by retrying the
   inline stage with devirtualization disabled, on the record. *)
let test_devirt_fault_degrade () =
  let r =
    Fault.with_point ~once:false Fault.Devirt ~after:0 (fun () ->
        Pipeline.run ~policy:Pipeline.Degrade ~config:config_devirt (bench ()))
  in
  Alcotest.(check bool) "retreat to plain inlining is on the record" true
    (List.exists
       (fun (d : Pipeline.degradation) ->
         d.Pipeline.d_action = "retried with devirtualization disabled")
       r.Pipeline.degradations);
  Alcotest.(check bool) "no speculation in the degraded result" true
    (r.Pipeline.inliner.Inliner.devirt = []);
  Alcotest.(check bool) "degraded run still verifies outputs" true
    r.Pipeline.outputs_match

(* Budgets compose with the policies: an impossible per-run deadline is
   a typed profile error under Strict and a degraded no-inlining run
   under Degrade. *)
let test_budget_exhaustion_policies () =
  let budget = Impact_interp.Rt.budget ~timeout_s:1e-9 () in
  (match Pipeline.run ~policy:Pipeline.Strict ~budget (bench ()) with
  | _ -> Alcotest.fail "expected the deadline to abort the strict run"
  | exception Ierr.Error e ->
    Alcotest.(check string) "deadline is a profile-run error" "profile-run"
      (Ierr.stage_name e.Ierr.stage)
  | exception e ->
    Alcotest.failf "untyped exception escaped: %s" (Printexc.to_string e));
  let r = Pipeline.run ~policy:Pipeline.Degrade ~budget (bench ()) in
  Alcotest.(check bool) "degraded run completed with marks" true
    (r.Pipeline.degradations <> []);
  Alcotest.(check bool) "no inlining without a profile" true
    (r.Pipeline.inliner.Inliner.expansion.Expand.expansions = [])

(* ------------------------------------------------------------------ *)
(* Serialisation faults and artifact atomicity                         *)
(* ------------------------------------------------------------------ *)

let sample_profile () =
  {
    Profile.nruns = 2;
    func_weight = [| 10.; 0.5 |];
    site_weight = [| 3.; 0. |];
    vsites =
      [
        {
          Profile.vs_site = 1;
          vs_targets = [ { Profile.vt_fid = 0; vt_weight = 2.5 } ];
          vs_other = 0.5;
        };
      ];
    avg_ils = 100.;
    avg_cts = 20.;
    avg_calls = 5.;
    avg_returns = 5.;
    avg_ext_calls = 1.;
    avg_max_stack = 2.;
  }

let test_profile_read_fault () =
  let s = Profile_io.to_string (sample_profile ()) in
  Fault.with_point Fault.Profile_read ~after:0 (fun () ->
      match Profile_io.of_string s with
      | Ok _ -> Alcotest.fail "read fault not injected"
      | Error e ->
        Alcotest.(check string) "typed profile-io error" "profile-io"
          (Ierr.stage_name e.Ierr.stage));
  (* One-shot: the very next read succeeds. *)
  match Profile_io.of_string s with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "clean read failed: %s" (Ierr.to_string e)

let test_profile_write_fault_leaves_nothing () =
  let path = Filename.temp_file "impact_chaos" ".prof" in
  Sys.remove path;
  Fault.with_point Fault.Profile_write ~after:0 (fun () ->
      match Profile_io.save path (sample_profile ()) with
      | () -> Alcotest.fail "write fault not injected"
      | exception Ierr.Error e ->
        Alcotest.(check string) "typed profile-io error" "profile-io"
          (Ierr.stage_name e.Ierr.stage));
  Alcotest.(check bool) "no artifact" false (Sys.file_exists path);
  Alcotest.(check bool) "no temp file" false
    (Sys.file_exists (Atomic_io.tmp_path path))

let test_atomic_writer_discards_on_failure () =
  let path = Filename.temp_file "impact_chaos" ".json" in
  Sys.remove path;
  (match
     Atomic_io.with_file path (fun oc ->
         output_string oc "half a record";
         failwith "disk on fire")
   with
  | () -> Alcotest.fail "writer failure swallowed"
  | exception Failure _ -> ());
  Alcotest.(check bool) "no partial artifact" false (Sys.file_exists path);
  Alcotest.(check bool) "no temp file" false
    (Sys.file_exists (Atomic_io.tmp_path path));
  (* And the success path really installs the bytes. *)
  Atomic_io.write_string path "whole record";
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "content installed" "whole record" line

(* Stale-profile detection: a checksum recorded for different IL is a
   typed error, and a v1 header (no checksum) still loads.  The headers
   that recorded a profiling mode still load when it is "full" (v3, v4)
   or unrecorded (v4 "-"); test_profile_modes.ml pins the refusal of
   the retired modes. *)
let test_stale_and_legacy_profiles () =
  let p = sample_profile () in
  let ck = "0123456789abcdef0123456789abcdef" in
  let s = Profile_io.to_string ~checksum:ck p in
  (match Profile_io.of_string ~expect_checksum:"feedfacefeedfacefeedfacefeedface" s with
  | Ok _ -> Alcotest.fail "stale profile accepted"
  | Error e ->
    Alcotest.(check string) "stale is profile-io" "profile-io"
      (Ierr.stage_name e.Ierr.stage));
  (match Profile_io.of_string ~expect_checksum:ck s with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "matching checksum rejected: %s" (Ierr.to_string e));
  let with_header header =
    match String.index_opt s '\n' with
    | Some i -> header ^ String.sub s i (String.length s - i)
    | None -> Alcotest.fail "unexpected serialisation"
  in
  (* A v1 header records no checksum, so it passes any expected one. *)
  List.iter
    (fun (header, expect_checksum) ->
      match Profile_io.of_string ~expect_checksum (with_header header) with
      | Ok p' ->
        Alcotest.(check int) (header ^ " loads") p.Profile.nruns p'.Profile.nruns
      | Error e -> Alcotest.failf "%s rejected: %s" header (Ierr.to_string e))
    [
      ("impact-profile 1", "anything");
      ("impact-profile v2 " ^ ck, ck);
      ("impact-profile v3 " ^ ck ^ " full", ck);
      ("impact-profile v4 " ^ ck ^ " full", ck);
      ("impact-profile v4 " ^ ck ^ " -", ck);
    ]

(* ------------------------------------------------------------------ *)
(* Suite isolation                                                     *)
(* ------------------------------------------------------------------ *)

let test_suite_isolation () =
  let bad =
    {
      Benchmark.name = "broken";
      description = "deliberately unparsable";
      source = "int main( { return 0; }";
      inputs = (fun () -> [ "" ]);
    }
  in
  let report =
    Pipeline.run_suite_report ~benches:[ bench (); bad ] ()
  in
  (match report.Pipeline.completed with
  | [ r ] ->
    Alcotest.(check string) "survivor completed" "cmp"
      r.Pipeline.bench.Benchmark.name
  | l -> Alcotest.failf "expected one completed benchmark, got %d" (List.length l));
  match report.Pipeline.failed with
  | [ (b, e) ] ->
    Alcotest.(check string) "failure isolated" "broken" b.Benchmark.name;
    Alcotest.(check string) "failure typed as parse" "parse"
      (Ierr.stage_name e.Ierr.stage);
    Alcotest.(check bool) "location reported" true (e.Ierr.loc <> None)
  | l -> Alcotest.failf "expected one failed benchmark, got %d" (List.length l)

(* A front-end or input failure has no recovery: under either policy it
   is one typed error whose stage, location and message are pinned. *)
let test_front_end_errors () =
  let expect src ?(inputs = fun () -> [ "" ]) (stage, loc, msg) =
    let b =
      { Benchmark.name = "fe"; description = "front-end failure"; source = src;
        inputs }
    in
    List.iter
      (fun policy ->
        match Pipeline.run ~policy b with
        | _ -> Alcotest.failf "%S compiled" src
        | exception Ierr.Error e ->
          Alcotest.(check (triple string (option string) string))
            (src ^ ": stage, location, message")
            (stage, loc, msg)
            (Ierr.stage_name e.Ierr.stage, e.Ierr.loc, e.Ierr.msg);
          Alcotest.(check (pair string string))
            (src ^ ": fatal, abort") ("fatal", "abort")
            (Ierr.severity_name e.Ierr.severity, Ierr.recovery_name e.Ierr.recovery))
      [ Pipeline.Strict; Pipeline.Degrade ]
  in
  expect "int main( { return 0; }"
    ("parse", Some "1:11", "malformed parameter list");
  expect "int main() { return 0 @ 1; }"
    ("parse", Some "1:23", "unexpected character '@'");
  expect "int main() { return x; }"
    ("sema", Some "1:21", "undefined identifier 'x'");
  expect "int f(int a) { return a; }" ("sema", Some "0:0", "no 'main' function");
  expect
    "extern int print_int(int n);\n\
     int main() { int (*f)(int); f = print_int; return f(1); }"
    ("lower", None, "cannot take the address of external function 'print_int'");
  expect "int main() { return 0; }"
    ~inputs:(fun () -> failwith "no inputs today")
    ("driver", None, "no inputs today")

(* ------------------------------------------------------------------ *)
(* Seeded plans and disabled-fault hygiene                             *)
(* ------------------------------------------------------------------ *)

let test_seeded_plans_deterministic () =
  let a = Fault.plan_of_seed ~seed:42 in
  let b = Fault.plan_of_seed ~seed:42 in
  Alcotest.(check bool) "same seed, same plan" true (a = b);
  Alcotest.(check int) "plan covers every point" (List.length Fault.all_points)
    (List.length a);
  (* Drive a handful of seeded armings through the degraded pipeline:
     whatever the plan, the run completes or fails typed. *)
  List.iter
    (fun seed ->
      List.iter
        (fun (point, after) ->
          Fault.with_point point ~after (fun () ->
              match run_pipeline ~policy:Pipeline.Degrade () with
              | _ -> ()
              | exception Ierr.Error _ -> ()
              | exception e ->
                Alcotest.failf "seed %d, %s@%d: untyped exception %s" seed
                  (Fault.point_name point) after (Printexc.to_string e)))
        (Fault.plan_of_seed ~seed))
    [ 1; 7 ]

let test_disabled_faults_are_free () =
  Fault.reset ();
  Alcotest.(check bool) "nothing armed" false (Fault.enabled ());
  (* With nothing armed the hooks must be inert: a clean strict run. *)
  let r = run_pipeline ~policy:Pipeline.Strict () in
  Alcotest.(check bool) "clean run verifies" true r.Pipeline.outputs_match;
  Alcotest.(check bool) "no degradations under strict" true
    (r.Pipeline.degradations = [])

(* ------------------------------------------------------------------ *)
(* Property: corrupt bytes never escape the taxonomy                   *)
(* ------------------------------------------------------------------ *)

let prop_mutated_profiles_never_raise =
  let canonical =
    Profile_io.to_string ~checksum:(String.make 32 'a') (sample_profile ())
  in
  QCheck.Test.make ~count:500
    ~name:"profile_io: byte mutation / truncation yields Ok or typed Error"
    QCheck.(pair small_nat small_nat)
    (fun (pos, byte) ->
      let n = String.length canonical in
      let mutated =
        let b = Bytes.of_string canonical in
        Bytes.set b (pos mod n) (Char.chr (byte mod 256));
        Bytes.to_string b
      in
      let truncated = String.sub canonical 0 (pos mod (n + 1)) in
      let total s =
        match Profile_io.of_string ~expect_checksum:(String.make 32 'a') s with
        | Ok _ | Error _ -> true
        | exception _ -> false
      in
      total mutated && total truncated)

(* ------------------------------------------------------------------ *)
(* Cache faults                                                        *)
(* ------------------------------------------------------------------ *)

(* Unlike every other fault point, cache faults must be invisible even
   under [Strict]: the cache is transparent by contract — a failed read
   is a recomputed stage, a failed write is a lost reuse, never an
   error, a degradation mark, or a changed result. *)

let cache_tmp_dir () =
  let path = Filename.temp_file "impact_chaos_cache" "" in
  Sys.remove path;
  path

let test_cache_read_fault_is_transparent () =
  let dir = cache_tmp_dir () in
  let cache = Impact_harness.Cache.create dir in
  let baseline = Pipeline.run ~policy:Pipeline.Strict ~cache (bench ()) in
  (* Warm store on disk; the armed fault kills the first entry read, so
     that stage recomputes while the rest of the run keeps hitting. *)
  Fault.with_point Fault.Cache_read ~after:0 (fun () ->
      let cache = Impact_harness.Cache.create dir in
      let r = Pipeline.run ~policy:Pipeline.Strict ~cache (bench ()) in
      Alcotest.(check string) "result unchanged under a read fault"
        (Impact_il.Il_pp.dump baseline.Pipeline.inliner.Inliner.program)
        (Impact_il.Il_pp.dump r.Pipeline.inliner.Inliner.program);
      Alcotest.(check bool) "no degradations" true (r.Pipeline.degradations = []);
      let stats = Impact_support.Cstore.stats (Impact_harness.Cache.cstore cache) in
      Alcotest.(check int) "the injected read counted as corrupt" 1
        stats.Impact_support.Cstore.corrupt;
      (* The injected failure left a typed, cache-staged error behind. *)
      match Impact_support.Cstore.last_error (Impact_harness.Cache.cstore cache) with
      | Some e ->
        Alcotest.(check string) "typed cache stage" "cache"
          (Ierr.stage_name e.Ierr.stage)
      | None -> Alcotest.fail "no typed error recorded")

let test_cache_write_fault_is_transparent () =
  let dir = cache_tmp_dir () in
  Fault.with_point Fault.Cache_write ~after:0 (fun () ->
      let cache = Impact_harness.Cache.create dir in
      let r = Pipeline.run ~policy:Pipeline.Strict ~cache (bench ()) in
      Alcotest.(check bool) "pipeline completed" true
        (r.Pipeline.outputs_match && r.Pipeline.degradations = []);
      let stats = Impact_support.Cstore.stats (Impact_harness.Cache.cstore cache) in
      Alcotest.(check int) "the injected write counted" 1
        stats.Impact_support.Cstore.store_failures);
  (* The failed write left no partial entry behind: a fresh run over the
     same directory still has one stage to recompute, and succeeds. *)
  let cache = Impact_harness.Cache.create dir in
  let r = Pipeline.run ~policy:Pipeline.Strict ~cache (bench ()) in
  let stats = Impact_support.Cstore.stats (Impact_harness.Cache.cstore cache) in
  Alcotest.(check bool) "run fine over the partial store" true
    r.Pipeline.outputs_match;
  Alcotest.(check int) "exactly one stage missed" 1
    stats.Impact_support.Cstore.misses;
  Alcotest.(check int) "no corrupt entries" 0 stats.Impact_support.Cstore.corrupt

(* INDEX journal damage.  The journal is advisory: whatever happens to
   it, a reopened store hits every entry byte-identically, and its next
   append starts on a line of its own (a torn last line, a bad header or
   a missing INDEX makes [create] compact the journal first): every
   line of the journal is then a record naming an entry, or a damaged
   line that was there before. *)

module Cstore = Impact_support.Cstore

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)

let journal_payload i = Printf.sprintf "entry %d %s" i (String.make (37 * i) 'e')

let journal_key i = Printf.sprintf "k%d" i

let cache_journal_damage damage () =
  let dir = cache_tmp_dir () in
  let index = Filename.concat dir "INDEX" in
  let s = Cstore.create dir in
  for i = 0 to 5 do
    Cstore.store s ~stage:"t" ~key:(journal_key i) (journal_payload i)
  done;
  (* A hit, so the last append carries an owed hit line too. *)
  ignore (Cstore.find s ~stage:"t" ~key:(journal_key 2));
  Cstore.store s ~stage:"t" ~key:(journal_key 6) (journal_payload 6);
  let damaged = damage (read_file index) in
  (match damaged with
  | Some text -> write_file index text
  | None -> Sys.remove index);
  let s = Cstore.create dir in
  for i = 0 to 6 do
    match Cstore.find s ~stage:"t" ~key:(journal_key i) with
    | Cstore.Hit p -> Alcotest.(check string) (journal_key i) (journal_payload i) p
    | Cstore.Miss | Cstore.Corrupt _ -> Alcotest.failf "%s lost" (journal_key i)
  done;
  Cstore.store s ~stage:"t" ~key:(journal_key 7) (journal_payload 7);
  let text = read_file index in
  let lines = String.split_on_char '\n' text in
  Alcotest.(check string) "header" "impact-cache-index v1" (List.hd lines);
  Alcotest.(check bool) "INDEX ends a line" true (text.[String.length text - 1] = '\n');
  let names file l =
    match String.index_opt l ' ' with
    | Some i ->
      int_of_string_opt (String.sub l 0 i) <> None
      && String.sub l (i + 1) (String.length l - i - 1) = file
    | None -> false
  in
  let entry l = List.exists (fun i -> names ("t-" ^ journal_key i ^ ".ice") l) (List.init 8 Fun.id) in
  let was_there l =
    match damaged with
    | Some text -> List.mem l (String.split_on_char '\n' text)
    | None -> false
  in
  Alcotest.(check bool) "the next append has a line of its own" true
    (List.exists (names "t-k7.ice") lines);
  List.iter
    (fun l ->
      if not (l = "" || entry l || was_there l) then
        Alcotest.failf "journal line %S names no entry" l)
    (List.tl lines)

let journal_damage =
  let after_header text = String.index text '\n' + 1 in
  let insert extra text =
    let i = after_header text in
    String.sub text 0 i ^ extra ^ String.sub text i (String.length text - i)
  in
  let last_line text =
    let lines = String.split_on_char '\n' text in
    List.nth lines (List.length lines - 2) ^ "\n"
  in
  let body text = String.sub text (after_header text) (String.length text - after_header text) in
  [
    ("torn last line", fun text -> Some (String.sub text 0 (String.length text - 3)));
    ("garbage line", fun text -> Some (insert "not a journal line\nx t-k1.ice\n" text));
    ("duplicated line", fun text -> Some (insert (last_line text) text ^ last_line text));
    ("bad header", fun text -> Some ("impact-cache-index v0\n" ^ body text));
    ("missing INDEX", fun _ -> None);
  ]

(* Recency is in the journal, hit lines included: after a reopen the
   store evicts the entry least recently used before it closed. *)
let test_lru_survives_reopen () =
  let dir = cache_tmp_dir () in
  let put s k = Cstore.store s ~stage:"t" ~key:k (String.make 1000 'x') in
  let found s k =
    match Cstore.find s ~stage:"t" ~key:k with
    | Cstore.Hit _ -> true
    | Cstore.Miss | Cstore.Corrupt _ -> false
  in
  let s = Cstore.create dir in
  List.iter (put s) [ "A"; "B"; "C" ];
  Alcotest.(check bool) "A hit" true (found s "A");
  put s "D";
  let entry = Cstore.total_bytes s / 4 in
  (* Room for four entries: the next store evicts one. *)
  let s = Cstore.create ~max_bytes:((4 * entry) + (entry / 2)) dir in
  put s "E";
  Alcotest.(check int) "one eviction" 1 (Cstore.stats s).Cstore.evictions;
  Alcotest.(check (list bool)) "B evicted; A, C, D and E kept"
    [ false; true; true; true; true ]
    (List.map (found s) [ "B"; "A"; "C"; "D"; "E" ])

(* The Degrade re-profile path.  With one job the pool passes its
   worker-start point once per sweep, so a fault armed for the second
   pass kills only the re-profile: the pre-inline profile is clean and
   stored, the re-profile is noted and never stored, and the outputs
   stay unverified. *)
let test_degrade_reprofile_failure () =
  let obs = Obs.create (Sink.memory ()) in
  let cache = Impact_harness.Cache.create (cache_tmp_dir ()) in
  let r =
    Fault.with_point Fault.Pool_worker_start ~after:1 (fun () ->
        Pipeline.run ~obs ~policy:Pipeline.Degrade ~cache (bench ()))
  in
  Alcotest.(check (list string)) "exactly one degradation"
    [
      "[profile-run] re-profiling failed (profile-run error: injected fault \
       at pool-worker-start) -> post metrics are static; outputs unverified";
    ]
    (List.map
       (fun (d : Pipeline.degradation) ->
         Printf.sprintf "[%s] %s -> %s"
           (Ierr.stage_name d.Pipeline.d_stage)
           d.Pipeline.d_detail d.Pipeline.d_action)
       r.Pipeline.degradations);
  Alcotest.(check bool) "outputs unverified" false r.Pipeline.outputs_match;
  Alcotest.(check int) "only the pre-inline profile stored" 1
    (Impact_obs.Metrics.counter_value obs.Obs.metrics "cache.store.profile")

let tests =
  [
    Alcotest.test_case "matrix: strict yields one typed error" `Quick
      test_matrix_strict;
    Alcotest.test_case "matrix: degrade completes with marks" `Quick
      test_matrix_degrade;
    Alcotest.test_case "degraded run equals no-inline baseline" `Quick
      test_degraded_equals_no_inline_baseline;
    Alcotest.test_case "interp fault point fires once per activation" `Quick
      test_interp_fault_per_activation;
    Alcotest.test_case "devirt fault: strict yields one typed error" `Quick
      test_devirt_fault_strict;
    Alcotest.test_case "devirt fault: degrade retreats to plain inlining"
      `Quick test_devirt_fault_degrade;
    Alcotest.test_case "budget exhaustion under both policies" `Quick
      test_budget_exhaustion_policies;
    Alcotest.test_case "profile read fault is typed" `Quick
      test_profile_read_fault;
    Alcotest.test_case "profile write fault leaves no artifact" `Quick
      test_profile_write_fault_leaves_nothing;
    Alcotest.test_case "atomic writer discards on failure" `Quick
      test_atomic_writer_discards_on_failure;
    Alcotest.test_case "stale and legacy profile headers" `Quick
      test_stale_and_legacy_profiles;
    Alcotest.test_case "suite isolates a failing benchmark" `Quick
      test_suite_isolation;
    Alcotest.test_case "seeded plans are deterministic and safe" `Slow
      test_seeded_plans_deterministic;
    Alcotest.test_case "disabled faults are inert" `Quick
      test_disabled_faults_are_free;
    Alcotest.test_case "cache read fault is transparent" `Quick
      test_cache_read_fault_is_transparent;
    Alcotest.test_case "cache write fault is transparent" `Quick
      test_cache_write_fault_is_transparent;
    Alcotest.test_case "cache LRU order survives a reopen" `Quick
      test_lru_survives_reopen;
    Alcotest.test_case "degrade: re-profile failure is noted, not stored"
      `Quick test_degrade_reprofile_failure;
    Alcotest.test_case "front-end failures keep stage, location, message"
      `Quick test_front_end_errors;
  ]
  @ List.map
      (fun (name, damage) ->
        Alcotest.test_case ("cache journal: " ^ name) `Quick (cache_journal_damage damage))
      journal_damage
  @ List.map QCheck_alcotest.to_alcotest [ prop_mutated_profiles_never_raise ]
