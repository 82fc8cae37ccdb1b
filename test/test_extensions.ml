(* Tests for the extensions: the instruction-cache model (paper §5),
   profile serialisation (the profiler-compiler interface), and the
   topological linearisation variant. *)

module Icache = Impact_icache.Icache
module Machine = Impact_interp.Machine
module Profile = Impact_profile.Profile
module Profile_io = Impact_profile.Profile_io
module Profiler = Impact_profile.Profiler
module Linearize = Impact_core.Linearize
module Callgraph = Impact_callgraph.Callgraph
module Il = Impact_il.Il

(* ---- i-cache model ---- *)

let test_icache_basics () =
  let c = Icache.create ~size:1024 ~assoc:1 ~line_size:16 () in
  Alcotest.(check (float 0.)) "empty cache" 0. (Icache.miss_rate c);
  Icache.access c 0;
  Alcotest.(check int) "cold miss" 1 (Icache.misses c);
  Icache.access c 4;
  Icache.access c 12;
  Alcotest.(check int) "same line hits" 1 (Icache.misses c);
  Alcotest.(check int) "three accesses" 3 (Icache.accesses c);
  Icache.access c 16;
  Alcotest.(check int) "next line misses" 2 (Icache.misses c);
  Icache.reset c;
  Alcotest.(check int) "reset clears stats" 0 (Icache.accesses c)

let test_icache_conflict_direct_mapped () =
  (* Two addresses one cache-size apart conflict in a direct-mapped
     cache; alternating between them misses every time. *)
  let c = Icache.create ~size:1024 ~assoc:1 ~line_size:16 () in
  for _ = 1 to 10 do
    Icache.access c 0;
    Icache.access c 1024
  done;
  Alcotest.(check int) "all conflict misses" 20 (Icache.misses c)

let test_icache_assoc_absorbs_conflict () =
  (* The same pattern in a 2-way cache hits after the cold misses. *)
  let c = Icache.create ~size:1024 ~assoc:2 ~line_size:16 () in
  for _ = 1 to 10 do
    Icache.access c 0;
    Icache.access c 1024
  done;
  Alcotest.(check int) "only two cold misses" 2 (Icache.misses c)

let test_icache_lru () =
  let c = Icache.create ~size:64 ~assoc:2 ~line_size:16 () in
  (* Two sets; lines 0, 2, 4 all map to set 0.  With LRU, touching 0
     again before inserting 4 must evict 2, not 0. *)
  Icache.access c 0;
  Icache.access c 32;
  Icache.access c 0;
  Icache.access c 64;
  (* evicts line of addr 32 *)
  Icache.access c 0;
  Alcotest.(check int) "LRU kept the recent line" 3 (Icache.misses c)

let test_icache_validation () =
  Alcotest.(check bool) "bad sizes rejected" true
    (match Icache.create ~size:1000 ~assoc:1 ~line_size:16 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_icache_with_interpreter () =
  let src =
    {|
int step(int x) { return x * 3 + 1; }
int main() { int i, s = 0; for (i = 0; i < 200; i++) s = step(s) & 1023; return s & 0; }
|}
  in
  let prog = Testutil.compile src in
  let cache = Icache.create ~size:2048 ~assoc:1 ~line_size:16 () in
  let o = Machine.run_reference ~icache:cache prog ~input:"" in
  Alcotest.(check int) "one access per executed instruction"
    o.Machine.counters.Impact_interp.Counters.ils (Icache.accesses cache);
  (* The whole loop fits in 2KB: after warm-up everything hits. *)
  Alcotest.(check bool) "tiny program has a tiny miss rate" true
    (Icache.miss_rate cache < 0.01)

let test_icache_experiment_rows () =
  let rows =
    Impact_harness.Icache_exp.measure (Impact_bench_progs.Suite.find "grep")
  in
  Alcotest.(check int) "one row per configuration" 4 (List.length rows);
  List.iter
    (fun (r : Impact_harness.Icache_exp.row) ->
      Alcotest.(check bool) "rates are percentages" true
        (r.Impact_harness.Icache_exp.miss_before >= 0.
        && r.Impact_harness.Icache_exp.miss_before <= 100.
        && r.Impact_harness.Icache_exp.miss_after >= 0.
        && r.Impact_harness.Icache_exp.miss_after <= 100.))
    rows

(* ---- profile serialisation ---- *)

let sample_profile () =
  let src =
    {|
extern int getchar();
int tick(int x) { return x + 1; }
int main() { int c, s = 0; while ((c = getchar()) != -1) s = tick(s); return s & 0; }
|}
  in
  let prog = Testutil.compile src in
  (Profiler.profile prog ~inputs:[ "aaaa"; "bbbbbbbb" ]).Profiler.profile

let test_profile_roundtrip () =
  let p = sample_profile () in
  let p' = Profile_io.of_string_exn (Profile_io.to_string p) in
  Alcotest.(check int) "nruns" p.Profile.nruns p'.Profile.nruns;
  Alcotest.(check (array (float 1e-9))) "func weights" p.Profile.func_weight
    p'.Profile.func_weight;
  Alcotest.(check (array (float 1e-9))) "site weights" p.Profile.site_weight
    p'.Profile.site_weight;
  Alcotest.(check (float 1e-9)) "avg ILs" p.Profile.avg_ils p'.Profile.avg_ils;
  Alcotest.(check (float 1e-9)) "avg stack" p.Profile.avg_max_stack
    p'.Profile.avg_max_stack

let test_profile_parse_errors () =
  let expect_error s =
    match Profile_io.of_string s with
    | Error e ->
      Alcotest.(check string) "stage is profile-io" "profile-io"
        (Impact_support.Ierr.stage_name e.Impact_support.Ierr.stage)
    | Ok _ -> Alcotest.fail ("accepted malformed profile: " ^ s)
  in
  expect_error "";
  expect_error "not a profile";
  expect_error "impact-profile 1\nruns 0\ncounts 1 1\ntotals 1 2 3 4 5 6";
  expect_error "impact-profile 1\nruns 2\ncounts 1 1";
  (* missing totals *)
  expect_error
    "impact-profile 1\nruns 2\ntotals 1 2 3 4 5 6\ncounts 1 1\nfunc 5 1.0"
  (* fid out of bounds *)

let test_profile_tolerant_parsing () =
  let p = sample_profile () in
  let canonical = Profile_io.to_string p in
  (* DOS line endings. *)
  let crlf = String.concat "\r\n" (String.split_on_char '\n' canonical) in
  let from_crlf = Profile_io.of_string_exn crlf in
  Alcotest.(check int) "crlf: nruns" p.Profile.nruns from_crlf.Profile.nruns;
  Alcotest.(check (array (float 1e-9))) "crlf: site weights" p.Profile.site_weight
    from_crlf.Profile.site_weight;
  (* Runs of spaces between fields. *)
  let spaced =
    String.split_on_char '\n' canonical
    |> List.map (fun l -> String.concat "   " (String.split_on_char ' ' l))
    |> String.concat "\n"
  in
  let from_spaced = Profile_io.of_string_exn spaced in
  Alcotest.(check (array (float 1e-9))) "spaces: func weights" p.Profile.func_weight
    from_spaced.Profile.func_weight;
  (* Tab separators, including in the header. *)
  let tabbed = String.map (fun c -> if c = ' ' then '\t' else c) canonical in
  let from_tabbed = Profile_io.of_string_exn tabbed in
  Alcotest.(check (array (float 1e-9))) "tabs: site weights" p.Profile.site_weight
    from_tabbed.Profile.site_weight

let test_profile_atomic_save () =
  let p = sample_profile () in
  let path = Filename.temp_file "impact_profile" ".prof" in
  Profile_io.save path p;
  Alcotest.(check bool) "no temp file left behind" false
    (Sys.file_exists (path ^ ".tmp"));
  let loaded = Profile_io.load_exn path in
  Alcotest.(check int) "saved profile loads" p.Profile.nruns loaded.Profile.nruns;
  (* Overwriting goes through the same rename and replaces the content. *)
  let p2 = { p with Profile.nruns = p.Profile.nruns + 1 } in
  Profile_io.save path p2;
  let loaded2 = Profile_io.load_exn path in
  Alcotest.(check int) "overwrite replaces content" p2.Profile.nruns
    loaded2.Profile.nruns;
  Alcotest.(check bool) "overwrite leaves no temp file" false
    (Sys.file_exists (path ^ ".tmp"));
  Sys.remove path

let test_profile_drives_inlining () =
  (* A saved-and-reloaded profile must give identical inlining decisions. *)
  let src =
    {|
int hot(int x) { return x * 2; }
int main() { int i, s = 0; for (i = 0; i < 50; i++) s += hot(i); return s & 0; }
|}
  in
  let prog = Testutil.compile src in
  let { Profiler.profile; _ } = Profiler.profile prog ~inputs:[ "" ] in
  let reloaded = Profile_io.of_string_exn (Profile_io.to_string profile) in
  let config =
    { Impact_core.Config.default with program_size_limit_ratio = 3.0 }
  in
  let a = Impact_core.Inliner.run ~config prog profile in
  let b = Impact_core.Inliner.run ~config prog reloaded in
  Alcotest.(check int) "same expansions"
    (List.length a.Impact_core.Inliner.expansion.Impact_core.Expand.expansions)
    (List.length b.Impact_core.Inliner.expansion.Impact_core.Expand.expansions)

(* ---- topological linearisation ---- *)

let test_topological_order () =
  let src =
    {|
int leaf(int x) { return x; }
int mid(int x) { return leaf(x) + 1; }
int top(int x) { return mid(x) + 1; }
int main() { return top(1); }
|}
  in
  let prog = Testutil.compile src in
  let { Profiler.profile; _ } = Profiler.profile prog ~inputs:[ "" ] in
  let graph = Callgraph.build prog profile in
  let linear = Linearize.linearize ~order:Linearize.Topological graph ~seed:7 in
  let fid name = (Option.get (Il.find_func prog name)).Il.fid in
  let pos name = linear.Linearize.position.(fid name) in
  Alcotest.(check bool) "leaf before mid" true (pos "leaf" < pos "mid");
  Alcotest.(check bool) "mid before top" true (pos "mid" < pos "top");
  Alcotest.(check bool) "top before main" true (pos "top" < pos "main")

let test_topological_inlines_chain () =
  (* Under the topological order, even weight-1 chains are orderable;
     with the threshold lowered everything collapses into main. *)
  let src =
    {|
int leaf(int x) { return x + 1; }
int mid(int x) { return leaf(x) * 2; }
int main() { int i, s = 0; for (i = 0; i < 40; i++) s += mid(i); return s & 0; }
|}
  in
  let prog = Testutil.compile src in
  let { Profiler.profile; _ } = Profiler.profile prog ~inputs:[ "" ] in
  let config =
    {
      Impact_core.Config.default with
      linearization = Impact_core.Config.Lin_topological;
      program_size_limit_ratio = 4.0;
    }
  in
  let report = Impact_core.Inliner.run ~config prog profile in
  Impact_il.Il_check.check_exn report.Impact_core.Inliner.program;
  Alcotest.(check int) "both arcs expanded" 2
    (List.length report.Impact_core.Inliner.expansion.Impact_core.Expand.expansions);
  let before = Testutil.run_prog prog in
  let after = Testutil.run_prog report.Impact_core.Inliner.program in
  Alcotest.(check (pair string int)) "semantics preserved" before after

let tests =
  [
    Alcotest.test_case "icache: hits and misses" `Quick test_icache_basics;
    Alcotest.test_case "icache: direct-mapped conflicts" `Quick
      test_icache_conflict_direct_mapped;
    Alcotest.test_case "icache: associativity" `Quick test_icache_assoc_absorbs_conflict;
    Alcotest.test_case "icache: LRU replacement" `Quick test_icache_lru;
    Alcotest.test_case "icache: parameter validation" `Quick test_icache_validation;
    Alcotest.test_case "icache: interpreter integration" `Quick
      test_icache_with_interpreter;
    Alcotest.test_case "icache: experiment rows" `Slow test_icache_experiment_rows;
    Alcotest.test_case "profile_io: roundtrip" `Quick test_profile_roundtrip;
    Alcotest.test_case "profile_io: malformed inputs" `Quick test_profile_parse_errors;
    Alcotest.test_case "profile_io: tolerant parsing" `Quick
      test_profile_tolerant_parsing;
    Alcotest.test_case "profile_io: atomic save" `Quick test_profile_atomic_save;
    Alcotest.test_case "profile_io: drives inlining" `Quick test_profile_drives_inlining;
    Alcotest.test_case "linearize: topological order" `Quick test_topological_order;
    Alcotest.test_case "linearize: topological inlining" `Quick
      test_topological_inlines_chain;
  ]
