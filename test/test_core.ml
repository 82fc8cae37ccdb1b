(* Tests for the inliner core: classification, cost, linearisation,
   selection, physical expansion, and the driver. *)

module Il = Impact_il.Il
module Callgraph = Impact_callgraph.Callgraph
module Profiler = Impact_profile.Profiler
module Config = Impact_core.Config
module Classify = Impact_core.Classify
module Cost = Impact_core.Cost
module Linearize = Impact_core.Linearize
module Select = Impact_core.Select
module Expand = Impact_core.Expand
module Inliner = Impact_core.Inliner

let setup ?(inputs = [ "" ]) src =
  let prog = Testutil.compile src in
  let { Profiler.profile; _ } = Profiler.profile prog ~inputs in
  let graph = Callgraph.build prog profile in
  (prog, profile, graph)

let fid prog name = (Option.get (Il.find_func prog name)).Il.fid

(* A program exercising every classification at once. *)
let mixed_src =
  {|
extern int getchar();
int hot(int x) { return x * 2 + 1; }
int cold(int x) { return x - 1; }
int rec_big(int n) { int pad[1024]; pad[0] = n; return n <= 0 ? pad[0] : rec_big(n - 1); }
int via_ptr(int x) { return x; }
int main() {
  int i, s = 0;
  int (*fp)(int) = via_ptr;
  for (i = 0; i < 100; i++) s += hot(i);
  s += cold(1);
  s += rec_big(2);
  s += fp(3);
  s += getchar();
  return s & 0;
}
|}

let class_of classified prog ~callee =
  let target = fid prog callee in
  (List.find
     (fun c ->
       match c.Classify.c_arc.Callgraph.a_callee with
       | Callgraph.To_func f -> f = target
       | _ -> false)
     classified)
    .Classify.c_kind

let test_classification () =
  let prog, _, graph = setup mixed_src in
  let classified = Classify.classify graph Config.default in
  (match class_of classified prog ~callee:"hot" with
  | Classify.Safe -> ()
  | k -> Alcotest.fail ("hot call should be safe, got " ^ Classify.kind_name k));
  (match class_of classified prog ~callee:"cold" with
  | Classify.Unsafe Classify.Low_weight -> ()
  | _ -> Alcotest.fail "cold call should be unsafe (low weight)");
  (* rec_big: called once from main (low weight fires first in our rule
     ordering is acceptable — it must be Unsafe either way), but the self
     site inside rec_big must be self-recursion. *)
  (match class_of classified prog ~callee:"rec_big" with
  | Classify.Unsafe _ -> ()
  | _ -> Alcotest.fail "recursive call should be unsafe");
  let kinds = List.map (fun c -> c.Classify.c_kind) classified in
  Alcotest.(check bool) "a pointer site exists" true (List.mem Classify.Pointer kinds);
  Alcotest.(check bool) "an external site exists" true (List.mem Classify.External kinds);
  let s = Classify.static_summary classified in
  Alcotest.(check int) "total sites" (List.length classified) s.Classify.total;
  Alcotest.(check int) "partition covers everything" s.Classify.total
    (s.Classify.external_ + s.Classify.pointer + s.Classify.unsafe + s.Classify.safe)

let test_dynamic_summary () =
  let _, _, graph = setup mixed_src in
  let classified = Classify.classify graph Config.default in
  let total, ext, ptr, unsafe, safe = Classify.dynamic_summary classified in
  Alcotest.(check (float 0.001)) "parts sum to total" total
    (ext +. ptr +. unsafe +. safe);
  Alcotest.(check bool) "hot dominates dynamically" true (safe > 0.8 *. (total -. ext))

let test_cost_hazards () =
  let prog, _, graph = setup mixed_src in
  let est = Cost.estimates_of prog ~ratio:10. in
  let arc_to name =
    List.find
      (fun a -> a.Callgraph.a_callee = Callgraph.To_func (fid prog name))
      graph.Callgraph.arcs
  in
  let cfg = Config.default in
  Alcotest.(check bool) "hot arc is affordable" true
    (Cost.cost graph cfg est (arc_to "hot") < Cost.infinity);
  Alcotest.(check bool) "low-weight arc rejected" true
    (Cost.cost graph cfg est (arc_to "cold") = Cost.infinity);
  Alcotest.(check bool) "recursive + big stack rejected" true
    (Cost.cost graph cfg est (arc_to "rec_big") = Cost.infinity);
  (* Tiny per-function limit rejects everything. *)
  let tight = { cfg with Config.func_size_limit = 1 } in
  Alcotest.(check bool) "function size limit" true
    (Cost.cost graph tight est (arc_to "hot") = Cost.infinity);
  (* Program limit interacts with accept. *)
  let est2 = Cost.estimates_of prog ~ratio:1.02 in
  let a = arc_to "hot" in
  Alcotest.(check bool) "program bound rejects" true
    (Cost.cost graph cfg est2 a = Cost.infinity)

let test_cost_accept_updates () =
  let prog, _, graph = setup mixed_src in
  let est = Cost.estimates_of prog ~ratio:10. in
  let hot = fid prog "hot" in
  let main = prog.Il.main in
  let before_size = est.Cost.func_size.(main) in
  let before_prog = est.Cost.program_size in
  Cost.accept est ~caller:main ~callee:hot;
  Alcotest.(check int) "caller absorbs callee size"
    (before_size + est.Cost.func_size.(hot))
    est.Cost.func_size.(main);
  Alcotest.(check int) "program grows"
    (before_prog + est.Cost.func_size.(hot))
    est.Cost.program_size;
  ignore graph

let test_linearize_orders () =
  let prog, _, graph = setup mixed_src in
  let linear = Linearize.linearize graph ~seed:1 in
  let live = Array.to_list linear.Linearize.sequence in
  Alcotest.(check int) "all live functions placed" 5 (List.length live);
  Alcotest.(check int) "positions are a permutation" 5
    (List.length (List.sort_uniq compare live));
  (* hot (weight 100) must precede main (weight 1). *)
  Alcotest.(check bool) "hottest first" true
    (Linearize.allows linear ~callee:(fid prog "hot") ~caller:prog.Il.main);
  (* Same seed, same order; the random placement only breaks ties. *)
  let again = Linearize.linearize graph ~seed:1 in
  Alcotest.(check bool) "deterministic" true
    (linear.Linearize.sequence = again.Linearize.sequence);
  let reversed = Linearize.linearize ~order:Linearize.Reverse_weight graph ~seed:1 in
  Alcotest.(check bool) "reverse order flips the constraint" false
    (Linearize.allows reversed ~callee:(fid prog "hot") ~caller:prog.Il.main)

let test_select_decisions () =
  let prog, _, graph = setup mixed_src in
  let linear = Linearize.linearize graph ~seed:42 in
  let sel = Select.select graph Config.default linear in
  let callees =
    List.map (fun d -> prog.Il.funcs.(d.Select.d_callee).Il.name) sel.Select.decisions
  in
  Alcotest.(check (list string)) "only the hot arc is selected" [ "hot" ] callees;
  (* Every arc got a status. *)
  List.iter
    (fun (a : Callgraph.arc) ->
      match Select.status_of sel a.Callgraph.a_id with
      | Select.Selected | Select.Rejected | Select.Not_expandable _ -> ())
    graph.Callgraph.arcs;
  (* Heaviest-first: decisions are sorted by weight descending. *)
  let weights = List.map (fun d -> d.Select.d_weight) sel.Select.decisions in
  Alcotest.(check bool) "selection order is by weight" true
    (List.sort (fun a b -> compare b a) weights = weights)

let test_select_respects_order () =
  (* Force a reverse linearisation: nothing can be expanded since hot
     callees now come after their callers. *)
  let _, _, graph = setup mixed_src in
  let linear = Linearize.linearize ~order:Linearize.Reverse_weight graph ~seed:1 in
  let sel = Select.select graph Config.default linear in
  List.iter
    (fun (d : Select.decision) ->
      Alcotest.(check bool) "selected arcs obey the linear order" true
        (Linearize.allows linear ~callee:d.Select.d_callee ~caller:d.Select.d_caller))
    sel.Select.decisions

let test_expand_site_mechanics () =
  let src =
    {|
int add3(int a, int b, int c) { return a + b + c; }
int main() { return add3(1, 2, 3) - 6; }
|}
  in
  let prog = Testutil.compile src in
  let main_f = prog.Il.funcs.(prog.Il.main) in
  let site =
    match Il.sites_of main_f with
    | [ s ] -> s.Il.s_id
    | _ -> Alcotest.fail "expected exactly one site"
  in
  let nregs_before = main_f.Il.nregs in
  let copies = Expand.expand_site prog ~caller:main_f ~site in
  Alcotest.(check (list (pair int int))) "leaf body copies no sites" [] copies;
  Alcotest.(check bool) "register namespace grew" true (main_f.Il.nregs > nregs_before);
  Impact_il.Il_check.check_exn prog;
  Alcotest.(check int) "no call instructions remain" 0
    (List.length (Il.sites_of main_f));
  let _, code = Testutil.run_prog prog in
  Alcotest.(check int) "inlined program still computes 0" 0 code;
  (* The jump-in/jump-out artefact exists (paper §4.4). *)
  let jumps = Array.to_list main_f.Il.body
              |> List.filter (function Il.Jump _ -> true | _ -> false) in
  Alcotest.(check bool) "call/ret became jumps" true (List.length jumps >= 2)

let test_expand_fresh_sites () =
  let src =
    {|
int inner(int x) { return x + 1; }
int outer(int x) { return inner(x) * 2; }
int main() { int i, s = 0; for (i = 0; i < 40; i++) s += outer(i); return s & 0; }
|}
  in
  let prog, profile, _graph = setup src in
  let config = { Config.default with Config.program_size_limit_ratio = 5.0 } in
  let report = Inliner.run ~config prog profile in
  Impact_il.Il_check.check_exn report.Inliner.program;
  (* outer was inlined into main; outer's body contains a call to inner,
     whose copy must have a fresh site id. *)
  Alcotest.(check bool) "copied sites were recorded" true
    (report.Inliner.expansion.Expand.copied_sites = []
     || List.for_all (fun (fresh, orig, _via) -> fresh <> orig)
          report.Inliner.expansion.Expand.copied_sites)

let test_expand_multiple_sites_same_callee () =
  let src =
    {|
int sq(int x) { return x * x; }
int main() {
  int i, s = 0;
  for (i = 0; i < 30; i++) { s += sq(i); s += sq(i + 1); }
  return s & 0;
}
|}
  in
  let prog, profile, _ = setup src in
  let config = { Config.default with Config.program_size_limit_ratio = 5.0 } in
  let report = Inliner.run ~config prog profile in
  Alcotest.(check int) "both parallel arcs expanded" 2
    (List.length report.Inliner.expansion.Expand.expansions);
  let out_b = Testutil.run_prog prog in
  let out_a = Testutil.run_prog report.Inliner.program in
  Alcotest.(check (pair string int)) "semantics preserved" out_b out_a

let test_inliner_never_inlines_self_recursion () =
  let src =
    {|
int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
int main() { return fib(15) & 0; }
|}
  in
  let prog, profile, _ = setup src in
  let report = Inliner.run prog profile in
  (* The self arcs are heavy but must not be expanded. *)
  List.iter
    (fun (_, caller, callee) ->
      Alcotest.(check bool) "no self expansion" false (caller = callee))
    report.Inliner.expansion.Expand.expansions;
  let out_b = Testutil.run_prog prog in
  let out_a = Testutil.run_prog report.Inliner.program in
  Alcotest.(check (pair string int)) "recursion still works" out_b out_a

let test_inliner_respects_program_bound () =
  let prog, profile, _ = setup mixed_src in
  let config = { Config.default with Config.program_size_limit_ratio = 1.01 } in
  let report = Inliner.run ~config prog profile in
  Alcotest.(check int) "no room, no expansion" 0
    (List.length report.Inliner.expansion.Expand.expansions);
  Alcotest.(check int) "size unchanged" report.Inliner.size_before
    report.Inliner.size_after

let test_inliner_size_accounting () =
  let prog, profile, _ = setup mixed_src in
  let report = Inliner.run prog profile in
  Alcotest.(check int) "size_after matches the program"
    (Il.program_code_size report.Inliner.program)
    report.Inliner.size_after;
  Alcotest.(check int) "size_before matches the input"
    (Il.program_code_size prog) report.Inliner.size_before;
  Alcotest.(check bool) "input program not mutated" true
    (Il.program_code_size prog = report.Inliner.size_before)

let test_inliner_static_heuristics_run () =
  let prog, profile, _ = setup mixed_src in
  List.iter
    (fun heuristic ->
      let config = { Config.default with Config.heuristic } in
      let report = Inliner.run ~config prog profile in
      Impact_il.Il_check.check_exn report.Inliner.program;
      let out_b = Testutil.run_prog prog in
      let out_a = Testutil.run_prog report.Inliner.program in
      Alcotest.(check (pair string int)) "static heuristic preserves semantics" out_b
        out_a)
    [ Config.Static_leaf; Config.Static_small 30 ]

(* ---- engine equivalence and bug regressions ---- *)

let nested_src =
  {|
int inner(int x) { return x + 1; }
int outer(int x) { return inner(x) + inner(x + 2); }
int main() { int i, s = 0; for (i = 0; i < 40; i++) s += outer(i); return s & 0; }
|}

let expansion_setup src =
  let prog, _, graph = setup src in
  let config = { Config.default with Config.program_size_limit_ratio = 5.0 } in
  let linear = Linearize.linearize graph ~seed:Config.default.Config.linearize_seed in
  let sel = Select.select graph config linear in
  (prog, linear, sel)

let test_expand_engines_agree () =
  let prog, linear, sel = expansion_setup nested_src in
  Alcotest.(check bool) "something was selected" true (sel.Select.decisions <> []);
  let indexed = Il.copy_program prog in
  let r_indexed = Expand.expand_all indexed linear sel in
  let rescan = Il.copy_program prog in
  let r_rescan = Expand_rescan.expand_all rescan linear sel in
  Alcotest.(check bool) "reports agree" true (r_indexed = r_rescan);
  Alcotest.(check int) "next_site agrees" rescan.Il.next_site indexed.Il.next_site;
  Array.iteri
    (fun i (f1 : Il.func) ->
      let f2 = rescan.Il.funcs.(i) in
      Alcotest.(check bool) (f1.Il.name ^ ": bodies agree") true
        (f1.Il.body = f2.Il.body);
      Alcotest.(check int) (f1.Il.name ^ ": nregs") f2.Il.nregs f1.Il.nregs;
      Alcotest.(check int) (f1.Il.name ^ ": nlabels") f2.Il.nlabels f1.Il.nlabels;
      Alcotest.(check int) (f1.Il.name ^ ": frame") f2.Il.frame_size f1.Il.frame_size)
    indexed.Il.funcs;
  Impact_il.Il_check.check_exn indexed

let test_expand_stepwise_validity () =
  (* Replay the rescan engine one splice at a time, running the IL
     checker after every splice: each intermediate program must be
     valid, and the final program must equal the indexed engine's. *)
  let prog, linear, sel = expansion_setup nested_src in
  let indexed = Il.copy_program prog in
  ignore (Expand.expand_all indexed linear sel);
  let stepwise = Il.copy_program prog in
  let selected = Hashtbl.create 16 in
  List.iter (fun d -> Hashtbl.replace selected d.Select.d_site ()) sel.Select.decisions;
  let steps = ref 0 in
  Array.iter
    (fun fid ->
      let caller = stepwise.Il.funcs.(fid) in
      if caller.Il.alive then begin
        let continue = ref true in
        while !continue do
          match
            List.find_opt
              (fun (s : Il.site) -> Hashtbl.mem selected s.Il.s_id)
              (Il.sites_of caller)
          with
          | Some s ->
            Hashtbl.remove selected s.Il.s_id;
            ignore (Expand.expand_site stepwise ~caller ~site:s.Il.s_id);
            Impact_il.Il_check.check_exn stepwise;
            incr steps
          | None -> continue := false
        done
      end)
    linear.Linearize.sequence;
  Alcotest.(check int) "every decision expanded"
    (List.length sel.Select.decisions)
    !steps;
  Array.iteri
    (fun i (f1 : Il.func) ->
      Alcotest.(check bool) (f1.Il.name ^ ": stepwise equals indexed") true
        (f1.Il.body = stepwise.Il.funcs.(i).Il.body))
    indexed.Il.funcs

let test_stack_estimate_matches_expansion () =
  (* The selector's stack estimate after [Cost.accept] must equal the
     physical [Il.stack_usage] of the expanded caller, not just bound
     it: the Recursive_stack hazard compares it to an absolute byte
     bound. *)
  let prog, linear, sel = expansion_setup nested_src in
  Alcotest.(check bool) "something was selected" true (sel.Select.decisions <> []);
  let p = Il.copy_program prog in
  ignore (Expand.expand_all p linear sel);
  Array.iter
    (fun (f : Il.func) ->
      if f.Il.alive then
        Alcotest.(check int) (f.Il.name ^ ": stack estimate matches expansion")
          (Il.stack_usage f)
          sel.Select.estimates.Cost.func_stack.(f.Il.fid))
    p.Il.funcs

let test_stack_bound_flip () =
  (* wrapper and leaf both call an external, so [Callgraph.is_recursive]
     conservatively places them on the [$$$] cycle and the
     Recursive_stack hazard reads wrapper's stack estimate.  After
     accepting leaf into wrapper, the old estimate (raw sum of the two
     stack usages) over-reports against the physical splice; with the
     stack bound sitting exactly at the correct post-splice value, the
     exact estimate accepts where the drifted one rejects. *)
  let src =
    {|
extern int getchar();
int leaf(int n) { int buf[100]; buf[0] = n; return buf[0] + n + getchar(); }
int wrapper(int n) { int i, s = 0; for (i = 0; i < 20; i++) s += leaf(n + i); return s + getchar(); }
int main() { int i, s = 0; for (i = 0; i < 40; i++) s += wrapper(i); return s & 0; }
|}
  in
  let prog, _, graph = setup src in
  let wrapper = fid prog "wrapper" in
  let leaf = fid prog "leaf" in
  Alcotest.(check bool) "wrapper is conservatively recursive" true
    (Callgraph.is_recursive graph wrapper);
  let est = Cost.estimates_of prog ~ratio:10. in
  Cost.accept est ~caller:wrapper ~callee:leaf;
  let correct = est.Cost.func_stack.(wrapper) in
  let drifted =
    Il.stack_usage prog.Il.funcs.(wrapper) + Il.stack_usage prog.Il.funcs.(leaf)
  in
  Alcotest.(check bool) "raw stack sum over-reports" true (drifted > correct);
  let config =
    {
      Config.default with
      Config.stack_bound = correct;
      program_size_limit_ratio = 10.;
    }
  in
  let arc =
    List.find
      (fun a ->
        a.Callgraph.a_caller = prog.Il.main
        && a.Callgraph.a_callee = Callgraph.To_func wrapper)
      graph.Callgraph.arcs
  in
  (match Cost.evaluate graph config est arc with
  | Cost.Accept _ -> ()
  | Cost.Reject h ->
    Alcotest.fail ("exact estimate must accept, got " ^ Cost.hazard_name h));
  est.Cost.func_stack.(wrapper) <- drifted;
  match Cost.evaluate graph config est arc with
  | Cost.Reject Cost.Recursive_stack -> ()
  | Cost.Accept _ | Cost.Reject _ ->
    Alcotest.fail "drifted estimate must reject on the stack bound"

(* A void callee invoked with a result register.  The C front end never
   produces this shape — lowering drops the result register for void
   callees — so it is built by hand. *)
let void_ret_prog () =
  let vf =
    {
      Il.fid = 1;
      name = "vf";
      nparams = 0;
      nregs = 1;
      nlabels = 0;
      frame_size = 0;
      body = [| Il.Mov (0, Il.Imm 7); Il.Ret None |];
      alive = true;
    }
  in
  let main_f =
    {
      Il.fid = 0;
      name = "main";
      nparams = 0;
      nregs = 1;
      nlabels = 0;
      frame_size = 0;
      body =
        [|
          Il.Mov (0, Il.Imm 42);
          Il.Call (0, 1, [], Some 0);
          Il.Call_ext (1, "print_int", [ Il.Reg 0 ], None);
          Il.Ret (Some (Il.Imm 0));
        |];
      alive = true;
    }
  in
  {
    Il.funcs = [| main_f; vf |];
    globals = [||];
    strings = [||];
    externs = [ "print_int" ];
    main = 0;
    next_site = 2;
    address_taken = [];
  }

let test_void_return_inlining () =
  (* The interpreter leaves the caller's result register untouched on a
     void return; the inlined body must do the same (no invented
     [mov dst, 0]), so the program behaves identically with and without
     inlining. *)
  let reference = void_ret_prog () in
  Impact_il.Il_check.check_exn reference;
  let out_ref = Testutil.run_prog reference in
  Alcotest.(check (pair string int)) "caller register survives the call"
    ("42", 0) out_ref;
  let inlined = void_ret_prog () in
  let main_f = inlined.Il.funcs.(inlined.Il.main) in
  ignore (Expand.expand_site inlined ~caller:main_f ~site:0);
  Impact_il.Il_check.check_exn inlined;
  Alcotest.(check (pair string int)) "inlined program behaves identically"
    out_ref (Testutil.run_prog inlined)

let tests =
  [
    Alcotest.test_case "classification" `Quick test_classification;
    Alcotest.test_case "dynamic summary" `Quick test_dynamic_summary;
    Alcotest.test_case "cost hazards" `Quick test_cost_hazards;
    Alcotest.test_case "cost accept updates estimates" `Quick test_cost_accept_updates;
    Alcotest.test_case "linearisation" `Quick test_linearize_orders;
    Alcotest.test_case "selection decisions" `Quick test_select_decisions;
    Alcotest.test_case "selection respects order" `Quick test_select_respects_order;
    Alcotest.test_case "expansion mechanics" `Quick test_expand_site_mechanics;
    Alcotest.test_case "expansion freshens sites" `Quick test_expand_fresh_sites;
    Alcotest.test_case "parallel arcs to one callee" `Quick
      test_expand_multiple_sites_same_callee;
    Alcotest.test_case "self recursion never expanded" `Quick
      test_inliner_never_inlines_self_recursion;
    Alcotest.test_case "program bound respected" `Quick
      test_inliner_respects_program_bound;
    Alcotest.test_case "size accounting" `Quick test_inliner_size_accounting;
    Alcotest.test_case "static heuristics run" `Quick test_inliner_static_heuristics_run;
    Alcotest.test_case "indexed and rescan engines agree" `Quick
      test_expand_engines_agree;
    Alcotest.test_case "stepwise expansion stays valid" `Quick
      test_expand_stepwise_validity;
    Alcotest.test_case "stack estimate matches expansion" `Quick
      test_stack_estimate_matches_expansion;
    Alcotest.test_case "exact stack estimate flips the verdict" `Quick
      test_stack_bound_flip;
    Alcotest.test_case "void return inlines transparently" `Quick
      test_void_return_inlining;
  ]
