(* Optimisation-pass tests: unit checks on rewrites plus semantic
   preservation on concrete programs. *)

module Il = Impact_il.Il
module Const_fold = Impact_opt.Const_fold
module Copy_prop = Impact_opt.Copy_prop
module Dce = Impact_opt.Dce
module Jump_opt = Impact_opt.Jump_opt
module Driver = Impact_opt.Driver

let preserved name pass ?(input = "") src =
  let plain = Testutil.compile src in
  let optimized = Testutil.compile src in
  let _ = pass optimized in
  Impact_il.Il_check.check_exn optimized;
  let out_a = Testutil.run_prog ~input plain in
  let out_b = Testutil.run_prog ~input optimized in
  Alcotest.(check (pair string int)) name out_a out_b

let corpus =
  [
    "int main() { int x = 2 + 3 * 4; return x - 14; }";
    "int main() { int a = 5; int b = a; int c = b + b; return c - 10; }";
    {|
extern int print_int(int n);
int main() {
  int i, s = 0;
  for (i = 0; i < 20; i++) { if (i % 3 == 0) s += i; else s -= 1; }
  print_int(s);
  return 0;
}
|};
    {|
extern int getchar();
extern int putchar(int c);
int main() { int c; while ((c = getchar()) != -1) putchar(c + 1); return 0; }
|};
    {|
extern int print_int(int n);
int f(int x) { return x * 2; }
int main() { print_int(f(3) + f(4)); return 0; }
|};
  ]

let all_passes =
  [
    ("const_fold", Const_fold.fold);
    ("copy_prop", Copy_prop.propagate);
    ("dce", Dce.eliminate);
    ("jump_opt", Jump_opt.optimize);
    ("pre_inline", Driver.pre_inline);
    ("post_cleanup", Driver.post_inline_cleanup);
  ]

let test_passes_preserve_semantics () =
  List.iter
    (fun (name, pass) ->
      List.iteri
        (fun i src ->
          preserved (Printf.sprintf "%s on corpus[%d]" name i) pass ~input:"abc" src)
        corpus)
    all_passes

let test_const_fold_folds () =
  let prog = Testutil.compile "int main() { return 2 + 3 * 4; }" in
  let n = Const_fold.fold prog in
  Alcotest.(check bool) "some folds happened" true (n > 0);
  let f = prog.Il.funcs.(prog.Il.main) in
  let has_bin = Array.exists (function Il.Bin _ -> true | _ -> false) f.Il.body in
  Alcotest.(check bool) "constant arithmetic disappeared" false has_bin

let test_const_fold_keeps_div_by_zero () =
  let prog = Testutil.compile "int main() { int z = 0; return 5 / z; }" in
  ignore (Driver.pre_inline prog);
  match Impact_interp.Machine.run prog ~input:"" with
  | exception Impact_interp.Machine.Trap _ -> ()
  | _ -> Alcotest.fail "folding must not erase a division-by-zero trap"

let test_copy_prop_rewrites () =
  let prog =
    Testutil.compile "int main() { int a = 1; int b = a; int c = b; return c; }"
  in
  let n = Copy_prop.propagate prog in
  Alcotest.(check bool) "copies propagated" true (n > 0)

let test_dce_removes_dead_code () =
  (* The chain dead -> dead2 is acyclic, so iterated DCE removes both;
     a self-referential chain (dead = dead * 2) would survive the
     read-anywhere approximation by design. *)
  let prog =
    Testutil.compile
      "int main() { int dead = 12345; int dead2 = dead * 2; int live = 1; return live; }"
  in
  let removed = Dce.eliminate prog in
  Alcotest.(check bool) "dead assignments removed" true (removed >= 2);
  let out, code = Testutil.run_prog prog in
  Alcotest.(check (pair string int)) "behaviour kept" ("", 1) (out, code)

let test_dce_keeps_stores_and_calls () =
  let prog =
    Testutil.compile
      {|
extern int putchar(int c);
int g;
int main() { g = 7; putchar('x'); return 0; }
|}
  in
  let _ = Dce.eliminate prog in
  let out, _ = Testutil.run_prog prog in
  Alcotest.(check string) "side effects preserved" "x" out

let test_jump_opt_shrinks_inlined_code () =
  (* Inline expansion introduces jump-in/jump-out pairs; jump_opt must be
     able to clean them up (the paper's §4.4 remark). *)
  let src =
    {|
extern int print_int(int n);
int inc(int x) { return x + 1; }
int main() { int i, s = 0; for (i = 0; i < 50; i++) s = inc(s); print_int(s); return 0; }
|}
  in
  let prog = Testutil.compile src in
  let { Impact_profile.Profiler.profile; _ } =
    Impact_profile.Profiler.profile prog ~inputs:[ "" ]
  in
  let config =
    { Impact_core.Config.default with program_size_limit_ratio = 3.0 }
  in
  let report = Impact_core.Inliner.run ~config prog profile in
  let inlined = report.Impact_core.Inliner.program in
  let before = Il.program_code_size inlined in
  let changes = Driver.post_inline_cleanup inlined in
  Impact_il.Il_check.check_exn inlined;
  Alcotest.(check bool) "cleanup did something" true (changes > 0);
  Alcotest.(check bool) "code shrank" true (Il.program_code_size inlined < before);
  let out, _ = Testutil.run_prog inlined in
  Alcotest.(check string) "behaviour kept" "50" out

let test_jump_opt_constant_branches () =
  let prog =
    Testutil.compile "int main() { if (1) return 5; else return 6; }"
  in
  ignore (Driver.pre_inline prog);
  Impact_il.Il_check.check_exn prog;
  let _, code = Testutil.run_prog prog in
  Alcotest.(check int) "constant branch folded correctly" 5 code

(* A branch to a label outside [0, nlabels), or a label defined there, is
   left for the pre_opt boundary check, which names the pass and the
   label: run as [Pipeline.run]'s pre_opt step runs it, jump_opt must
   not fail first on an array access that names no pass. *)
let test_jump_opt_leaves_out_of_range_labels () =
  let module Ierr = Impact_support.Ierr in
  List.iter
    (fun (case, plant, expected) ->
      let prog =
        Testutil.compile
          "int main() { int i, s = 0; for (i = 0; i < 3; i++) s += i; return s; }"
      in
      let main = prog.Il.funcs.(prog.Il.main) in
      let n = main.Il.nlabels in
      main.Il.body <- Array.append (plant n) main.Il.body;
      match
        Impact_harness.Errors.guard Ierr.Lower (fun () ->
            ignore (Driver.pre_inline prog);
            Impact_il.Il_check.verify ~stage:Ierr.Lower ~pass:"pre_opt" prog)
      with
      | () -> Alcotest.failf "%s: ill-formed IL passed the check" case
      | exception Ierr.Error e ->
        Alcotest.(check string) case (expected n) (Ierr.to_string e))
    [
      ( "jump to L<nlabels>",
        (fun n -> [| Il.Jump n |]),
        Printf.sprintf
          "lower error: ill-formed IL after pre_opt: in main at instruction 0: no label L%d" );
      ( "jump to L-1",
        (fun _ -> [| Il.Jump (-1) |]),
        fun _ ->
          "lower error: ill-formed IL after pre_opt: in main at instruction 0: no label L-1" );
      ( "label L<nlabels> defined",
        (fun n -> [| Il.Bnz (Il.Reg 0, n); Il.Label n |]),
        Printf.sprintf
          "lower error: ill-formed IL after pre_opt: in main at instruction 1: label L%d out \
           of range" );
    ]

let tests =
  [
    Alcotest.test_case "all passes preserve semantics" `Quick
      test_passes_preserve_semantics;
    Alcotest.test_case "const_fold folds arithmetic" `Quick test_const_fold_folds;
    Alcotest.test_case "const_fold keeps traps" `Quick test_const_fold_keeps_div_by_zero;
    Alcotest.test_case "copy_prop rewrites" `Quick test_copy_prop_rewrites;
    Alcotest.test_case "dce removes dead code" `Quick test_dce_removes_dead_code;
    Alcotest.test_case "dce keeps side effects" `Quick test_dce_keeps_stores_and_calls;
    Alcotest.test_case "jump_opt cleans inlined jumps" `Quick
      test_jump_opt_shrinks_inlined_code;
    Alcotest.test_case "jump_opt folds constant branches" `Quick
      test_jump_opt_constant_branches;
    Alcotest.test_case "jump_opt leaves out-of-range labels to the check" `Quick
      test_jump_opt_leaves_out_of_range_labels;
  ]
