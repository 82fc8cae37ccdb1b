(* C-level semantics-preservation fuzzing.

   A seeded generator emits small well-typed C programs exercising the
   whole accepted subset — scalars, global and local arrays, for/while
   loops, direct calls, self-recursion, and calls through a function-
   pointer table — and pushes each one through the real Cfront pipeline
   (parse → sema → lower).  The locked-down property: the interpreter's
   output bytes and exit status are identical with inlining off and on,
   and across the Threaded and Reference engines, for every program.

   Termination by construction: every function takes a depth parameter
   [d], begins with a [d <= 0] base case, and every call site passes
   [d - 1]; loops have fixed bounds; division and modulus are guarded
   ([x / (1 + ((y) & 15))]); array subscripts are masked to the array
   size.  So no generated program can trap, hang, or overflow the
   control stack, and any failure the suite reports is a genuine
   semantics divergence. *)

module Il = Impact_il.Il
module Machine = Impact_interp.Machine
module Rng = Impact_support.Rng
module Config = Impact_core.Config
module Inliner = Impact_core.Inliner
module Profiler = Impact_profile.Profiler

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

(* Arrays in scope: (name, index mask), so a subscript is always
   [name[(e) & mask]] with mask below the declared size. *)
let gen_expr rng ~arrays ~vars depth =
  let buf = Buffer.create 64 in
  let rec go depth =
    if depth = 0 || Rng.chance rng 2 5 then
      match Rng.int rng 4 with
      | 0 -> Buffer.add_string buf (Testutil.gen_literal rng)
      | 1 | 2 -> Buffer.add_string buf (Rng.choose rng vars)
      | _ ->
        let name, mask = Rng.choose rng arrays in
        Buffer.add_string buf (Printf.sprintf "%s[(" name);
        go 0;
        Buffer.add_string buf (Printf.sprintf ") & %d]" mask)
    else
      let op =
        Rng.choose rng [| "+"; "-"; "*"; "&"; "|"; "^"; "<"; "=="; "/"; "%" |]
      in
      match op with
      | "/" | "%" ->
        (* Guarded: the divisor is always in 1..16. *)
        Buffer.add_char buf '(';
        go (depth - 1);
        Buffer.add_string buf (Printf.sprintf " %s (1 + ((" op);
        go (depth - 1);
        Buffer.add_string buf ") & 15)))"
      | op ->
        Buffer.add_char buf '(';
        go (depth - 1);
        Buffer.add_string buf (Printf.sprintf " %s " op);
        go (depth - 1);
        Buffer.add_char buf ')'
  in
  go depth;
  Buffer.contents buf

(* Statements inside function [i] of [nfuncs]: assignments to scalars
   and array slots, if/else, bounded for loops, and calls to any
   [f<j>] with [j <= i] — [j = i] is self-recursion — always passing
   [d - 1]. *)
let gen_stmts rng ~self ~arrays ~vars ~writable =
  let buf = Buffer.create 256 in
  let expr depth = gen_expr rng ~arrays ~vars depth in
  let call () =
    let callee = Rng.int rng (self + 1) in
    Printf.sprintf "f%d(%s, %s, d - 1)" callee (expr 1) (expr 1)
  in
  let nstmts = Rng.range rng 2 6 in
  for _ = 1 to nstmts do
    let lhs = Rng.choose rng writable in
    match Rng.int rng 6 with
    | 0 -> Buffer.add_string buf (Printf.sprintf "  %s = %s;\n" lhs (expr 3))
    | 1 ->
      let name, mask = Rng.choose rng arrays in
      Buffer.add_string buf
        (Printf.sprintf "  %s[(%s) & %d] = %s;\n" name (expr 1) mask (expr 2))
    | 2 ->
      Buffer.add_string buf
        (Printf.sprintf "  if (%s) { %s = %s; } else { %s = %s; }\n" (expr 2)
           lhs (expr 2) lhs (expr 2))
    | 3 ->
      let bound = Rng.range rng 1 6 in
      Buffer.add_string buf
        (Printf.sprintf "  for (it = 0; it < %d; it = it + 1) { %s = %s + it; }\n"
           bound lhs (expr 2))
    | 4 -> Buffer.add_string buf (Printf.sprintf "  %s = %s;\n" lhs (call ()))
    | _ ->
      Buffer.add_string buf
        (Printf.sprintf "  if (%s) { %s = %s + %s; }\n" (expr 1) lhs lhs
           (call ()))
  done;
  Buffer.contents buf

let generate rng =
  let nfuncs = Rng.range rng 2 6 in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "extern int print_int(int n);\n";
  Buffer.add_string buf "int ga[16];\nint gb[8];\nint gs;\n";
  let globals = [| ("ga", 15); ("gb", 7) |] in
  for i = 0 to nfuncs - 1 do
    Buffer.add_string buf (Printf.sprintf "int f%d(int p, int q, int d) {\n" i);
    Buffer.add_string buf "  int x = 1; int y = 2; int it = 0; int la[4];\n";
    Buffer.add_string buf
      (Printf.sprintf "  if (d <= 0) { return %s; }\n"
         (Rng.choose rng [| "p + q"; "p - q"; "q"; "p ^ q" |]));
    Buffer.add_string buf "  la[0] = p; la[1] = q; la[2] = d; la[3] = x;\n";
    let arrays = Array.append globals [| ("la", 3) |] in
    let vars = [| "p"; "q"; "d"; "x"; "y"; "gs" |] in
    let writable = [| "x"; "y"; "gs" |] in
    Buffer.add_string buf (gen_stmts rng ~self:i ~arrays ~vars ~writable);
    Buffer.add_string buf
      (Printf.sprintf "  return %s;\n}\n" (gen_expr rng ~arrays ~vars 2))
  done;
  (* The pointer-dispatch layer: a table over every function, indexed by
     a masked expression, as espresso dispatches cofactor heuristics. *)
  let tab_size = 4 in
  Buffer.add_string buf
    (Printf.sprintf "int (*tab[%d])(int p, int q, int d) = { %s };\n" tab_size
       (String.concat ", "
          (List.init tab_size (fun i -> Printf.sprintf "f%d" (i mod nfuncs)))));
  Buffer.add_string buf
    (Printf.sprintf
       "int dispatch(int i, int p, int d) {\n\
       \  if (d <= 0) { return i; }\n\
       \  return tab[(i) & %d](p, i ^ p, d - 1);\n\
        }\n"
       (tab_size - 1));
  Buffer.add_string buf "int main() {\n  int acc = 0; int k = 0;\n";
  Buffer.add_string buf
    "  for (k = 0; k < 16; k = k + 1) { ga[k] = k * 3; }\n\
    \  for (k = 0; k < 8; k = k + 1) { gb[k] = k - 5; }\n";
  let depth0 = Rng.range rng 2 6 in
  let calls = Rng.range rng 2 5 in
  for _ = 1 to calls do
    let reps = Rng.range rng 1 20 in
    (* Weighted toward the pointer-dispatch layer (2 of 4 phase kinds):
       the mixed-index phase exercises multi-target indirect sites, the
       fixed-index phase produces the single-dominant-target histograms
       speculative devirtualization rewrites. *)
    (match Rng.int rng 4 with
    | 0 ->
      let f = Rng.int rng nfuncs in
      Buffer.add_string buf
        (Printf.sprintf
           "  for (k = 0; k < %d; k = k + 1) { acc = acc + f%d(k, acc & 255, %d); }\n"
           reps f depth0)
    | 1 ->
      Buffer.add_string buf
        (Printf.sprintf
           "  for (k = 0; k < %d; k = k + 1) { acc = acc + dispatch(k, acc & \
            127, %d); }\n"
           reps depth0)
    | 2 ->
      let slot = Rng.int rng tab_size in
      Buffer.add_string buf
        (Printf.sprintf
           "  for (k = 0; k < %d; k = k + 1) { acc = acc + dispatch(%d, acc & \
            127, %d); }\n"
           reps slot depth0)
    | _ ->
      Buffer.add_string buf
        (Printf.sprintf
           "  for (k = 0; k < %d; k = k + 1) { ga[(acc) & 15] = acc; acc = \
            acc + ga[(k) & 15] + gs; }\n"
           reps));
    (* Print between phases, so a divergence inside any phase is visible
       even if later arithmetic would mask it. *)
    Buffer.add_string buf "  print_int(acc & 65535);\n"
  done;
  Buffer.add_string buf "  print_int(acc);\n  return acc & 63;\n}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let gen_source =
  QCheck.make
    ~print:(fun s -> s)
    (QCheck.Gen.map
       (fun seed -> generate (Rng.create seed))
       (QCheck.Gen.int_bound 1_000_000))

let run_with engine prog = Machine.run ~engine prog ~input:""

(* The locked-down property, all in one pass per program: both engines
   agree on the whole outcome (output, exit code, peak stack and every
   counter) on the baseline, inlining under [config] preserves output
   and exit code, and both engines agree on the expanded program too. *)
let semantics_preserved config src =
  let prog = Testutil.compile src in
  Impact_il.Il_check.check_exn prog;
  let engines_agree ctxt prog =
    let t = run_with Machine.Threaded prog in
    Testutil.check_outcomes_equal ~fail:QCheck.Test.fail_report ctxt t
      (run_with Machine.Reference prog);
    (t.Machine.output, t.Machine.exit_code)
  in
  let base = engines_agree "engines disagree before inlining" prog in
  let { Profiler.profile; _ } = Profiler.profile prog ~inputs:[ "" ] in
  let report = Inliner.run ~config prog profile in
  Impact_il.Il_check.check_exn report.Inliner.program;
  let post = engines_agree "engines disagree after inlining" report.Inliner.program in
  if post <> base then
    QCheck.Test.fail_reportf
      "inlining changed behaviour: %S/%d (off) vs %S/%d (on)" (fst base)
      (snd base) (fst post) (snd post);
  true

let aggressive =
  {
    Config.default with
    Config.program_size_limit_ratio = 100.;
    weight_threshold = 1.;
  }

let props =
  let open QCheck in
  let t ~count name f = Test.make ~count ~name gen_source f in
  [
    (* 420 generated programs in total across the six configs; every
       property checks the full square — baseline vs transformed, on
       both engines — so devirt off/on and inlining off/on must all
       produce byte-identical output. *)
    t ~count:120 "inlining off vs on, both engines (default config)"
      (semantics_preserved Config.default);
    t ~count:80 "inlining off vs on, both engines (aggressive config)"
      (semantics_preserved aggressive);
    t ~count:60 "inlining off vs on, both engines (static-small heuristic)"
      (semantics_preserved
         { aggressive with Config.heuristic = Config.Static_small 200 });
    t ~count:70 "devirt on, inlining on, both engines (default threshold)"
      (semantics_preserved { Config.default with Config.devirt = true });
    t ~count:50 "devirt on, aggressive inlining, eager threshold"
      (semantics_preserved
         { aggressive with Config.devirt = true; devirt_threshold = 0.5 });
    (* An infinite weight threshold selects no arcs, so this isolates
       the guard rewrite itself: devirt on, inline expansion off. *)
    t ~count:40 "devirt on, inlining off, both engines"
      (semantics_preserved
         {
           Config.default with
           Config.devirt = true;
           weight_threshold = infinity;
         });
  ]

let tests = List.map QCheck_alcotest.to_alcotest props
