(* Shared helpers for the test suite: compiling snippets, running them,
   and generating random (but always terminating) C programs for the
   property-based suites. *)

module Il = Impact_il.Il
module Machine = Impact_interp.Machine
module Counters = Impact_interp.Counters
module Rng = Impact_support.Rng

let compile src = Impact_il.Lower.lower_source src

(* The built CLI and daemon, which the test stanza depends on. *)
let bin exe =
  Filename.concat
    (Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin")
    exe

let run ?(input = "") src =
  let prog = compile src in
  Machine.run prog ~input

(* Run a C snippet and return stdout. *)
let run_output ?input src = (run ?input src).Machine.output

(* Compile, optionally transform, run, and return (output, exit code). *)
let run_prog ?(input = "") prog =
  let o = Machine.run prog ~input in
  (o.Machine.output, o.Machine.exit_code)

(* Two runs must agree on everything an outcome carries: output and its
   digest, exit code, peak stack, every scalar counter, and the
   per-function and per-site counts.  [fail] reports the first
   difference (Alcotest's by default; a QCheck property passes its own). *)
let check_outcomes_equal ?(fail = fun msg -> Alcotest.fail msg) ctxt
    (a : Machine.outcome) (b : Machine.outcome) =
  let fail fmt = Printf.ksprintf (fun msg -> fail (ctxt ^ ": " ^ msg)) fmt in
  if a.Machine.output <> b.Machine.output then
    fail "outputs differ: %S vs %S" a.Machine.output b.Machine.output;
  if a.Machine.output_digest <> b.Machine.output_digest then
    fail "output digests differ";
  if a.Machine.exit_code <> b.Machine.exit_code then
    fail "exit codes differ: %d vs %d" a.Machine.exit_code b.Machine.exit_code;
  if a.Machine.max_stack <> b.Machine.max_stack then
    fail "max_stack differs: %d vs %d" a.Machine.max_stack b.Machine.max_stack;
  let ca = a.Machine.counters and cb = b.Machine.counters in
  let field name f =
    if f ca <> f cb then fail "counter %s: %d vs %d" name (f ca) (f cb)
  in
  field "ils" (fun c -> c.Counters.ils);
  field "cts" (fun c -> c.Counters.cts);
  field "calls" (fun c -> c.Counters.calls);
  field "returns" (fun c -> c.Counters.returns);
  field "ext_calls" (fun c -> c.Counters.ext_calls);
  if ca.Counters.func_counts <> cb.Counters.func_counts then
    fail "per-function counts differ";
  if ca.Counters.site_counts <> cb.Counters.site_counts then
    fail "per-site counts differ"

(* Wrap an expression statement list into a main that prints an int. *)
let main_printing body =
  Printf.sprintf
    "extern int print_int(int n);\nextern int putchar(int c);\nint main() { %s }" body

(* ------------------------------------------------------------------ *)
(* Random program generation                                           *)
(* ------------------------------------------------------------------ *)

(* Grammar: [nfuncs] functions of two int parameters; function [i] may
   only call functions [j < i], so every generated program terminates.
   Expressions guard division and shifts so no run can trap.  main
   drives each function in a small loop and prints an accumulator, so
   any semantic difference shows up in the output. *)

(* A literal: small, or in about 1 of 16 positions wide — beyond the
   threaded engine's 62-bit tagged operand, so it lands in a constant
   slot before inlining and after. *)
let gen_literal rng =
  if Rng.int rng 16 = 0 then
    Rng.choose rng
      [| "4611686018427387903"; "2305843009213693952"; "3000000000000000000" |]
  else string_of_int (Rng.range rng (-20) 99)

let gen_expr rng depth params locals =
  let buf = Buffer.create 64 in
  let rec go depth =
    if depth = 0 || Rng.chance rng 2 5 then
      match Rng.int rng 3 with
      | 0 -> Buffer.add_string buf (gen_literal rng)
      | 1 -> Buffer.add_string buf (Rng.choose rng params)
      | _ -> Buffer.add_string buf (Rng.choose rng locals)
    else begin
      let op = Rng.choose rng [| "+"; "-"; "*"; "&"; "|"; "^"; "<"; "=="; "/"; "%" |] in
      match op with
      | "/" | "%" ->
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
    end
  in
  go depth;
  Buffer.contents buf

let gen_stmts rng ~callees params locals =
  let buf = Buffer.create 256 in
  let expr depth = gen_expr rng depth params locals in
  let nstmts = Rng.range rng 2 6 in
  for _ = 1 to nstmts do
    let lhs = Rng.choose rng locals in
    match Rng.int rng 5 with
    | 0 | 1 -> Buffer.add_string buf (Printf.sprintf "  %s = %s;\n" lhs (expr 3))
    | 2 ->
      Buffer.add_string buf
        (Printf.sprintf "  if (%s) { %s = %s; } else { %s = %s; }\n" (expr 2) lhs
           (expr 2) lhs (expr 2))
    | 3 ->
      let bound = Rng.range rng 1 6 in
      Buffer.add_string buf
        (Printf.sprintf "  for (it = 0; it < %d; it++) { %s = %s + it; }\n" bound lhs
           (expr 2))
    | _ -> (
      match callees with
      | [] -> Buffer.add_string buf (Printf.sprintf "  %s = %s;\n" lhs (expr 3))
      | callees ->
        let callee = Rng.choose rng (Array.of_list callees) in
        Buffer.add_string buf
          (Printf.sprintf "  %s = %s(%s, %s);\n" lhs callee (expr 2) (expr 2)))
  done;
  Buffer.contents buf

let gen_program rng =
  let nfuncs = Rng.range rng 1 5 in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "extern int print_int(int n);\n";
  let params = [| "p"; "q" |] in
  let locals = [| "x"; "y"; "z" |] in
  for i = 0 to nfuncs - 1 do
    let callees = List.init i (fun j -> Printf.sprintf "f%d" j) in
    Buffer.add_string buf (Printf.sprintf "int f%d(int p, int q) {\n" i);
    Buffer.add_string buf "  int x = 1, y = 2, z = 3, it = 0;\n";
    Buffer.add_string buf (gen_stmts rng ~callees params locals);
    Buffer.add_string buf
      (Printf.sprintf "  return %s;\n}\n" (gen_expr rng 2 params locals))
  done;
  Buffer.add_string buf "int main() {\n  int acc = 0, k = 0;\n";
  let calls = Rng.range rng 2 5 in
  for _ = 1 to calls do
    let f = Rng.int rng nfuncs in
    let reps = Rng.range rng 1 30 in
    Buffer.add_string buf
      (Printf.sprintf "  for (k = 0; k < %d; k++) acc = acc + f%d(k, acc & 255);\n"
         reps f)
  done;
  Buffer.add_string buf "  print_int(acc);\n  return 0;\n}\n";
  Buffer.contents buf
