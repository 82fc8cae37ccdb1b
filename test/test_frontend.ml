(* Lexer, parser and semantic-analysis tests. *)

module Token = Impact_cfront.Token
module Lexer = Impact_cfront.Lexer
module Parser = Impact_cfront.Parser
module Ast = Impact_cfront.Ast
module Sema = Impact_cfront.Sema
module Tast = Impact_cfront.Tast

let tokens src = List.map fst (Lexer.tokenize src)

let test_lexer_basic () =
  Alcotest.(check int) "eof only" 1 (List.length (tokens ""));
  (match tokens "x += 42;" with
  | [ Token.Ident "x"; Token.Plus_assign; Token.Int_lit 42; Token.Semi; Token.Eof ] ->
    ()
  | _ -> Alcotest.fail "unexpected token stream for 'x += 42;'");
  match tokens "a<<=b>>c" with
  | [ Token.Ident "a"; Token.Shl_assign; Token.Ident "b"; Token.Shr_op;
      Token.Ident "c"; Token.Eof ] ->
    ()
  | _ -> Alcotest.fail "longest-match operator lexing failed"

let test_lexer_literals () =
  (match tokens "0x1F 017 0 123" with
  | [ Token.Int_lit 31; Token.Int_lit 15; Token.Int_lit 0; Token.Int_lit 123;
      Token.Eof ] ->
    ()
  | _ -> Alcotest.fail "integer literal bases");
  (match tokens {|'a' '\n' '\\' '\0'|} with
  | [ Token.Char_lit 'a'; Token.Char_lit '\n'; Token.Char_lit '\\';
      Token.Char_lit '\000'; Token.Eof ] ->
    ()
  | _ -> Alcotest.fail "character literals");
  match tokens {|"hi\n" ""|} with
  | [ Token.Str_lit "hi\n"; Token.Str_lit ""; Token.Eof ] -> ()
  | _ -> Alcotest.fail "string literals"

let test_lexer_comments () =
  (match tokens "a /* b \n c */ d // e\n f" with
  | [ Token.Ident "a"; Token.Ident "d"; Token.Ident "f"; Token.Eof ] -> ()
  | _ -> Alcotest.fail "comments not skipped");
  match tokens "broken /* never closed" with
  | exception Lexer.Lex_error ("unterminated comment", _) -> ()
  | exception _ -> Alcotest.fail "wrong lexer error"
  | _ -> Alcotest.fail "unterminated comment accepted"

let test_lexer_locations () =
  match Lexer.tokenize "a\n  b" with
  | [ (_, la); (_, lb); (_, _) ] ->
    Alcotest.(check int) "line of a" 1 la.Impact_cfront.Srcloc.line;
    Alcotest.(check int) "line of b" 2 lb.Impact_cfront.Srcloc.line;
    Alcotest.(check int) "col of b" 3 lb.Impact_cfront.Srcloc.col
  | _ -> Alcotest.fail "expected three tokens"

(* A literal above [max_int] (the IL's immediates are native ints) is a
   typed lexer error at the literal, in every base: never an untyped
   [int_of_string] failure, never a wrapped value.  The cases run
   through the parser and through impactc, whose parse errors exit 3
   and name the location. *)
let out_of_range_literals =
  [
    ("int main() { return 99999999999999999999; }", "1:21", [ "il" ]);
    ( "extern int print_int(int n);\nint main() { print_int(4611686018427387904); return 0; }",
      "2:24",
      [ "run" ] );
    ( "extern int print_int(int n);\nint main() { print_int(0777777777777777777777777); return 0; }",
      "2:24",
      [ "run" ] );
    ( "extern int print_int(int n);\nint main() { print_int(0xFFFFFFFFFFFFFFFFF); return 0; }",
      "2:24",
      [ "run" ] );
  ]

let test_lexer_literal_range () =
  List.iter
    (fun (src, loc, _) ->
      match Parser.parse_program src with
      | exception Lexer.Lex_error (msg, l) ->
        Alcotest.(check (pair string string))
          (src ^ ": typed error at the literal")
          ("integer literal out of range", loc)
          (msg, Impact_cfront.Srcloc.to_string l)
      | _ -> Alcotest.failf "%s: out-of-range literal accepted" src)
    out_of_range_literals;
  (* [max_int] itself, in each base, still lexes. *)
  List.iter
    (fun lit ->
      match tokens lit with
      | [ Token.Int_lit n; Token.Eof ] ->
        Alcotest.(check int) (lit ^ " is max_int") max_int n
      | _ -> Alcotest.failf "%s did not lex as one literal" lit)
    [ "4611686018427387903"; "0x3FFFFFFFFFFFFFFF"; "0377777777777777777777" ]

let test_cli_literal_range () =
  let impactc = Testutil.bin "impactc.exe" in
  List.iter
    (fun (src, loc, cmd) ->
      let file = Filename.temp_file "impact_literal" ".c" in
      let err = Filename.temp_file "impact_literal" ".err" in
      Out_channel.with_open_bin file (fun oc -> output_string oc src);
      let code =
        Sys.command
          (Filename.quote_command impactc ~stdout:Filename.null ~stderr:err
             (cmd @ [ file ]))
      in
      let stderr = In_channel.with_open_bin err In_channel.input_all in
      Sys.remove file;
      Sys.remove err;
      Alcotest.(check (pair int string))
        (String.concat " " cmd ^ ": one typed parse error, exit 3")
        (3, Printf.sprintf "impactc: parse error at %s: integer literal out of range\n" loc)
        (code, stderr))
    out_of_range_literals

(* [impactc FILE] runs the default command, with options before or
   after FILE, and prints what [impactc --strict FILE] prints; a
   command name keeps its meaning, and a first argument that is neither
   a command nor a file stays a usage error. *)
let test_cli_bare_file () =
  let impactc = Testutil.bin "impactc.exe" in
  let file = Filename.temp_file "impact_bare" ".c" in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc
        "extern int print_int(int n);\n\
         int add(int a, int b) { return a + b; }\n\
         int main() { int i, s = 0; for (i = 0; i < 9; i++) s = add(s, i); \
         print_int(s); return 0; }\n");
  let run args =
    let out = Filename.temp_file "impact_bare" ".out" in
    let code =
      Sys.command
        (Filename.quote_command impactc ~stdout:out ~stderr:Filename.null args)
    in
    let text = In_channel.with_open_bin out In_channel.input_all in
    Sys.remove out;
    (code, text)
  in
  let code, bare = run [ file ] in
  let expected = run [ "--strict"; file ] in
  Alcotest.(check (pair int string)) "impactc FILE" expected (code, bare);
  Alcotest.(check bool) "it compiled" true
    (String.starts_with ~prefix:"profile over 1 run(s)" bare);
  Alcotest.(check (pair int string)) "impactc FILE --strict" expected
    (run [ file; "--strict" ]);
  let code, il = run [ "il"; file ] in
  Alcotest.(check (pair int bool)) "impactc il FILE dumps IL" (0, true)
    (code, String.starts_with ~prefix:"func " il);
  Sys.remove file;
  Alcotest.(check int) "a missing file is a usage error" 2 (fst (run [ file ]))

let expr src = (Parser.parse_expr_string src).Ast.edesc

let test_parser_precedence () =
  (* 1 + 2 * 3 parses as 1 + (2 * 3) *)
  (match expr "1 + 2 * 3" with
  | Ast.Binop (Ast.Add, _, { Ast.edesc = Ast.Binop (Ast.Mul, _, _); _ }) -> ()
  | _ -> Alcotest.fail "mul should bind tighter than add");
  (* a = b = c is right-associative *)
  (match expr "a = b = 1" with
  | Ast.Assign (_, { Ast.edesc = Ast.Assign (_, _); _ }) -> ()
  | _ -> Alcotest.fail "assignment should be right-associative");
  (* shifts bind tighter than comparisons *)
  (match expr "1 << 2 < 3" with
  | Ast.Binop (Ast.Lt, { Ast.edesc = Ast.Binop (Ast.Shl, _, _); _ }, _) -> ()
  | _ -> Alcotest.fail "shift/comparison precedence");
  (* && binds tighter than || *)
  match expr "a || b && c" with
  | Ast.Logor (_, { Ast.edesc = Ast.Logand (_, _); _ }) -> ()
  | _ -> Alcotest.fail "&&/|| precedence"

let test_parser_postfix_unary () =
  (match expr "*p++" with
  | Ast.Deref { Ast.edesc = Ast.Incdec (Ast.Incr, false, _); _ } -> ()
  | _ -> Alcotest.fail "*p++ should be *(p++)");
  (match expr "-x->f[1](2)" with
  | Ast.Unop (Ast.Neg, { Ast.edesc = Ast.Call _; _ }) -> ()
  | _ -> Alcotest.fail "postfix chain under unary minus");
  match expr "sizeof(int*)" with
  | Ast.Sizeof_ty (Ast.Tptr Ast.Tint) -> ()
  | _ -> Alcotest.fail "sizeof type"

let test_parser_ternary_comma () =
  (match expr "a ? b : c ? d : e" with
  | Ast.Cond (_, _, { Ast.edesc = Ast.Cond (_, _, _); _ }) -> ()
  | _ -> Alcotest.fail "?: should nest to the right");
  match expr "a = 1, b = 2" with
  | Ast.Comma ({ Ast.edesc = Ast.Assign _; _ }, { Ast.edesc = Ast.Assign _; _ }) -> ()
  | _ -> Alcotest.fail "comma expression"

let decls src = Parser.parse_program src

let test_parser_declarators () =
  (* Array of function pointers: the hard case. *)
  match decls "int (*tab[4])(int, char*);" with
  | [ Ast.Dglobal (ty, "tab", None, _) ] ->
    let expected =
      Ast.Tarray (Ast.Tptr (Ast.Tfun (Ast.Tint, [ Ast.Tint; Ast.Tptr Ast.Tchar ])), 4)
    in
    Alcotest.(check bool) "array of function pointers" true (Ast.ty_equal ty expected)
  | _ -> Alcotest.fail "declarator parse shape"

let test_parser_multidim () =
  match decls "char grid[3][5];" with
  | [ Ast.Dglobal (ty, "grid", None, _) ] ->
    let expected = Ast.Tarray (Ast.Tarray (Ast.Tchar, 5), 3) in
    Alcotest.(check bool) "2-D array nests outermost-first" true
      (Ast.ty_equal ty expected)
  | _ -> Alcotest.fail "multidimensional declarator"

let test_parser_pointer_return () =
  match decls "char *name_of(int id) { return 0; } int main() { return 0; }" with
  | [ Ast.Dfunc (Ast.Tptr Ast.Tchar, "name_of", [ (Ast.Tint, "id") ], _, _); _ ] -> ()
  | _ -> Alcotest.fail "pointer-returning function definition"

let test_parser_struct_and_proto () =
  match
    decls
      "struct point { int x; int y; };\nextern int getchar();\nstruct point origin;"
  with
  | [ Ast.Dstruct ("point", [ (Ast.Tint, "x"); (Ast.Tint, "y") ], _);
      Ast.Dproto (Ast.Tint, "getchar", [], _);
      Ast.Dglobal (Ast.Tstruct "point", "origin", None, _) ] ->
    ()
  | _ -> Alcotest.fail "struct/proto/global parse"

let test_parser_errors () =
  let expect_error src =
    match decls src with
    | exception Parser.Parse_error _ -> ()
    | _ -> Alcotest.fail ("expected parse error for: " ^ src)
  in
  expect_error "int main() { return 1 }";
  expect_error "int main() { if (1) }";
  expect_error "int f(int) { return 0; }";
  expect_error "int;"

let check_ok src = ignore (Sema.check_source src)

let expect_sema_error src =
  match Sema.check_source src with
  | exception Sema.Sema_error _ -> ()
  | _ -> Alcotest.fail ("expected semantic error for: " ^ src)

let test_sema_checks () =
  check_ok "int main() { return 0; }";
  expect_sema_error "int f() { return 0; }";
  (* no main *)
  expect_sema_error "void main() { }";
  (* wrong main type *)
  expect_sema_error "int main() { return x; }";
  (* undefined identifier *)
  expect_sema_error "int main() { undefined_func(); return 0; }";
  expect_sema_error "int x; int x; int main() { return 0; }";
  (* duplicate global *)
  expect_sema_error "int main() { int y = *3; return y; }"
  (* deref of int *)

let test_sema_scoping () =
  (* Inner declarations shadow outer ones and vanish at block exit. *)
  check_ok
    "int main() { int x = 1; { int x = 2; x++; } return x; }";
  expect_sema_error "int main() { { int y = 1; } return y; }";
  expect_sema_error "int main() { int x; int x; return 0; }"

let test_sema_struct_layout () =
  (* char is packed, int realigns to the word boundary. *)
  let tp =
    Sema.check_source
      "struct s { char a; int b; char c; };\n\
       struct s v;\n\
       int main() { return sizeof(struct s); }"
  in
  let size = List.assoc "s" tp.Tast.struct_sizes in
  Alcotest.(check int) "layout with padding" 24 size

let test_sema_call_classification () =
  let tp =
    Sema.check_source
      "extern int getchar();\n\
       int helper(int v) { return v; }\n\
       int main() { int (*fp)(int) = helper; return helper(getchar()) + fp(1); }"
  in
  Alcotest.(check (list string)) "address-taken" [ "helper" ] tp.Tast.address_taken_funcs;
  Alcotest.(check int) "one extern" 1 (List.length tp.Tast.externs)

let test_sema_switch_rules () =
  check_ok
    "int main() { switch (1) { case 1: case 2: return 0; default: return 1; } }";
  expect_sema_error
    "int main() { switch (1) { case 1: case 1: return 0; } }";
  expect_sema_error
    "int main() { switch (1) { default: return 0; default: return 1; } }";
  expect_sema_error "int main() { break; }";
  expect_sema_error "int main() { continue; }"

let test_sema_array_size_inference () =
  let tp =
    Sema.check_source
      "char msg[] = \"hello\";\nint tbl[] = { 1, 2, 3 };\nint main() { return 0; }"
  in
  let find name =
    List.find (fun g -> g.Tast.g_name = name) tp.Tast.globals
  in
  Alcotest.(check int) "string-inferred size" 6 (find "msg").Tast.g_size;
  Alcotest.(check int) "list-inferred size" 24 (find "tbl").Tast.g_size

let pp_fixpoint src =
  let once = Impact_cfront.C_pp.print_program (decls src) in
  let twice = Impact_cfront.C_pp.print_program (decls once) in
  Alcotest.(check string) "pretty-print fixpoint" once twice;
  (* The printed form must still pass the full front end when the
     original does. *)
  ignore (Sema.check_source once)

let test_pp_roundtrip_sample () =
  pp_fixpoint
    {|
extern int getchar();
extern int putchar(int c);
struct pair { int a; char tag; int deps[4]; };
int (*handlers[2])(int);
char *msg = "hi	there
";
int table[3] = { 1, -2, 'x' };
int helper(int p, char *q) {
  int local = p + 1;
  struct pair pr;
  pr.a = sizeof(struct pair);
  if (p > 0 && *q) { local += q[0]; } else local--;
  while (local % 7) local = local / 2 + 1;
  do { local++; } while (local < 3);
  for (local = 0; local < 4; local++) putchar('0' + local);
  switch (local) { case 1: case 2: local = 9; break; default: local = -1; }
  return (p ? local : -local) + (int) q;
}
int main() { return helper(3, msg) & 0; }
|}

let test_pp_roundtrip_benchmarks () =
  List.iter
    (fun (b : Impact_bench_progs.Benchmark.t) ->
      pp_fixpoint b.Impact_bench_progs.Benchmark.source)
    Impact_bench_progs.Suite.all

let test_pp_preserves_semantics () =
  (* Printing and re-parsing must not change behaviour. *)
  let src = (Impact_bench_progs.Suite.find "yacc").Impact_bench_progs.Benchmark.source in
  let printed = Impact_cfront.C_pp.print_program (decls src) in
  let input = List.hd ((Impact_bench_progs.Suite.find "yacc").Impact_bench_progs.Benchmark.inputs ()) in
  let out_a = Testutil.run_output ~input src in
  let out_b = Testutil.run_output ~input printed in
  Alcotest.(check string) "same output through the printer" out_a out_b

let tests =
  [
    Alcotest.test_case "lexer: operators" `Quick test_lexer_basic;
    Alcotest.test_case "lexer: literals" `Quick test_lexer_literals;
    Alcotest.test_case "lexer: comments" `Quick test_lexer_comments;
    Alcotest.test_case "lexer: locations" `Quick test_lexer_locations;
    Alcotest.test_case "lexer: literals above max_int" `Quick test_lexer_literal_range;
    Alcotest.test_case "impactc: literals above max_int" `Quick test_cli_literal_range;
    Alcotest.test_case "parser: precedence" `Quick test_parser_precedence;
    Alcotest.test_case "parser: unary/postfix" `Quick test_parser_postfix_unary;
    Alcotest.test_case "parser: ternary/comma" `Quick test_parser_ternary_comma;
    Alcotest.test_case "parser: declarators" `Quick test_parser_declarators;
    Alcotest.test_case "parser: multidim arrays" `Quick test_parser_multidim;
    Alcotest.test_case "parser: pointer returns" `Quick test_parser_pointer_return;
    Alcotest.test_case "parser: structs/protos" `Quick test_parser_struct_and_proto;
    Alcotest.test_case "parser: error reporting" `Quick test_parser_errors;
    Alcotest.test_case "sema: basic checks" `Quick test_sema_checks;
    Alcotest.test_case "sema: scoping" `Quick test_sema_scoping;
    Alcotest.test_case "sema: struct layout" `Quick test_sema_struct_layout;
    Alcotest.test_case "sema: call classification" `Quick test_sema_call_classification;
    Alcotest.test_case "sema: switch rules" `Quick test_sema_switch_rules;
    Alcotest.test_case "sema: array size inference" `Quick test_sema_array_size_inference;
    Alcotest.test_case "c_pp: round-trip sample" `Quick test_pp_roundtrip_sample;
    Alcotest.test_case "c_pp: round-trip benchmarks" `Quick test_pp_roundtrip_benchmarks;
    Alcotest.test_case "c_pp: semantics preserved" `Quick test_pp_preserves_semantics;
    Alcotest.test_case "impactc FILE runs the default command" `Quick test_cli_bare_file;
  ]
