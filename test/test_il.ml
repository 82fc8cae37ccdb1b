(* IL utilities, validator and lowering invariants. *)

module Il = Impact_il.Il
module Il_check = Impact_il.Il_check

let compile = Testutil.compile

let sample =
  {|
extern int getchar();
int helper(int a, int b) { return a * b + 1; }
int through(int x) { return helper(x, x); }
int main() {
  int (*fp)(int) = through;
  return helper(1, 2) + through(3) + fp(4) + getchar();
}
|}

let test_code_size_excludes_labels () =
  let prog = compile "int main() { int i, s = 0; for (i = 0; i < 3; i++) s++; return s; }" in
  let f = prog.Il.funcs.(prog.Il.main) in
  let labels =
    Array.fold_left (fun n i -> if Il.instr_is_label i then n + 1 else n) 0 f.Il.body
  in
  Alcotest.(check bool) "the loop has labels" true (labels > 0);
  Alcotest.(check int) "code_size + labels = body length"
    (Array.length f.Il.body) (Il.code_size f + labels)

let test_sites_unique_and_ordered () =
  let prog = compile sample in
  let all =
    Array.to_list prog.Il.funcs
    |> List.concat_map (fun f -> Il.sites_of f)
    |> List.map (fun s -> s.Il.s_id)
  in
  let sorted = List.sort_uniq compare all in
  Alcotest.(check int) "site ids are unique" (List.length all) (List.length sorted);
  Alcotest.(check bool) "next_site exceeds all ids" true
    (List.for_all (fun id -> id < prog.Il.next_site) all)

let test_site_kinds () =
  let prog = compile sample in
  let kind_counts = Hashtbl.create 4 in
  Array.iter
    (fun f ->
      List.iter
        (fun (s : Il.site) ->
          let key =
            match s.Il.s_kind with
            | Il.To_user _ -> "user"
            | Il.To_extern _ -> "ext"
            | Il.Through_pointer -> "ptr"
          in
          Hashtbl.replace kind_counts key
            (1 + Option.value ~default:0 (Hashtbl.find_opt kind_counts key)))
        (Il.sites_of f))
    prog.Il.funcs;
  let get k = Option.value ~default:0 (Hashtbl.find_opt kind_counts k) in
  Alcotest.(check int) "direct calls" 3 (get "user");
  Alcotest.(check int) "external calls" 1 (get "ext");
  Alcotest.(check int) "pointer calls" 1 (get "ptr")

let test_find_func_and_address_taken () =
  let prog = compile sample in
  (match Il.find_func prog "helper" with
  | Some f -> Alcotest.(check int) "helper has 2 params" 2 f.Il.nparams
  | None -> Alcotest.fail "helper not found");
  Alcotest.(check (option string)) "missing function" None
    (Option.map (fun f -> f.Il.name) (Il.find_func prog "nope"));
  let taken = List.map (fun fid -> prog.Il.funcs.(fid).Il.name) prog.Il.address_taken in
  Alcotest.(check (list string)) "address-taken" [ "through" ] taken

let test_copy_program_isolates () =
  let prog = compile sample in
  let copy = Il.copy_program prog in
  let f = copy.Il.funcs.(copy.Il.main) in
  f.Il.body <- [||];
  f.Il.nregs <- 0;
  Alcotest.(check bool) "original body untouched" true
    (Array.length prog.Il.funcs.(prog.Il.main).Il.body > 0)

let test_stack_usage_grows_with_frame () =
  let small = compile "int main() { int x = 1; return x; }" in
  let big = compile "int main() { int a[100]; a[0] = 1; return a[0]; }" in
  let su p = Il.stack_usage p.Il.funcs.(p.Il.main) in
  Alcotest.(check bool) "arrays enlarge the frame" true (su big > su small + 700)

let test_validator_accepts_lowered () =
  List.iter
    (fun src ->
      match Il_check.check (compile src) with
      | [] -> ()
      | errs -> Alcotest.fail (String.concat "; " (List.map Il_check.to_string errs)))
    [
      sample;
      "int main() { return 0; }";
      "int main() { switch (1) { case 1: return 1; } return 0; }";
    ]

(* One row per violation kind: each corrupts the sample program and
   names every violation the checker must report, by function,
   instruction index and kind, in the order it reports them. *)
let test_validator_rejects_corruption () =
  let find p name = Option.get (Il.find_func p name) in
  let main p = p.Il.funcs.(p.Il.main) in
  (* [append f instrs] adds [instrs] to [f]'s body and returns the
     index of the first. *)
  let append (f : Il.func) instrs =
    let at = Array.length f.Il.body in
    f.Il.body <- Array.append f.Il.body instrs;
    at
  in
  let at (f : Il.func) index kind = { Il_check.func = f.Il.name; index; kind } in
  let one f instrs kind = [ at f (append f instrs) kind ] in
  let fresh_label (f : Il.func) =
    f.Il.nlabels <- f.Il.nlabels + 1;
    f.Il.nlabels - 1
  in
  (* The index of [caller]'s direct call to [callee]. *)
  let call_to (caller : Il.func) (callee : Il.func) =
    (List.find
       (fun (s : Il.site) -> s.Il.s_kind = Il.To_user callee.Il.fid)
       (Il.sites_of caller))
      .Il.s_index
  in
  let rows =
    [
      ( "register out of range",
        fun p -> (p, one (main p) [| Il.Mov (9999, Il.Imm 0) |] (Il_check.Bad_register 9999)) );
      ( "branch to an undefined label",
        fun p ->
          let f = main p in
          let l = fresh_label f in
          (p, one f [| Il.Jump l |] (Il_check.Undefined_label l)) );
      ( "label defined twice",
        fun p ->
          let f = main p in
          let l = fresh_label f in
          (p, [ at f (append f [| Il.Label l; Il.Label l |] + 1) (Il_check.Duplicate_label l) ]) );
      ( "label not below nlabels",
        fun p ->
          let f = main p in
          let l = f.Il.nlabels in
          (p, one f [| Il.Label l |] (Il_check.Label_out_of_range l)) );
      ( "frame offset outside the frame",
        fun p ->
          let f = main p in
          let off = max f.Il.frame_size 1 in
          (p, one f [| Il.Lea_frame (0, off) |] (Il_check.Bad_frame_offset off)) );
      ( "global id out of range",
        fun p ->
          let g = Array.length p.Il.globals in
          (p, one (main p) [| Il.Lea_global (0, g) |] (Il_check.Bad_global g)) );
      ( "string id out of range",
        fun p ->
          let s = Array.length p.Il.strings in
          (p, one (main p) [| Il.Lea_string (0, s) |] (Il_check.Bad_string s)) );
      ( "function id out of range",
        fun p ->
          let n = Array.length p.Il.funcs in
          (p, one (main p) [| Il.Lea_func (0, n) |] (Il_check.Bad_function n)) );
      ( "wrong arity",
        fun p ->
          let helper = find p "helper" in
          let site = p.Il.next_site in
          p.Il.next_site <- site + 1;
          ( p,
            one (main p)
              [| Il.Call (site, helper.Il.fid, [ Il.Imm 1 ], None) |]
              (Il_check.Bad_arity { callee = "helper"; nargs = 1; nparams = 2 }) ) );
      ( "direct call to a dead function",
        fun p ->
          let through = find p "through" in
          through.Il.alive <- false;
          (p, [ at (main p) (call_to (main p) through) (Il_check.Dead_callee "through") ]) );
      (* The decoder still decodes a dead function that main calls
         directly, so its body stays under every rule. *)
      ( "dead function the decoder can reach",
        fun p ->
          let through = find p "through" in
          through.Il.alive <- false;
          ( p,
            one through [| Il.Mov (9999, Il.Imm 0) |] (Il_check.Bad_register 9999)
            @ [ at (main p) (call_to (main p) through) (Il_check.Dead_callee "through") ] ) );
      ( "negative site id",
        fun p ->
          (p, one (main p) [| Il.Call_ext (-1, "getchar", [], None) |] (Il_check.Bad_site (-1))) );
      ( "site id not below next_site",
        fun p ->
          let s = p.Il.next_site in
          (p, one (main p) [| Il.Call_ext (s, "getchar", [], None) |] (Il_check.Bad_site s)) );
      ( "duplicate site id",
        fun p ->
          let f = main p in
          let s = List.hd (Il.sites_of f) in
          (p, one f [| f.Il.body.(s.Il.s_index) |] (Il_check.Duplicate_site s.Il.s_id)) );
      ( "main out of range",
        fun p ->
          let n = Array.length p.Il.funcs in
          ( { p with Il.main = n },
            [ { Il_check.func = ""; index = -1; kind = Il_check.Bad_main n } ] ) );
    ]
  in
  let violation =
    Alcotest.testable (fun fmt v -> Format.pp_print_string fmt (Il_check.to_string v)) ( = )
  in
  List.iter
    (fun (name, corrupt) ->
      let prog, expected = corrupt (compile sample) in
      Alcotest.(check (list violation)) name expected (Il_check.check prog))
    rows

(* The pass-boundary check: silent on well-formed IL, otherwise one typed
   error of the caller's stage naming the pass, function and
   instruction. *)
let test_verify_names_the_pass () =
  let module Ierr = Impact_support.Ierr in
  let prog = compile sample in
  Il_check.verify ~stage:Ierr.Lower ~pass:"pre_opt" prog;
  let f = prog.Il.funcs.(prog.Il.main) in
  let at = Array.length f.Il.body in
  f.Il.body <- Array.append f.Il.body [| Il.Jump 99 |];
  match Il_check.verify ~stage:Ierr.Lower ~pass:"pre_opt" prog with
  | () -> Alcotest.fail "an undefined label passed the check"
  | exception Ierr.Error e ->
    Alcotest.(check string) "typed error of the given stage"
      (Printf.sprintf
         "lower error: ill-formed IL after pre_opt: in main at instruction %d: no label L99"
         at)
      (Ierr.to_string e)

let test_register_variables () =
  (* A scalar whose address is never taken must not touch memory. *)
  let prog = compile "int main() { int x = 4; x = x + 1; return x; }" in
  let f = prog.Il.funcs.(prog.Il.main) in
  let touches_memory =
    Array.exists
      (function Il.Load _ | Il.Store _ | Il.Lea_frame _ -> true | _ -> false)
      f.Il.body
  in
  Alcotest.(check bool) "register-allocated scalar" false touches_memory;
  Alcotest.(check int) "no frame needed" 0 f.Il.frame_size

let test_addr_taken_goes_to_frame () =
  let prog =
    compile "int main() { int x = 4; int *p = &x; *p = 9; return x; }"
  in
  let f = prog.Il.funcs.(prog.Il.main) in
  Alcotest.(check bool) "frame slot allocated" true (f.Il.frame_size >= 8)

let tests =
  [
    Alcotest.test_case "code_size excludes labels" `Quick test_code_size_excludes_labels;
    Alcotest.test_case "site ids unique" `Quick test_sites_unique_and_ordered;
    Alcotest.test_case "site kinds" `Quick test_site_kinds;
    Alcotest.test_case "find_func / address_taken" `Quick test_find_func_and_address_taken;
    Alcotest.test_case "copy_program isolates" `Quick test_copy_program_isolates;
    Alcotest.test_case "stack usage" `Quick test_stack_usage_grows_with_frame;
    Alcotest.test_case "validator accepts lowered IL" `Quick test_validator_accepts_lowered;
    Alcotest.test_case "validator rejects corruption" `Quick test_validator_rejects_corruption;
    Alcotest.test_case "boundary check names the pass" `Quick test_verify_names_the_pass;
    Alcotest.test_case "scalars live in registers" `Quick test_register_variables;
    Alcotest.test_case "address-taken locals get frame slots" `Quick
      test_addr_taken_goes_to_frame;
  ]
