(* Differential tests pinning the pre-decoded threaded engine to the
   reference step interpreter: identical outcomes and counters on random
   programs and on the whole benchmark suite before and after inlining,
   identical trap messages, the same out-of-fuel boundary to the
   instruction, a reused memory image that reads like a fresh one, and
   deterministic domain-parallel profiling for any job count. *)

module Il = Impact_il.Il
module Machine = Impact_interp.Machine
module Threaded = Impact_interp.Threaded
module Counters = Impact_interp.Counters
module Profiler = Impact_profile.Profiler
module Profile = Impact_profile.Profile
module Rng = Impact_support.Rng
module B = Impact_bench_progs.Benchmark
module Config = Impact_core.Config
module Inliner = Impact_core.Inliner

let both_engines ?fuel prog ~input =
  let t = Machine.run ?fuel ~engine:Machine.Threaded prog ~input in
  let r = Machine.run ?fuel ~engine:Machine.Reference prog ~input in
  (t, r)

(* ------------------------------------------------------------------ *)
(* Random-program differential property                                *)
(* ------------------------------------------------------------------ *)

let gen_source =
  QCheck.make
    ~print:(fun s -> s)
    (QCheck.Gen.map
       (fun seed -> Testutil.gen_program (Rng.create seed))
       QCheck.Gen.small_nat)

let engines_agree src =
  let prog = Testutil.compile src in
  if not (Threaded.supported prog) then
    QCheck.Test.fail_reportf "generated program rejected by Threaded.supported";
  let t, r = both_engines prog ~input:"" in
  Testutil.check_outcomes_equal "random program" t r;
  true

(* ------------------------------------------------------------------ *)
(* Suite differential                                                  *)
(* ------------------------------------------------------------------ *)

let profiles_equal (a : Profile.t) (b : Profile.t) = a = b

let suite_prog (b : B.t) =
  let prog = Impact_il.Lower.lower_source b.B.source in
  ignore (Impact_opt.Driver.pre_inline prog);
  prog

(* Every benchmark, before and after inlining (the default config over
   its own profile, as the pipeline re-profiles it): both engines must
   agree on every run's outcome and on the profile. *)
let test_suite_differential () =
  List.iter
    (fun (b : B.t) ->
      let inputs = b.B.inputs () in
      let differential stage prog =
        let name = Printf.sprintf "%s (%s)" b.B.name stage in
        Alcotest.(check bool)
          (name ^ " supported by threaded engine") true
          (Threaded.supported prog);
        let t = Profiler.profile ~engine:Machine.Threaded prog ~inputs in
        let r = Profiler.profile ~engine:Machine.Reference prog ~inputs in
        List.iter2
          (fun to_ ro -> Testutil.check_outcomes_equal name to_ ro)
          t.Profiler.runs r.Profiler.runs;
        if not (profiles_equal t.Profiler.profile r.Profiler.profile) then
          Alcotest.failf "%s: profiles differ between engines" name;
        t.Profiler.profile
      in
      let prog = suite_prog b in
      let profile = differential "pre-inline" prog in
      let inlined = Inliner.run ~config:Config.default prog profile in
      ignore (differential "post-inline" inlined.Inliner.program))
    Impact_bench_progs.Suite.all

(* ------------------------------------------------------------------ *)
(* Domain-parallel determinism                                         *)
(* ------------------------------------------------------------------ *)

let test_jobs_deterministic () =
  let b = Impact_bench_progs.Suite.find "cmp" in
  let prog = suite_prog b in
  let inputs = b.B.inputs () in
  let base = Profiler.profile ~jobs:1 prog ~inputs in
  List.iter
    (fun jobs ->
      let p = Profiler.profile ~jobs prog ~inputs in
      if not (profiles_equal base.Profiler.profile p.Profiler.profile) then
        Alcotest.failf "profile with %d jobs differs from 1 job" jobs;
      List.iter2
        (fun a bo -> Testutil.check_outcomes_equal (Printf.sprintf "jobs=%d" jobs) a bo)
        base.Profiler.runs p.Profiler.runs)
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* IL builders                                                         *)
(* ------------------------------------------------------------------ *)

let func ?(nparams = 0) ?(nregs = 1) ?(nlabels = 0) fid name body =
  {
    Il.fid;
    name;
    nparams;
    nregs;
    nlabels;
    frame_size = 0;
    body;
    alive = true;
  }

let one_func_program ?(nlabels = 0) ?(globals = [||]) body ~nregs =
  {
    Il.funcs = [| func ~nregs ~nlabels 0 "main" body |];
    globals;
    strings = [||];
    externs = [];
    main = 0;
    next_site = 0;
    address_taken = [];
  }

(* ------------------------------------------------------------------ *)
(* Fuel-boundary parity                                                *)
(* ------------------------------------------------------------------ *)

(* Programs for the fuel sweep, each with how it ends given enough
   fuel.  After fib come a switch whose case span exceeds [max_int] (the
   threaded decoder's jump-table size wrapped negative and passed its
   compactness test, so [Array.make] raised where the reference engine
   prints 210; the argument is computed, [big + big], so every immediate
   stays inside what the threaded engine accepts), and one small program
   per pair the threaded engine fuses (see [Threaded.fuse]), built in IL
   so the pair is exactly there. *)
let fuel_programs =
  let fib =
    Testutil.compile
      "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }\n\
       int main() { return fib(10); }"
  in
  let wide_switch =
    Testutil.compile
      {|
extern int print_int(int n);
int pick(int x) {
  switch (x) {
  case -3000000000000000000: return 1;
  case 3000000000000000000: return 210;
  default: return 0;
  }
}
int main() { int big; big = 1500000000000000000; print_int(pick(big + big)); return 0; }
|}
  in
  let open Il in
  let g16 =
    [|
      { g_id = 0; g_name = "g"; g_size = 16; g_init = [ (0, Gword 7); (8, Gword 35) ] };
    |]
  in
  [
    ("fib", fib, "exit 55");
    ("wide switch span", wide_switch, "exit 0, output 210");
    (* Each compare into a branch, taken and not taken: 10 + 1000 +
       100000 from the fall-throughs, plus each compare's register (3
       true). *)
    ( "compare and branch",
      one_func_program ~nregs:3 ~nlabels:6
        (Array.concat
           [
             [| Mov (0, Imm 2); Mov (2, Imm 0) |];
             Array.concat
               (List.mapi
                  (fun l (op, k, add) ->
                    [|
                      Bin (op, 1, Reg 0, Imm k);
                      Bnz (Reg 1, l);
                      Bin (Add, 2, Reg 2, Imm add);
                      Label l;
                      Bin (Add, 2, Reg 2, Reg 1);
                    |])
                  [
                    (Lt, 3, 1); (Le, 1, 10); (Gt, 1, 100); (Ge, 3, 1000);
                    (Eq, 2, 10000); (Ne, 2, 100000);
                  ]);
             [| Ret (Some (Reg 2)) |];
           ]),
      "exit 101013" );
    (* A loop whose compare-and-branch is taken twice, then falls out. *)
    ( "compare and branch, looping",
      one_func_program ~nregs:2 ~nlabels:1
        [|
          Mov (0, Imm 0);
          Label 0;
          Bin (Add, 0, Reg 0, Imm 1);
          Bin (Lt, 1, Reg 0, Imm 3);
          Bnz (Reg 1, 0);
          Ret (Some (Reg 0));
        |],
      "exit 3" );
    ( "move then jump",
      one_func_program ~nregs:2 ~nlabels:1
        [|
          Mov (0, Imm 5); Mov (1, Reg 0); Jump 0; Mov (1, Imm 9); Label 0;
          Ret (Some (Reg 1));
        |],
      "exit 5" );
    (* Odd rounds take the branch; even ones fall into the jump. *)
    ( "branch falling into a jump",
      one_func_program ~nregs:4 ~nlabels:3
        [|
          Mov (0, Imm 0);
          Label 0;
          Bin (Add, 0, Reg 0, Imm 1);
          Bin (And, 1, Reg 0, Imm 1);
          Bnz (Reg 1, 1);
          Jump 2;
          Label 1;
          Bin (Add, 2, Reg 2, Imm 1);
          Label 2;
          Bin (Lt, 3, Reg 0, Imm 4);
          Bnz (Reg 3, 0);
          Ret (Some (Reg 2));
        |],
      "exit 2" );
    ( "multiply then add",
      one_func_program ~nregs:3
        [|
          Mov (0, Imm 3); Bin (Mul, 1, Reg 0, Imm 4); Bin (Add, 2, Reg 1, Reg 0);
          Ret (Some (Reg 2));
        |],
      "exit 15" );
    (* Global then load, and add then load of a word and of a byte. *)
    ( "global or sum then load",
      one_func_program ~nregs:7 ~globals:g16
        [|
          Lea_global (0, 0);
          Load (Word, 1, Reg 0);
          Bin (Add, 2, Reg 0, Imm 8);
          Load (Word, 3, Reg 2);
          Bin (Add, 4, Reg 0, Imm 8);
          Load (Byte, 5, Reg 4);
          Bin (Add, 6, Reg 1, Reg 3);
          Bin (Add, 6, Reg 6, Reg 5);
          Ret (Some (Reg 6));
        |],
      "exit 77" );
    ( "add then load, word load traps",
      one_func_program ~nregs:3
        [|
          Mov (0, Imm 0); Bin (Add, 1, Reg 0, Imm 8); Load (Word, 2, Reg 1);
          Ret (Some (Reg 2));
        |],
      "trap: memory access at 8 (size 8) out of range" );
    ( "add then load, byte load traps",
      one_func_program ~nregs:3
        [|
          Mov (0, Imm 0); Bin (Add, 1, Reg 0, Imm 16); Load (Byte, 2, Reg 1);
          Ret (Some (Reg 2));
        |],
      "trap: memory access at 16 (size 1) out of range" );
  ]

let ending ?(input = "") ?fuel engine prog =
  match Machine.run ?fuel ~engine prog ~input with
  | o -> `Done o
  | exception Machine.Trap msg -> `Trap msg
  | exception Machine.Out_of_fuel -> `Out_of_fuel

let ending_name = function
  | `Done (o : Machine.outcome) ->
    Printf.sprintf "exit %d%s" o.Machine.exit_code
      (if o.Machine.output = "" then "" else ", output " ^ o.Machine.output)
  | `Trap msg -> "trap: " ^ msg
  | `Out_of_fuel -> "out of fuel"

(* Both engines spend one fuel unit per executed IL and raise
   {!Machine.Out_of_fuel} on the instruction that exhausts it, so at
   every fuel value from 1 up to the one that lets the program finish
   (ils + 1) or trap, they must end the same way: equal outcomes, the
   same trap message, or both out of fuel.  The sweep stops every pair
   of fused ILs at each of its two instructions. *)
let test_fuel_boundary () =
  List.iter
    (fun (name, prog, expect) ->
      Alcotest.(check bool) (name ^ ": supported") true (Threaded.supported prog);
      Alcotest.(check string) (name ^ ": ends") expect
        (ending_name (ending Machine.Threaded prog));
      let rec sweep fuel =
        let t = ending ~fuel Machine.Threaded prog
        and r = ending ~fuel Machine.Reference prog in
        let ctxt = Printf.sprintf "%s, fuel %d" name fuel in
        (match (t, r) with
        | `Done a, `Done b -> Testutil.check_outcomes_equal ctxt a b
        | `Trap a, `Trap b -> Alcotest.(check string) (ctxt ^ ": same trap") b a
        | `Out_of_fuel, `Out_of_fuel -> ()
        | _ ->
          Alcotest.failf "%s: threaded ends with %s, reference with %s" ctxt
            (ending_name t) (ending_name r));
        match r with
        | `Out_of_fuel -> sweep (fuel + 1)
        | `Done o ->
          Alcotest.(check int) (name ^ ": finishes at fuel = ils + 1")
            (o.Machine.counters.Counters.ils + 1) fuel
        | `Trap _ -> ()
      in
      sweep 1)
    fuel_programs

(* ------------------------------------------------------------------ *)
(* Trap parity                                                         *)
(* ------------------------------------------------------------------ *)

let trap_of engine prog ~input =
  match Machine.run ~engine prog ~input with
  | _ -> None
  | exception Machine.Trap msg -> Some msg

let check_same_trap name prog =
  let t = trap_of Machine.Threaded prog ~input:"" in
  let r = trap_of Machine.Reference prog ~input:"" in
  (match t with
  | None -> Alcotest.failf "%s: threaded engine did not trap" name
  | Some _ -> ());
  Alcotest.(check (option string)) (name ^ ": same trap message") r t

let test_trap_parity () =
  (* Division by zero, via source so both operands live in registers. *)
  check_same_trap "div by zero"
    (Testutil.compile
       "int main() { int a; int b; a = 7; b = 0; return a / b; }");
  (* Unbounded recursion exhausts the simulated control stack. *)
  check_same_trap "stack overflow"
    (Testutil.compile
       "int f(int n) { int big[64]; big[0] = n; return f(n + 1); }\n\
        int main() { return f(0); }");
  (* A body with no Ret falls off the end (unreachable from C input,
     so built directly in IL). *)
  check_same_trap "fell off the end"
    (one_func_program [| Il.Mov (0, Il.Imm 42) |] ~nregs:1);
  (* An indirect call through a non-function address. *)
  check_same_trap "bad indirect pointer"
    (one_func_program
       [|
         Il.Mov (0, Il.Imm 12345);
         Il.Call_ind (0, Il.Reg 0, [], Some 0);
         Il.Ret (Some (Il.Reg 0));
       |]
       ~nregs:1)

(* Out-of-range memory traps must agree too, including addresses near
   max_int whose bounds check must not overflow. *)
let test_memory_trap_parity () =
  List.iter
    (fun addr ->
      let prog =
        one_func_program
          [|
            Il.Mov (0, Il.Imm addr);
            Il.Load (Il.Word, 0, Il.Reg 0);
            Il.Ret (Some (Il.Reg 0));
          |]
          ~nregs:1
      in
      check_same_trap (Printf.sprintf "load at %d" addr) prog)
    [ 0; -8; 1_000_000_000; max_int / 2 ]

(* ------------------------------------------------------------------ *)
(* A reused memory image reads like a fresh one                        *)
(* ------------------------------------------------------------------ *)

(* Input "r" prints five cells; any other input first writes them —
   words into the never-allocated heap and below main's (deepest) frame,
   a byte, and two bytes through [read] — then, on "t", traps and, on
   "f", spins until out of fuel.  Both modes share one layout, so the
   reader looks at exactly the cells the writer wrote. *)
let image_src =
  {|
extern int getchar();
extern int print_int(int n);
extern int putchar(int c);
extern int read(char *p, int n);
int g[2];
char s[2];
int main() {
  int mode; int local; int *heap; int *below; char *bytes;
  heap = g + 6000;
  below = &local - 4000;
  bytes = s + 70000;
  mode = getchar();
  if (mode != 'r') {
    heap[0] = 11; below[0] = 22; bytes[0] = 33; read(bytes + 8, 2);
    if (mode == 't') return 1 / (mode - mode);
    if (mode == 'f') while (1) local = local + 1;
  }
  print_int(heap[0]); putchar(' '); print_int(below[0]); putchar(' ');
  print_int(bytes[0]); putchar(' '); print_int(bytes[8]); putchar(' ');
  print_int(bytes[9]);
  return 0;
}
|}

(* After a writer that finished, trapped or ran out of fuel, the next
   run on the same domain — each engine after each — must read zeros,
   exactly as the reader does when it runs first. *)
let test_reused_image_reads_fresh () =
  let prog = Testutil.compile image_src in
  Alcotest.(check bool) "supported" true (Threaded.supported prog);
  let engines = [ ("threaded", Machine.Threaded); ("reference", Machine.Reference) ] in
  let read engine = (Machine.run ~engine prog ~input:"r").Machine.output in
  let fresh = read Machine.Reference in
  Alcotest.(check string) "reader alone reads zeros" "0 0 0 0 0" fresh;
  let writers =
    [
      ("finishes", "wxy", "exit 0, output 11 22 33 120 121");
      ("traps", "txy", "trap: division by zero");
      ("runs out of fuel", "fxy", "out of fuel");
    ]
  in
  List.iter
    (fun (wname, weng) ->
      List.iter
        (fun (rname, reng) ->
          List.iter
            (fun (what, input, expect) ->
              Alcotest.(check string) (wname ^ " writer " ^ what) expect
                (ending_name (ending ~input ~fuel:100_000 weng prog));
              Alcotest.(check string)
                (Printf.sprintf "%s reader after a %s writer that %s" rname wname what)
                fresh (read reng))
            writers)
        engines)
    engines

(* ------------------------------------------------------------------ *)
(* Fallback for unsupported programs                                   *)
(* ------------------------------------------------------------------ *)

(* An immediate that does not survive the tagged-operand shift forces
   the threaded engine's [supported] gate off; Machine.run must fall
   back to the reference engine transparently. *)
let test_unsupported_fallback () =
  let prog =
    one_func_program [| Il.Ret (Some (Il.Imm max_int)) |] ~nregs:1
  in
  Alcotest.(check bool) "rejected by supported" false (Threaded.supported prog);
  let t, r = both_engines prog ~input:"" in
  Testutil.check_outcomes_equal "unsupported fallback" t r

(* ------------------------------------------------------------------ *)
(* keep_outputs                                                        *)
(* ------------------------------------------------------------------ *)

let test_keep_outputs () =
  let b = Impact_bench_progs.Suite.find "wc" in
  let prog = suite_prog b in
  let inputs = b.B.inputs () in
  let kept = Profiler.profile ~keep_outputs:true prog ~inputs in
  let dropped = Profiler.profile ~keep_outputs:false prog ~inputs in
  if not (profiles_equal kept.Profiler.profile dropped.Profiler.profile) then
    Alcotest.fail "keep_outputs:false changed the profile";
  List.iter2
    (fun (k : Machine.outcome) (d : Machine.outcome) ->
      Alcotest.(check string) "digest survives" k.Machine.output_digest
        d.Machine.output_digest;
      Alcotest.(check string) "output text dropped" "" d.Machine.output;
      Alcotest.(check string) "digest is of the kept output"
        (Digest.to_hex (Digest.string k.Machine.output))
        (Digest.to_hex d.Machine.output_digest))
    kept.Profiler.runs dropped.Profiler.runs

(* ------------------------------------------------------------------ *)
(* Resource budgets: both engines must hit the same wall at the same
   place — the output watermark traps with the identical message, and
   the wall-clock deadline raises the same exception.                  *)
(* ------------------------------------------------------------------ *)

let test_output_budget_parity () =
  let prog =
    Testutil.compile
      {|
extern int putchar(int c);
int main() { int i; for (i = 0; i < 100; i++) putchar(65); return 0; }
|}
  in
  let budget = Impact_interp.Rt.budget ~max_output:10 () in
  let trap engine =
    match Machine.run ~budget ~engine prog ~input:"" with
    | _ -> Alcotest.fail "expected the output budget to trap"
    | exception Machine.Trap msg -> msg
  in
  Alcotest.(check string) "identical output-budget trap"
    (trap Machine.Reference) (trap Machine.Threaded);
  (* Under the watermark the budget is invisible: outcomes stay equal to
     an unbudgeted run on both engines. *)
  let roomy = Impact_interp.Rt.budget ~max_output:1000 () in
  let t = Machine.run ~budget:roomy ~engine:Machine.Threaded prog ~input:"" in
  let r = Machine.run ~budget:roomy ~engine:Machine.Reference prog ~input:"" in
  Testutil.check_outcomes_equal "under the output budget" t r;
  Testutil.check_outcomes_equal "budget invisible when not hit" t
    (Machine.run ~engine:Machine.Reference prog ~input:"")

let test_deadline_parity () =
  let prog =
    Testutil.compile
      {|
int one() { return 1; }
int main() { int i, s = 0; for (i = 0; i < 200000; i++) s += one(); return s & 0; }
|}
  in
  let budget = Impact_interp.Rt.budget ~timeout_s:1e-9 () in
  List.iter
    (fun engine ->
      match Machine.run ~budget ~engine prog ~input:"" with
      | _ -> Alcotest.fail "expected Deadline_exceeded"
      | exception Machine.Deadline_exceeded -> ())
    [ Machine.Threaded; Machine.Reference ];
  (* A generous deadline never fires. *)
  let roomy = Impact_interp.Rt.budget ~timeout_s:3600. () in
  let t = Machine.run ~budget:roomy ~engine:Machine.Threaded prog ~input:"" in
  let r = Machine.run ~budget:roomy ~engine:Machine.Reference prog ~input:"" in
  Testutil.check_outcomes_equal "under the deadline" t r

(* ------------------------------------------------------------------ *)

let props =
  [
    QCheck.Test.make ~count:80 ~name:"threaded and reference engines agree"
      gen_source engines_agree;
  ]

let tests =
  List.map QCheck_alcotest.to_alcotest props
  @ [
      Alcotest.test_case "suite differential (profiles and outcomes)" `Slow
        test_suite_differential;
      Alcotest.test_case "profiling is deterministic across job counts" `Quick
        test_jobs_deterministic;
      Alcotest.test_case "out-of-fuel boundary parity" `Quick test_fuel_boundary;
      Alcotest.test_case "trap parity" `Quick test_trap_parity;
      Alcotest.test_case "memory trap parity" `Quick test_memory_trap_parity;
      Alcotest.test_case "a reused image reads like a fresh one" `Quick
        test_reused_image_reads_fresh;
      Alcotest.test_case "unsupported programs fall back to reference" `Quick
        test_unsupported_fallback;
      Alcotest.test_case "keep_outputs drops text, keeps digest" `Quick
        test_keep_outputs;
      Alcotest.test_case "output-budget trap parity" `Quick
        test_output_budget_parity;
      Alcotest.test_case "deadline parity" `Quick test_deadline_parity;
    ]
