(* Differential tests pinning the pre-decoded threaded engine to the
   reference step interpreter: identical outcomes and counters on random
   programs and on the whole benchmark suite before and after inlining,
   identical trap messages, the same out-of-fuel boundary to the
   instruction (wide immediates included; malformed IL is refused), a
   reused memory image that reads like a fresh one, and deterministic
   domain-parallel profiling for any job count. *)

module Il = Impact_il.Il
module Machine = Impact_interp.Machine
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

(* [next_site] is one past the largest site id the bodies use, as the
   IL checker requires. *)
let program ?(globals = [||]) funcs =
  let next_site =
    Array.fold_left
      (fun n f -> List.fold_left (fun n s -> max n (s.Il.s_id + 1)) n (Il.sites_of f))
      0 funcs
  in
  {
    Il.funcs;
    globals;
    strings = [||];
    externs = [];
    main = 0;
    next_site;
    address_taken = [];
  }

let one_func_program ?(nlabels = 0) ?globals body ~nregs =
  program ?globals [| func ~nregs ~nlabels 0 "main" body |]

(* ------------------------------------------------------------------ *)
(* Fuel-boundary parity                                                *)
(* ------------------------------------------------------------------ *)

(* Programs for the fuel sweep, each with how it ends given enough
   fuel.  After fib come a switch whose case span exceeds [max_int] (the
   threaded decoder's jump-table size wrapped negative and passed its
   compactness test, so [Array.make] raised where the reference engine
   prints 210), one small program per pair the threaded engine fuses
   (see [Threaded.fuse]), built in IL so the pair is exactly there, then
   immediates beyond the threaded decoder's 62-bit tagged operand in
   every operand position (each reads from a constant slot after the IL
   registers), the C program whose pre-inline folding makes one, and a
   malformed program the threaded engine refuses. *)
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
  let folded =
    Testutil.compile
      {|
extern int getchar();
extern int print_int(int n);
int main() {
  int a; int b;
  a = 1500000000000000000 + 1500000000000000000;
  b = getchar();
  print_int(a + b);
  return a > b;
}
|}
  in
  ignore (Impact_opt.Driver.pre_inline folded);
  let big = 1 lsl 61 in
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
    ( "wide immediates in Mov, Un and Bin",
      one_func_program ~nregs:4
        [|
          Mov (0, Imm max_int);
          Bin (Sub, 1, Reg 0, Imm max_int);
          Bin (Sub, 2, Imm min_int, Reg 1);
          Bin (Add, 2, Reg 2, Imm big);
          Bin (Add, 2, Reg 2, Imm big);
          Bin (Add, 3, Imm max_int, Imm min_int);
          Un (Not, 1, Imm min_int);
          Bin (Xor, 1, Reg 1, Reg 0);
          Bin (Sub, 3, Reg 2, Reg 3);
          Bin (Add, 3, Reg 3, Reg 1);
          Ret (Some (Reg 3));
        |],
      "exit 1" );
    (* A wide compare fused into its branch, then a wide branch
       operand. *)
    ( "wide compare and branch operands",
      one_func_program ~nregs:2 ~nlabels:2
        [|
          Mov (0, Imm 5);
          Bin (Lt, 1, Reg 0, Imm big);
          Bnz (Reg 1, 0);
          Ret (Some (Imm 1));
          Label 0;
          Bnz (Imm min_int, 1);
          Ret (Some (Imm 2));
          Label 1;
          Ret (Some (Imm 3));
        |],
      "exit 3" );
    ( "wide store value",
      one_func_program ~nregs:3 ~globals:g16
        [|
          Lea_global (0, 0);
          Store (Word, Reg 0, Imm min_int);
          Load (Word, 1, Reg 0);
          Bin (Eq, 2, Reg 1, Imm min_int);
          Ret (Some (Reg 2));
        |],
      "exit 1" );
    (* Two calls passing wide arguments to a callee with its own
       constant slot; the second activation reuses the first's pooled
       register file, whose slot must survive. *)
    ( "wide call arguments",
      program
        [|
          func ~nregs:2 0 "main"
            [|
              Call (0, 1, [ Imm big; Imm 3 ], Some 0);
              Call (1, 1, [ Imm big; Reg 0 ], Some 1);
              Ret (Some (Reg 1));
            |];
          func ~nparams:2 ~nregs:3 1 "f"
            [|
              Bin (Add, 2, Reg 0, Imm max_int);
              Bin (Sub, 2, Reg 2, Imm max_int);
              Bin (Shr, 2, Reg 2, Imm 59);
              Bin (Add, 2, Reg 2, Reg 1);
              Ret (Some (Reg 2));
            |];
        |],
      "exit 11" );
    ("wide return", one_func_program ~nregs:1 [| Ret (Some (Imm min_int)) |],
      "exit " ^ string_of_int min_int);
    (* A sparse switch (binary search) and a compact one (jump table),
       each on a wide scrutinee. *)
    ( "wide switch scrutinees",
      one_func_program ~nregs:1 ~nlabels:4
        [|
          Switch (Imm max_int, [| (1, 0); (max_int, 1) |], 0);
          Label 0;
          Ret (Some (Imm 0));
          Label 1;
          Switch (Imm min_int, [| (0, 2); (1, 2) |], 3);
          Label 2;
          Ret (Some (Imm 1));
          Label 3;
          Ret (Some (Imm 2));
        |],
      "exit 2" );
    ( "wide indirect call target",
      one_func_program ~nregs:1
        [| Call_ind (0, Imm max_int, [], Some 0); Ret (Some (Reg 0)) |],
      "trap: indirect call through bad pointer " ^ string_of_int max_int );
    ("wide constant folded from C", folded, "exit 1, output 2999999999999999999");
    (* At no fuel is a malformed program run: the threaded engine refuses
       it whole, even where the bad reference is unreachable. *)
    ( "undefined label in dead code",
      one_func_program ~nregs:1 [| Mov (0, Imm 4); Ret (Some (Reg 0)); Jump 7 |],
      "profile-run error: invalid IL in main: no label L7" );
  ]

let ending ?(input = "") ?fuel engine prog =
  match Machine.run ?fuel ~engine prog ~input with
  | o -> `Done o
  | exception Machine.Trap msg -> `Trap msg
  | exception Machine.Out_of_fuel -> `Out_of_fuel
  | exception (Machine.Invalid_il _ as e) ->
    (* as the pipeline reports a refusal: a typed profile-run error *)
    `Refused
      Impact_support.Ierr.(
        to_string (Impact_harness.Errors.classify Profile_run e))

let ending_name = function
  | `Done (o : Machine.outcome) ->
    Printf.sprintf "exit %d%s" o.Machine.exit_code
      (if o.Machine.output = "" then "" else ", output " ^ o.Machine.output)
  | `Trap msg -> "trap: " ^ msg
  | `Out_of_fuel -> "out of fuel"
  | `Refused msg -> msg

(* Both engines spend one fuel unit per executed IL and raise
   {!Machine.Out_of_fuel} on the instruction that exhausts it, so at
   every fuel value from 1 up to the one that lets the program finish
   (ils + 1) or trap, they must end the same way: equal outcomes, the
   same trap message, or both out of fuel.  The sweep stops every pair
   of fused ILs at each of its two instructions.  A program the threaded
   engine refuses is refused at fuel 1 already; the oracle, which
   validates nothing, is not compared there. *)
let test_fuel_boundary () =
  List.iter
    (fun (name, prog, expect) ->
      Alcotest.(check string) (name ^ ": ends") expect
        (ending_name (ending Machine.Threaded prog));
      let rec sweep fuel =
        let t = ending ~fuel Machine.Threaded prog
        and r = ending ~fuel Machine.Reference prog in
        let ctxt = Printf.sprintf "%s, fuel %d" name fuel in
        match (t, r) with
        | `Refused _, _ ->
          Alcotest.(check string) (ctxt ^ ": refused") expect (ending_name t)
        | `Done a, `Done b ->
          Testutil.check_outcomes_equal ctxt a b;
          Alcotest.(check int) (name ^ ": finishes at fuel = ils + 1")
            (b.Machine.counters.Counters.ils + 1) fuel
        | `Trap a, `Trap b -> Alcotest.(check string) (ctxt ^ ": same trap") b a
        | `Out_of_fuel, `Out_of_fuel -> sweep (fuel + 1)
        | _ ->
          Alcotest.failf "%s: threaded ends with %s, reference with %s" ctxt
            (ending_name t) (ending_name r)
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

let check_same_trap ?expect name prog =
  let t = trap_of Machine.Threaded prog ~input:"" in
  let r = trap_of Machine.Reference prog ~input:"" in
  (match (t, expect) with
  | None, _ -> Alcotest.failf "%s: threaded engine did not trap" name
  | Some msg, Some e -> Alcotest.(check string) (name ^ ": trap message") e msg
  | Some _, None -> ());
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
       ~nregs:1);
  (* An indirect call through a mistyped pointer, passing more arguments
     than the callee has registers. *)
  check_same_trap "over-arity indirect call"
    ~expect:"call to f with 3 arguments, more than its 1-register file"
    (Testutil.compile
       "int f(int a) { return a; }\n\
        int main() { int (*p)(int, int, int); p = f; return p(1, 2, 3); }")

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
      Alcotest.test_case "keep_outputs drops text, keeps digest" `Quick
        test_keep_outputs;
      Alcotest.test_case "output-budget trap parity" `Quick
        test_output_budget_parity;
      Alcotest.test_case "deadline parity" `Quick test_deadline_parity;
    ]
