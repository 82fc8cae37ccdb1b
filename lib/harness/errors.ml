(* Exception classification: the bridge between the exceptions the
   lower layers raise (front-end errors with source locations,
   interpreter traps, injected faults, I/O failures) and the typed
   {!Impact_support.Ierr.t} taxonomy drivers act on.

   It lives in the harness because {!Impact_support} sits below the
   front end and interpreter in the dependency order and cannot see
   their exception constructors; every stage boundary in {!Pipeline} and
   the CLI funnels through {!guard} so exactly one typed, stage-tagged
   error emerges from a failing stage. *)

module Ierr = Impact_support.Ierr
module Fault = Impact_support.Fault
module Rt = Impact_interp.Rt

(* Severity/recovery defaults per stage: what a degrading driver is
   entitled to do when this stage fails.  Front-end failures are fatal —
   without a program there is nothing to degrade to; profile failures
   fall back to static weights (the paper's no-inlining baseline);
   expansion failures skip the offending caller. *)
let stage_policy : Ierr.stage -> Ierr.severity * Ierr.recovery = function
  | Ierr.Parse | Ierr.Sema | Ierr.Lower -> (Ierr.Fatal, Ierr.Abort)
  | Ierr.Profile_io | Ierr.Profile_run -> (Ierr.Degradable, Ierr.Fallback_static)
  | Ierr.Expand -> (Ierr.Skippable, Ierr.Skip_caller)
  | Ierr.Callgraph | Ierr.Select -> (Ierr.Fatal, Ierr.Abort)
  | Ierr.Pool -> (Ierr.Degradable, Ierr.Retry_once)
  | Ierr.Artifact -> (Ierr.Skippable, Ierr.Skip_benchmark)
  (* A broken cache entry is never fatal to anything: the stage that
     missed simply recomputes. *)
  | Ierr.Cache -> (Ierr.Skippable, Ierr.Retry_once)
  (* A failed request is one unit of service work: the daemon drops or
     rejects it and keeps serving; the client may retry. *)
  | Ierr.Serve -> (Ierr.Skippable, Ierr.Retry_once)
  | Ierr.Driver -> (Ierr.Fatal, Ierr.Abort)

let classify stage exn : Ierr.t =
  let severity, recovery = stage_policy stage in
  let make ?loc ?(stage = stage) msg = Ierr.make ~severity ~recovery ?loc stage msg in
  match exn with
  | Ierr.Error e -> e (* already typed: the innermost stage wins *)
  | Impact_cfront.Lexer.Lex_error (msg, loc) ->
    { (make ~loc:(Impact_cfront.Srcloc.to_string loc) ~stage:Ierr.Parse msg) with
      severity = Ierr.Fatal; recovery = Ierr.Abort }
  | Impact_cfront.Parser.Parse_error (msg, loc) ->
    { (make ~loc:(Impact_cfront.Srcloc.to_string loc) ~stage:Ierr.Parse msg) with
      severity = Ierr.Fatal; recovery = Ierr.Abort }
  | Impact_cfront.Sema.Sema_error (msg, loc) ->
    { (make ~loc:(Impact_cfront.Srcloc.to_string loc) ~stage:Ierr.Sema msg) with
      severity = Ierr.Fatal; recovery = Ierr.Abort }
  | Impact_il.Lower.Lower_error msg ->
    { (make ~stage:Ierr.Lower msg) with severity = Ierr.Fatal; recovery = Ierr.Abort }
  | Rt.Trap msg -> make (Printf.sprintf "runtime trap: %s" msg)
  | Rt.Out_of_fuel -> make "run exceeded its instruction budget (fuel)"
  | Rt.Deadline_exceeded -> make "run exceeded its wall-clock budget"
  | Rt.Invalid_il msg -> make msg
  | Fault.Injected p ->
    make (Printf.sprintf "injected fault at %s" (Fault.point_name p))
  | Sys_error msg -> make (Printf.sprintf "i/o error: %s" msg)
  | Invalid_argument msg -> make (Printf.sprintf "invalid argument: %s" msg)
  | Failure msg -> make msg
  | exn -> make (Printexc.to_string exn)

let guard stage f =
  try f () with
  | Ierr.Error _ as e -> raise e
  | exn -> raise (Ierr.Error (classify stage exn))
