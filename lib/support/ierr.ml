(* Structured pipeline errors: every failure anywhere in the tool chain
   is reported as one [t] carrying the stage it came from, how bad it is,
   and what a degrading driver is allowed to do about it.  The paper's
   inliner is conservative in the face of missing *information* (the
   $$$/### nodes); this module is the analogous discipline for missing
   or broken *machinery*: a corrupt profile, a crashed worker, an
   exhausted budget each map to a typed, policy-carrying error instead
   of an anonymous exception. *)

type stage =
  | Parse
  | Sema
  | Lower
  | Profile_io
  | Profile_run
  | Callgraph
  | Select
  | Expand
  | Pool
  | Artifact
  | Cache
  | Serve
  | Driver

type severity =
  | Fatal       (* no sound fallback exists: stop this unit of work *)
  | Degradable  (* a conservative substitute exists (e.g. static weights) *)
  | Skippable   (* the unit can simply be skipped; the rest is unaffected *)

type recovery =
  | Abort
  | Fallback_static
  | Skip_caller
  | Skip_benchmark
  | Retry_once

type t = {
  stage : stage;
  severity : severity;
  recovery : recovery;
  msg : string;
  loc : string option;
}

exception Error of t

let make ?(severity = Fatal) ?(recovery = Abort) ?loc stage msg =
  { stage; severity; recovery; msg; loc }

let error ?severity ?recovery ?loc stage fmt =
  Printf.ksprintf
    (fun msg -> raise (Error (make ?severity ?recovery ?loc stage msg)))
    fmt

let stage_name = function
  | Parse -> "parse"
  | Sema -> "sema"
  | Lower -> "lower"
  | Profile_io -> "profile-io"
  | Profile_run -> "profile-run"
  | Callgraph -> "callgraph"
  | Select -> "select"
  | Expand -> "expand"
  | Pool -> "pool"
  | Artifact -> "artifact"
  | Cache -> "cache"
  | Serve -> "serve"
  | Driver -> "driver"

let all_stages =
  [ Parse; Sema; Lower; Profile_io; Profile_run; Callgraph; Select; Expand;
    Pool; Artifact; Cache; Serve; Driver ]

let stage_of_name s = List.find_opt (fun st -> stage_name st = s) all_stages

let severity_name = function
  | Fatal -> "fatal"
  | Degradable -> "degradable"
  | Skippable -> "skippable"

let severity_of_name = function
  | "fatal" -> Some Fatal
  | "degradable" -> Some Degradable
  | "skippable" -> Some Skippable
  | _ -> None

let recovery_name = function
  | Abort -> "abort"
  | Fallback_static -> "fallback-static"
  | Skip_caller -> "skip-caller"
  | Skip_benchmark -> "skip-benchmark"
  | Retry_once -> "retry-once"

let recovery_of_name = function
  | "abort" -> Some Abort
  | "fallback-static" -> Some Fallback_static
  | "skip-caller" -> Some Skip_caller
  | "skip-benchmark" -> Some Skip_benchmark
  | "retry-once" -> Some Retry_once
  | _ -> None

(* CLI error classes: usage errors exit 2 (handled by the driver before
   any [t] exists), front-end errors 3, profile errors 4, everything
   else is an internal error, 5. *)
let exit_code t =
  match t.stage with
  | Parse | Sema | Lower -> 3
  | Profile_io | Profile_run -> 4
  | Callgraph | Select | Expand | Pool | Artifact | Cache | Serve | Driver -> 5

let to_string t =
  match t.loc with
  | Some loc -> Printf.sprintf "%s error at %s: %s" (stage_name t.stage) loc t.msg
  | None -> Printf.sprintf "%s error: %s" (stage_name t.stage) t.msg

(* An error that escapes every handler (a test, a bench executable)
   still prints its stage and message. *)
let () =
  Printexc.register_printer (function
    | Error t -> Some ("Ierr.Error: " ^ to_string t)
    | _ -> None)

(* Wrap an arbitrary exception as an internal error of [stage].  The
   harness layer ({!Impact_harness}) installs richer classification for
   the exceptions it knows (front-end locations, interpreter traps); this
   is the catch-all floor. *)
let of_exn ?severity ?recovery stage = function
  | Error e -> e
  | exn -> make ?severity ?recovery stage (Printexc.to_string exn)
