(* The impactd wire protocol: length-prefixed JSON frames.

   One frame is a 4-byte big-endian unsigned length N followed by N
   bytes holding exactly one JSON document terminated by '\n' (the
   newline is included in N) — JSONL, with an explicit length so a
   reader never scans an unbounded stream for a delimiter and a
   malformed payload can be skipped without losing framing.  N is
   bounded by [max_frame_bytes]; a larger prefix is rejected before a
   single payload byte is read, because a stream whose framing cannot
   be trusted cannot be resynchronised.

   Requests and responses are versioned records ([version] = 1).  A
   request object:

     {"v":1, "id":<int>, "kind":"ping"|"compile"|"profile"|"report"|
      "stats"|"shutdown", ...kind-specific fields...}

   A response object:

     {"v":1, "id":<int>, "ok":true,  "result":{...}}
     {"v":1, "id":<int>, "ok":false, "error":{"stage":...,"severity":...,
      "recovery":...,"msg":...,"loc":...}}

   Error payloads are serialized {!Impact_support.Ierr.t} values, so a
   client sees exactly the typed taxonomy the batch CLI acts on. *)

module Sink = Impact_obs.Sink
module Ierr = Impact_support.Ierr
module Fault = Impact_support.Fault
module Pipeline = Impact_harness.Pipeline
module Config = Impact_core.Config

let version = 1

let max_frame_bytes = 8 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Frame I/O                                                           *)
(* ------------------------------------------------------------------ *)

type frame_error =
  | Closed  (** clean EOF at a frame boundary *)
  | Truncated  (** EOF mid-frame: the peer vanished mid-request *)
  | Empty  (** length prefix 0, shorter than any frame's '\n' *)
  | Oversized of int  (** length prefix beyond [max_frame_bytes] *)
  | Bad_json of string  (** framing intact, payload unparseable *)

let frame_error_to_string = function
  | Closed -> "connection closed"
  | Truncated -> "truncated frame"
  | Empty -> "empty frame (length prefix 0)"
  | Oversized n ->
    Printf.sprintf "oversized frame (%d bytes > %d limit)" n max_frame_bytes
  | Bad_json msg -> Printf.sprintf "invalid JSON payload: %s" msg

(* Read exactly [n] bytes, restarting on EINTR; [`Eof got] when the
   stream ends first. *)
let really_read fd buf n =
  let rec go off =
    if off >= n then `Ok
    else
      match Unix.read fd buf off (n - off) with
      | 0 -> `Eof off
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let read_frame fd =
  let hdr = Bytes.create 4 in
  match really_read fd hdr 4 with
  | `Eof 0 -> Error Closed
  | `Eof _ -> Error Truncated
  | `Ok -> (
    let n = Int32.to_int (Bytes.get_int32_be hdr 0) land 0xffff_ffff in
    if n = 0 then Error Empty
    else if n > max_frame_bytes then Error (Oversized n)
    else
      let payload = Bytes.create n in
      match really_read fd payload n with
      | `Eof _ -> Error Truncated
      | `Ok -> (
        match Sink.json_of_string (Bytes.unsafe_to_string payload) with
        | json -> Ok json
        | exception Sink.Parse_error msg -> Error (Bad_json msg)))

(* A frame is rendered into one buffer, behind four bytes kept for its
   length, and written with a single [Unix.write] attempt loop so
   concurrent writers on *different* connections never interleave; one
   connection has one writer (its handler thread) by construction.  The
   connection keeps that buffer, and the bytes the rendered frame is
   copied into for the write, from frame to frame: once they have grown
   to a frame's size, a frame of that size allocates nothing. *)
type frame_buf = { buf : Buffer.t; mutable out : Bytes.t }

let frame_buf () = { buf = Buffer.create 4096; out = Bytes.create 4096 }

let write_frame fb fd json =
  let buf = fb.buf in
  Buffer.clear buf;
  Buffer.add_string buf "\000\000\000\000";
  Sink.json_to_buffer buf json;
  Buffer.add_char buf '\n';
  let total = Buffer.length buf in
  let n = total - 4 in
  if n > max_frame_bytes then
    invalid_arg "Protocol.write_frame: frame exceeds max_frame_bytes";
  if Bytes.length fb.out < total then
    fb.out <- Bytes.create (max total (2 * Bytes.length fb.out));
  let frame = fb.out in
  Buffer.blit buf 0 frame 0 total;
  Bytes.set_int32_be frame 0 (Int32.of_int n);
  let rec go off =
    if off < total then
      match Unix.write fd frame off (total - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Typed errors on the wire                                            *)
(* ------------------------------------------------------------------ *)

let ierr_to_json (e : Ierr.t) =
  Sink.Obj
    ([
       ("stage", Sink.String (Ierr.stage_name e.Ierr.stage));
       ("severity", Sink.String (Ierr.severity_name e.Ierr.severity));
       ("recovery", Sink.String (Ierr.recovery_name e.Ierr.recovery));
       ("msg", Sink.String e.Ierr.msg);
     ]
    @ match e.Ierr.loc with None -> [] | Some l -> [ ("loc", Sink.String l) ])

let ierr_of_json j =
  let str k = match Sink.mem k j with Sink.String s -> Some s | _ -> None in
  let stage =
    Option.bind (str "stage") Ierr.stage_of_name
    |> Option.value ~default:Ierr.Serve
  in
  let severity =
    Option.bind (str "severity") Ierr.severity_of_name
    |> Option.value ~default:Ierr.Fatal
  in
  let recovery =
    Option.bind (str "recovery") Ierr.recovery_of_name
    |> Option.value ~default:Ierr.Abort
  in
  let msg = Option.value ~default:"(no message)" (str "msg") in
  Ierr.make ~severity ~recovery ?loc:(str "loc") stage msg

let serve_error fmt =
  Printf.ksprintf
    (fun msg ->
      Ierr.make ~severity:Ierr.Skippable ~recovery:Ierr.Retry_once Ierr.Serve msg)
    fmt

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

(* Chaos-only: one fault-injection arming carried by a request, honored
   only by a daemon started with fault injection allowed.  Injection
   points are process-global ({!Impact_support.Fault}), so a faulted
   request running concurrently with clean ones may fault a neighbour —
   exactly the cross-request blast radius the load generator and the
   state-leak tests exercise. *)
type fault_spec = { f_point : Fault.point; f_after : int; f_sticky : bool }

(* Per-request execution parameters shared by compile/profile/report. *)
type job = {
  j_source : string;
  j_inputs : string list;
  j_policy : Pipeline.policy;
  j_devirt : bool;
  j_devirt_threshold : float;
  j_timeout_s : float option;
  j_max_output : int option;
  j_fault : fault_spec option;
}

type kind =
  | Ping
  | Compile of job  (** full pipeline: profile → inline → re-profile *)
  | Profile of job  (** profile only: lower, pre-opt, run the inputs *)
  | Report of string * job  (** named built-in benchmark, table rows *)
  | Stats
  | Shutdown

type request = { rq_id : int; rq_kind : kind }

let kind_name = function
  | Ping -> "ping"
  | Compile _ -> "compile"
  | Profile _ -> "profile"
  | Report _ -> "report"
  | Stats -> "stats"
  | Shutdown -> "shutdown"

let default_job =
  {
    j_source = "";
    j_inputs = [ "" ];
    j_policy = Pipeline.Strict;
    (* Off by default: clients that predate the field keep the exact
       non-speculative pipeline. *)
    j_devirt = false;
    j_devirt_threshold = Config.default.Config.devirt_threshold;
    j_timeout_s = None;
    j_max_output = None;
    j_fault = None;
  }

let parse_fault j =
  match j with
  | Sink.Null -> Ok None
  | _ -> (
    let point_name =
      match Sink.mem "point" j with Sink.String s -> s | _ -> ""
    in
    match Fault.point_of_name point_name with
    | None -> Error (serve_error "unknown fault point %S" point_name)
    | Some p ->
      let after = match Sink.mem "after" j with Sink.Int n -> n | _ -> 0 in
      let sticky =
        match Sink.mem "sticky" j with Sink.Bool b -> b | _ -> false
      in
      Ok (Some { f_point = p; f_after = after; f_sticky = sticky }))

let parse_job j =
  let ( let* ) = Result.bind in
  let source = match Sink.mem "source" j with Sink.String s -> s | _ -> "" in
  let* inputs =
    match Sink.mem "inputs" j with
    | Sink.Null -> Ok [ "" ]
    | Sink.List l ->
      let rec strings acc = function
        | [] -> Ok (List.rev acc)
        | Sink.String s :: tl -> strings (s :: acc) tl
        | _ -> Error (serve_error "inputs must be an array of strings")
      in
      if l = [] then Ok [ "" ] else strings [] l
    | _ -> Error (serve_error "inputs must be an array of strings")
  in
  let* policy =
    match Sink.mem "policy" j with
    | Sink.Null -> Ok Pipeline.Strict
    | Sink.String "strict" -> Ok Pipeline.Strict
    | Sink.String "degrade" -> Ok Pipeline.Degrade
    | Sink.String s -> Error (serve_error "unknown policy %S" s)
    | _ -> Error (serve_error "policy must be \"strict\" or \"degrade\"")
  in
  (* The retired engine field: clients no longer send it, and frames
     from earlier clients carry "threaded", the only engine there is. *)
  let* () =
    match Sink.mem "engine" j with
    | Sink.Null | Sink.String "threaded" -> Ok ()
    | _ ->
      Error (serve_error "engine is retired; only \"threaded\" is accepted")
  in
  (* The retired profile_mode field, the same way: earlier clients
     sent "full" on every frame. *)
  let* () =
    match Sink.mem "profile_mode" j with
    | Sink.Null -> Ok ()
    | Sink.String s when s = Impact_profile.Coverage.(mode_name Full) -> Ok ()
    | Sink.String s -> Error (serve_error "unknown profile_mode %S" s)
    | _ -> Error (serve_error "profile_mode must be a string")
  in
  let* devirt =
    match Sink.mem "devirt" j with
    | Sink.Null -> Ok false
    | Sink.Bool b -> Ok b
    | _ -> Error (serve_error "devirt must be a boolean")
  in
  (* A numeric knob, validated by the check its definition provides;
     anything but a number fails that check as NaN. *)
  let number key check =
    match Sink.mem key j with
    | Sink.Null -> Ok None
    | v -> (
      let x = match v with Sink.Float x -> x | Sink.Int n -> float_of_int n | _ -> nan in
      match check x with
      | Ok x -> Ok (Some x)
      | Error msg -> Error (serve_error "%s %s" key msg))
  in
  let* devirt_threshold = number "devirt_threshold" Config.check_devirt_threshold in
  let* timeout_s = number "timeout_s" Impact_interp.Rt.check_timeout_s in
  let* max_output =
    match Sink.mem "max_output" j with
    | Sink.Null -> Ok None
    | Sink.Int n when n > 0 -> Ok (Some n)
    | _ -> Error (serve_error "max_output must be a positive integer")
  in
  let* fault = parse_fault (Sink.mem "fault" j) in
  Ok
    {
      j_source = source;
      j_inputs = inputs;
      j_policy = policy;
      j_devirt = devirt;
      j_devirt_threshold =
        Option.value devirt_threshold ~default:Config.default.Config.devirt_threshold;
      j_timeout_s = timeout_s;
      j_max_output = max_output;
      j_fault = fault;
    }

let parse_request j =
  let ( let* ) = Result.bind in
  let* () =
    match Sink.mem "v" j with
    | Sink.Int v when v = version -> Ok ()
    | Sink.Int v ->
      Error (serve_error "protocol version %d not supported (want %d)" v version)
    | _ -> Error (serve_error "request lacks a \"v\" version field")
  in
  let id = match Sink.mem "id" j with Sink.Int n -> n | _ -> 0 in
  let* kind =
    match Sink.mem "kind" j with
    | Sink.String "ping" -> Ok Ping
    | Sink.String "stats" -> Ok Stats
    | Sink.String "shutdown" -> Ok Shutdown
    | Sink.String "compile" ->
      let* job = parse_job j in
      if job.j_source = "" then
        Error (serve_error "compile request lacks \"source\"")
      else Ok (Compile job)
    | Sink.String "profile" ->
      let* job = parse_job j in
      if job.j_source = "" then
        Error (serve_error "profile request lacks \"source\"")
      else Ok (Profile job)
    | Sink.String "report" -> (
      let* job = parse_job j in
      match Sink.mem "benchmark" j with
      | Sink.String b when b <> "" -> Ok (Report (b, job))
      | _ -> Error (serve_error "report request lacks \"benchmark\""))
    | Sink.String s -> Error (serve_error "unknown request kind %S" s)
    | _ -> Error (serve_error "request lacks a \"kind\" field")
  in
  Ok { rq_id = id; rq_kind = kind }

(* ------------------------------------------------------------------ *)
(* Request construction (client side)                                  *)
(* ------------------------------------------------------------------ *)

let job_fields job =
  (if job.j_source = "" then [] else [ ("source", Sink.String job.j_source) ])
  @ [
      ("inputs", Sink.List (List.map (fun s -> Sink.String s) job.j_inputs));
      ( "policy",
        Sink.String
          (match job.j_policy with
          | Pipeline.Strict -> "strict"
          | Pipeline.Degrade -> "degrade") );
    ]
  @ (if not job.j_devirt then []
     else
       (* Omitted when off, so frames from devirt-unaware clients keep
          their exact historical bytes. *)
       [
         ("devirt", Sink.Bool true);
         ("devirt_threshold", Sink.Float job.j_devirt_threshold);
       ])
  @ (match job.j_timeout_s with
    | None -> []
    | Some t -> [ ("timeout_s", Sink.Float t) ])
  @ (match job.j_max_output with
    | None -> []
    | Some n -> [ ("max_output", Sink.Int n) ])
  @
  match job.j_fault with
  | None -> []
  | Some f ->
    [
      ( "fault",
        Sink.Obj
          [
            ("point", Sink.String (Fault.point_name f.f_point));
            ("after", Sink.Int f.f_after);
            ("sticky", Sink.Bool f.f_sticky);
          ] );
    ]

let request_to_json { rq_id; rq_kind } =
  let base = [ ("v", Sink.Int version); ("id", Sink.Int rq_id) ] in
  let kind = [ ("kind", Sink.String (kind_name rq_kind)) ] in
  Sink.Obj
    (base @ kind
    @
    match rq_kind with
    | Ping | Stats | Shutdown -> []
    | Compile job | Profile job -> job_fields job
    | Report (bench, job) ->
      ("benchmark", Sink.String bench) :: job_fields job)

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

let ok_response ~id result =
  Sink.Obj
    [
      ("v", Sink.Int version);
      ("id", Sink.Int id);
      ("ok", Sink.Bool true);
      ("result", result);
    ]

let error_response ~id err =
  Sink.Obj
    [
      ("v", Sink.Int version);
      ("id", Sink.Int id);
      ("ok", Sink.Bool false);
      ("error", ierr_to_json err);
    ]

(* [parse_response j] is [(id, Ok result | Error ierr)]; [Error _] at
   the outer level when [j] is not a response object at all. *)
let parse_response j =
  match (Sink.mem "id" j, Sink.mem "ok" j) with
  | Sink.Int id, Sink.Bool true -> Ok (id, Ok (Sink.mem "result" j))
  | Sink.Int id, Sink.Bool false ->
    Ok (id, Error (ierr_of_json (Sink.mem "error" j)))
  | _ -> Error "not a response object"
