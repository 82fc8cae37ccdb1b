(* A small synchronous client for the impactd protocol, used by the
   CLI-side tooling, the load generator and the protocol fuzz tests.
   One connection, blocking request/response; concurrency is achieved
   by opening several clients (one per load-generator thread). *)

module Sink = Impact_obs.Sink
module Ierr = Impact_support.Ierr

type t = {
  fd : Unix.file_descr;
  frames : Protocol.frame_buf;
  mutable next_id : int;
}

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> { fd; frames = Protocol.frame_buf (); next_id = 1 }
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let fd t = t.fd

exception Protocol_error of string

let request t kind =
  let id = t.next_id in
  t.next_id <- id + 1;
  Protocol.write_frame t.frames t.fd
    (Protocol.request_to_json { Protocol.rq_id = id; rq_kind = kind });
  match Protocol.read_frame t.fd with
  | Error fe -> raise (Protocol_error (Protocol.frame_error_to_string fe))
  | Ok json -> (
    match Protocol.parse_response json with
    | Error msg -> raise (Protocol_error msg)
    | Ok (rid, outcome) ->
      if rid <> id && rid <> 0 then
        raise
          (Protocol_error (Printf.sprintf "response id %d for request %d" rid id));
      outcome)

let send_raw t bytes =
  let n = String.length bytes in
  let buf = Bytes.of_string bytes in
  let rec loop off =
    if off < n then
      let w = Unix.write t.fd buf off (n - off) in
      loop (off + w)
  in
  loop 0

let read_response t =
  match Protocol.read_frame t.fd with
  | Error fe -> Error fe
  | Ok json -> (
    match Protocol.parse_response json with
    | Error msg -> Error (Protocol.Bad_json msg)
    | Ok (_, outcome) -> Ok outcome)
