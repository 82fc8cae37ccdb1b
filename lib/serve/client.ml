(* A small synchronous client for the impactd protocol, used by the
   CLI-side tooling, the load generator and the protocol fuzz tests.
   One connection, blocking request/response; concurrency is achieved
   by opening several clients (one per load-generator thread).

   A connection sends each profiling input of at least [min_ref_bytes]
   in full once and as a reference to its MD5 afterwards.  Its memo of
   the inputs it has sent is the daemon's kind, with the same budget;
   the daemon's memo is shared and may have dropped an input this one
   still holds, so a refused reference costs one resend in full. *)

module Sink = Impact_obs.Sink
module Ierr = Impact_support.Ierr
module Digest_memo = Impact_support.Digest_memo

type t = {
  fd : Unix.file_descr;
  frames : Protocol.frame_buf;
  sent : Digest_memo.t;  (* inputs this connection has sent in full *)
  mutable next_id : int;
}

(* A reference is 42 bytes on the wire. *)
let min_ref_bytes = 64

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
    { fd; frames = Protocol.frame_buf (); sent = Digest_memo.create (); next_id = 1 }
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let fd t = t.fd

exception Protocol_error of string

(* One frame out, one back.  With [refs], each input this connection
   has sent in full goes as a reference, and each it sends in full now
   is digested once the frame is out, while the daemon works. *)
let exchange t ~refs rq =
  let fresh = ref [] in
  let by_ref s =
    if (not refs) || String.length s < min_ref_bytes then None
    else
      match Digest_memo.find t.sent s with
      | Some _ as sum -> sum
      | None ->
        if String.length s <= Digest_memo.budget then fresh := s :: !fresh;
        None
  in
  Protocol.write_frame t.frames t.fd (Protocol.request_to_json ~by_ref rq);
  List.iter (fun s -> ignore (Digest_memo.add t.sent s)) !fresh;
  match Protocol.read_frame t.fd with
  | Error fe -> raise (Protocol_error (Protocol.frame_error_to_string fe))
  | Ok json -> (
    match Protocol.parse_response json with
    | Error msg -> raise (Protocol_error msg)
    | Ok (rid, outcome) ->
      if rid <> rq.Protocol.rq_id && rid <> 0 then
        raise
          (Protocol_error
             (Printf.sprintf "response id %d for request %d" rid rq.Protocol.rq_id));
      outcome)

let request t kind =
  let id = t.next_id in
  t.next_id <- id + 1;
  let rq = { Protocol.rq_id = id; rq_kind = kind } in
  match exchange t ~refs:true rq with
  | Error e when Protocol.is_missing_input e -> exchange t ~refs:false rq
  | outcome -> outcome

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
