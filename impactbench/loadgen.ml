(* The serve workload's daemon control and open-loop load generator.

   The daemon is a child process ([impactd -j 2 --cache DIR]); the load
   comes from this one process, two threads with one connection each.
   Request [i] is due at [t0 + i / rate] whatever happened before it, so
   a stall delays every later request and that delay is measured: each
   latency runs from the due time to the response, not from the send. *)

module Client = Impact_serve.Client
module Protocol = Impact_serve.Protocol
module Sink = Impact_obs.Sink
module Ierr = Impact_support.Ierr

type daemon = { pid : int; socket : string }

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false

let ping socket =
  match Client.connect socket with
  | exception Unix.Unix_error _ -> false
  | c ->
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        match Client.request c Protocol.Ping with
        | Ok _ -> true
        | Error _ | (exception _) -> false)

(* Daemons started and not yet stopped, for {!stop_all}. *)
let running = ref []

(* [stop d] asks the daemon to shut down, waits for it to exit, and
   kills it if it has not exited after ten seconds. *)
let stop d =
  running := List.filter (fun x -> x.pid <> d.pid) !running;
  (match Client.connect d.socket with
  | exception Unix.Unix_error _ -> ()
  | c ->
    (try ignore (Client.request c Protocol.Shutdown) with _ -> ());
    Client.close c);
  let deadline = Unix.gettimeofday () +. 10. in
  while alive d.pid && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  if alive d.pid then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ()
  end

(* [start ~exe ~socket ~cache_dir] spawns the daemon and returns once it
   answers a ping. *)
let start ~exe ~socket ~cache_dir =
  let pid =
    Unix.create_process exe
      [| exe; "--socket"; socket; "--cache"; cache_dir; "-j"; "2"; "-q" |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let d = { pid; socket } in
  running := d :: !running;
  let deadline = Unix.gettimeofday () +. 30. in
  let rec wait () =
    if ping socket then d
    else if not (alive pid) then failwith "impactd exited during start-up"
    else if Unix.gettimeofday () > deadline then begin
      stop d;
      failwith "impactd did not answer a ping within 30 s"
    end
    else begin
      Unix.sleepf 0.005;
      wait ()
    end
  in
  wait ()

let stop_all () = List.iter stop !running

let stats socket =
  let c = Client.connect socket in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      match Client.request c Protocol.Stats with
      | Ok j -> j
      | Error e -> failwith ("stats request failed: " ^ Ierr.to_string e))

type sample = {
  due : float;
  sent : float;
  finished : float;
  response : (Sink.json, string) result;
}

(* [run ~socket ~rate kinds] sends [kinds.(i)] at its due time over two
   connections and returns one sample per request, in request order. *)
let run ~socket ~rate (kinds : Protocol.kind array) =
  let n = Array.length kinds in
  let samples = Array.make n None in
  let next = Atomic.make 0 in
  let t0 = Unix.gettimeofday () +. 0.01 in
  let worker () =
    let conn = ref None in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let due = t0 +. (float_of_int i /. rate) in
        let wait = due -. Unix.gettimeofday () in
        if wait > 0. then Thread.delay wait;
        let sent = Unix.gettimeofday () in
        let response =
          match
            let c =
              match !conn with
              | Some c -> c
              | None ->
                let c = Client.connect socket in
                conn := Some c;
                c
            in
            Client.request c kinds.(i)
          with
          | Ok j -> Ok j
          | Error e -> Error (Ierr.to_string e)
          | exception e ->
            Option.iter Client.close !conn;
            conn := None;
            Error (Printexc.to_string e)
        in
        samples.(i) <- Some { due; sent; finished = Unix.gettimeofday (); response };
        loop ()
      end
    in
    Fun.protect ~finally:(fun () -> Option.iter Client.close !conn) loop
  in
  let threads = List.init 2 (fun _ -> Thread.create worker ()) in
  List.iter Thread.join threads;
  Array.map Option.get samples
