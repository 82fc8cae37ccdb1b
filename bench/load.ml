(* bench/load — the impactd load generator.

   Boots a daemon on a temporary socket, opens many concurrent client
   connections (cheap systhreads: each spends its life blocked on
   socket I/O), and replays a mixed request stream against it:

   - warm compiles: one shared source, so after the first miss every
     request is answered from the shared stage cache; one of their
     inputs is long enough to go by reference after a connection's
     first send, and the final stats must count such references;
   - cold compiles: generated, pairwise-distinct sources;
   - profiles and reports (the suite's "cmp" benchmark);
   - pings, as the control-plane floor;
   - faulted compiles (one-shot interpreter fault under the degrade
     policy — the daemon runs with fault injection allowed, so these
     exercise the recovery path and, because fault points are
     process-global, the cross-request blast radius);
   - malformed connections: raw garbage instead of frames, and compile
     frames naming an unknown or a malformed input reference, on
     dedicated connections.

   Requests refused by admission control (typed Serve/retry-once
   errors) are retried with backoff — the generator exercises load
   shedding rather than hiding from it.

   The run fails loudly ("zero crashes" is the acceptance criterion)
   if any request goes unanswered, any connection dies un-typed, the
   daemon stops responding, or more requests error than the armed
   faults can account for.  Otherwise it writes BENCH_serve.json:
   throughput plus exact (sorted, not bucketed) p50/p90/p99 per
   request class, and the daemon's own stats snapshot.

   When a baseline BENCH_serve.json is given, throughput must stay
   within IMPACT_SERVE_TOLERANCE percent (default 60 — serving
   throughput on a shared CI box is noisy) of it.

   Usage: load.exe [--out FILE] [--baseline FILE] [--clients N]
                   [--per-client N] [--domains N] *)

module Server = Impact_serve.Server
module Client = Impact_serve.Client
module Protocol = Impact_serve.Protocol
module Cache = Impact_harness.Cache
module Pipeline = Impact_harness.Pipeline
module Fault = Impact_support.Fault
module Ierr = Impact_support.Ierr
module Sink = Impact_obs.Sink

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("load: " ^ msg); exit 1) fmt

let tolerance_pct =
  match Sys.getenv_opt "IMPACT_SERVE_TOLERANCE" with
  | None | Some "" -> 60.
  | Some v -> (
    match float_of_string_opt v with
    | Some t when t >= 0. -> t
    | Some _ | None -> fail "bad IMPACT_SERVE_TOLERANCE '%s'" v)

(* ------------------------------------------------------------------ *)
(* The request mix                                                     *)
(* ------------------------------------------------------------------ *)

let warm_src =
  {|
extern int getchar();
int tick(int x) { return x + 1; }
int main() { int c, s = 0; while ((c = getchar()) != -1) s = tick(s); return s & 0; }
|}

let cold_src i =
  Printf.sprintf
    {|
extern int getchar();
int stepA(int x) { return x + %d; }
int stepB(int x) { return stepA(x) * 2 - %d; }
int main() { int c, s = 0; while ((c = getchar()) != -1) s = stepB(s); return s & 0; }
|}
    (i + 1) i

(* Long enough (at least [Client.min_ref_bytes]) to go by reference. *)
let warm_input = String.concat "\n" (List.init 8 (Printf.sprintf "warm input line %d"))

type req_class = Ping | Warm | Cold | Profile | Report | Faulted

let class_name = function
  | Ping -> "ping"
  | Warm -> "warm_compile"
  | Cold -> "cold_compile"
  | Profile -> "profile"
  | Report -> "report"
  | Faulted -> "faulted_compile"

(* Deterministic mix: position k of the stream gets a fixed class, so
   every run replays the same workload. *)
let class_of k =
  match k mod 20 with
  | 0 | 1 | 2 | 3 -> Ping
  | 4 | 5 | 6 | 7 | 8 | 9 | 10 | 11 -> Warm
  | 12 | 13 -> Cold
  | 14 | 15 | 16 -> Profile
  | 17 -> Report
  | _ -> Faulted

let kind_of ~seq cls =
  let job source inputs policy =
    { Protocol.default_job with
      Protocol.j_source = source;
      j_inputs = inputs;
      j_policy = policy;
      j_timeout_s = Some 30. }
  in
  match cls with
  | Ping -> Protocol.Ping
  | Warm -> Protocol.Compile (job warm_src [ "abcdef"; warm_input ] Pipeline.Degrade)
  | Cold -> Protocol.Compile (job (cold_src seq) [ "abcd" ] Pipeline.Degrade)
  | Profile -> Protocol.Profile (job warm_src [ "hello world" ] Pipeline.Degrade)
  | Report -> Protocol.Report ("cmp", job "" [ "" ] Pipeline.Degrade)
  | Faulted ->
    Protocol.Compile
      { (job warm_src [ "abcdef"; "xyz" ] Pipeline.Degrade) with
        Protocol.j_fault =
          Some { Protocol.f_point = Fault.Interp_step; f_after = 0; f_sticky = false } }

(* ------------------------------------------------------------------ *)
(* Accounting                                                          *)
(* ------------------------------------------------------------------ *)

type tally = {
  mu : Mutex.t;
  mutable latencies : (req_class * float) list;  (* ms, answered requests *)
  mutable ok : int;
  mutable typed_errors : (req_class * string) list;
  mutable admission_retries : int;
  mutable protocol_failures : string list;  (* must stay empty *)
}

let tally () =
  { mu = Mutex.create (); latencies = []; ok = 0; typed_errors = [];
    admission_retries = 0; protocol_failures = [] }

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1 |> max 0))

let latency_summary lats =
  let a = Array.of_list lats in
  Array.sort compare a;
  let n = Array.length a in
  let mean = if n = 0 then 0. else Array.fold_left ( +. ) 0. a /. float_of_int n in
  Sink.Obj
    [
      ("count", Sink.Int n);
      ("mean_ms", Sink.Float mean);
      ("p50_ms", Sink.Float (percentile a 0.50));
      ("p90_ms", Sink.Float (percentile a 0.90));
      ("p99_ms", Sink.Float (percentile a 0.99));
      ("max_ms", Sink.Float (percentile a 1.0));
    ]

(* ------------------------------------------------------------------ *)
(* Client workers                                                      *)
(* ------------------------------------------------------------------ *)

let run_client t tly socket ~client ~per_client =
  match Client.connect socket with
  | exception e ->
    Mutex.protect tly.mu (fun () ->
        tly.protocol_failures <-
          Printf.sprintf "client %d: connect: %s" client (Printexc.to_string e)
          :: tly.protocol_failures)
  | c ->
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    for k = 0 to per_client - 1 do
      let seq = (client * per_client) + k in
      let cls = class_of seq in
      let kind = kind_of ~seq cls in
      let t0 = Unix.gettimeofday () in
      (* Admission rejections are retried with backoff (bounded). *)
      let rec attempt tries =
        match Client.request c kind with
        | Ok _ ->
          let ms = (Unix.gettimeofday () -. t0) *. 1000. in
          Mutex.protect tly.mu (fun () ->
              tly.ok <- tly.ok + 1;
              tly.latencies <- (cls, ms) :: tly.latencies)
        | Error e when Protocol.is_overloaded e && tries < 5 ->
          Mutex.protect tly.mu (fun () ->
              tly.admission_retries <- tly.admission_retries + 1);
          Thread.delay (0.02 *. float_of_int (tries + 1));
          attempt (tries + 1)
        | Error e ->
          let ms = (Unix.gettimeofday () -. t0) *. 1000. in
          Mutex.protect tly.mu (fun () ->
              tly.typed_errors <- (cls, Ierr.to_string e) :: tly.typed_errors;
              tly.latencies <- (cls, ms) :: tly.latencies)
        | exception e ->
          Mutex.protect tly.mu (fun () ->
              tly.protocol_failures <-
                Printf.sprintf "client %d req %d (%s): %s" client k
                  (class_name cls) (Printexc.to_string e)
                :: tly.protocol_failures)
      in
      attempt 0
    done;
  ignore t

let framed body =
  let n = String.length body in
  Printf.sprintf "%c%c%c%c%s"
    (Char.chr ((n lsr 24) land 0xff)) (Char.chr ((n lsr 16) land 0xff))
    (Char.chr ((n lsr 8) land 0xff)) (Char.chr (n land 0xff)) body

(* A compile frame of the warm source whose one input is [reference]. *)
let reference_frame reference =
  framed
    (Printf.sprintf {|{"v":1,"id":1,"kind":"compile","source":%s,"inputs":[%s]}|}
       (Sink.json_to_string (Sink.String warm_src)) reference
    ^ "\n")

(* Garbage connections: raw bytes, never a valid frame, or a compile
   frame with an input reference the daemon must refuse.  The daemon
   must answer with a typed error or close — and keep serving. *)
let run_vandal tly socket ~n =
  let failure msg =
    Mutex.protect tly.mu (fun () ->
        tly.protocol_failures <- msg :: tly.protocol_failures)
  in
  for i = 0 to n - 1 do
    match Client.connect socket with
    | exception e ->
      Mutex.protect tly.mu (fun () ->
          tly.protocol_failures <-
            ("vandal connect: " ^ Printexc.to_string e) :: tly.protocol_failures)
    | c ->
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      (* await: whatever comes back (typed error or close) must be
         well-formed at the frame layer; only an unexpected exception
         counts.  The mid-request-disconnect case must NOT await — the
         server is (correctly) still waiting for the rest of the frame,
         so the vandal just vanishes, as a crashed client would. *)
      let await = ref true in
      (* A reference frame must be answered with this typed error. *)
      let expect = ref None in
      (match i mod 6 with
      | 0 -> Client.send_raw c "\x7f\xff\xff\xff"  (* oversized prefix *)
      | 1 ->
        Client.send_raw c "\x00\x00\x00\x40{\"v\":1,";  (* truncated *)
        await := false
      | 2 -> Client.send_raw c (framed "!!not json!!\n")  (* well-framed garbage *)
      | 3 -> Client.send_raw c (String.make 7 '\xee')
      | 4 ->
        Client.send_raw c
          (reference_frame
             (Printf.sprintf {|{"md5":"%s"}|}
                (Digest.to_hex (Digest.string (Printf.sprintf "never sent %d" i)))));
        expect := Some ("unknown reference", Protocol.is_missing_input)
      | _ ->
        Client.send_raw c (reference_frame {|{"md5":"not hex"}|});
        expect :=
          Some ("malformed reference", fun e -> not (Protocol.is_missing_input e)));
      if !await then
        match (Client.read_response c, !expect) with
        | Ok (Error e), Some (what, typed) ->
          if not (e.Ierr.stage = Ierr.Serve && typed e) then
            failure
              (Printf.sprintf "vandal %s: wrong error: %s" what (Ierr.to_string e))
        | Ok (Ok _), Some (what, _) -> failure ("vandal " ^ what ^ ": answered ok")
        | Error fe, Some (what, _) ->
          failure
            (Printf.sprintf "vandal %s: %s" what (Protocol.frame_error_to_string fe))
        | (Ok _ | Error _), None -> ()
        | exception e -> failure ("vandal read: " ^ Printexc.to_string e)
  done

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let () =
  let out = ref "BENCH_serve.json" in
  let baseline = ref "" in
  let clients = ref 100 in
  let per_client = ref 2 in
  let domains = ref 0 in
  let rec parse_args = function
    | [] -> ()
    | "--out" :: v :: rest -> out := v; parse_args rest
    | "--baseline" :: v :: rest -> baseline := v; parse_args rest
    | "--clients" :: v :: rest -> clients := int_of_string v; parse_args rest
    | "--per-client" :: v :: rest -> per_client := int_of_string v; parse_args rest
    | "--domains" :: v :: rest -> domains := int_of_string v; parse_args rest
    | arg :: _ -> fail "unknown argument '%s'" arg
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let total = !clients * !per_client in
  let nfaulted =
    List.length (List.filter (fun k -> class_of k = Faulted) (List.init total Fun.id))
  in
  let tmp = Filename.temp_file "impact-serve-load" "" in
  Sys.remove tmp;
  Unix.mkdir tmp 0o755;
  Fun.protect ~finally:(fun () -> try rm_rf tmp with Sys_error _ -> ())
  @@ fun () ->
  let socket = Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "impactd-load-%d.sock" (Unix.getpid ())) in
  let cache = Cache.create (Filename.concat tmp "cache") in
  let cfg =
    { (Server.default_config ~socket_path:socket) with
      Server.domains = (if !domains > 0 then Some !domains else None);
      max_pending = 64;
      cache = Some cache;
      allow_faults = true }
  in
  let server = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop server)
  @@ fun () ->
  let tly = tally () in
  let t0 = Unix.gettimeofday () in
  let vandal = Thread.create (fun () -> run_vandal tly socket ~n:(max 8 (total / 10))) () in
  let workers =
    List.init !clients (fun client ->
        Thread.create
          (fun () -> run_client server tly socket ~client ~per_client:!per_client)
          ())
  in
  List.iter Thread.join workers;
  Thread.join vandal;
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  (* The daemon must still be fully responsive, and its books intact. *)
  let final_stats =
    let c = Client.connect socket in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    match Client.request c Protocol.Stats with
    | Ok j -> j
    | Error e -> fail "daemon unresponsive after the run: %s" (Ierr.to_string e)
  in
  let answered = List.length tly.latencies in
  let nerrors = List.length tly.typed_errors in
  if tly.protocol_failures <> [] then begin
    List.iter prerr_endline (List.rev tly.protocol_failures);
    fail "%d connection(s) failed un-typed (above)" (List.length tly.protocol_failures)
  end;
  if answered <> total then
    fail "only %d of %d requests were answered" answered total;
  (match Sink.mem "serve.input_refs" (Sink.mem "counters" final_stats) with
  | Sink.Int n when n > 0 -> ()
  | _ -> fail "no input went by reference: counters.\"serve.input_refs\" is 0");
  (* Fault points are process-global: each one-shot arming can fail at
     most one request (the armed one or an unlucky neighbour). *)
  if nerrors > nfaulted then begin
    List.iter (fun (c, m) -> Printf.eprintf "  [%s] %s\n" (class_name c) m)
      (List.rev tly.typed_errors);
    fail "%d typed errors > %d armed faults: daemon state is leaking" nerrors nfaulted
  end;
  let throughput = float_of_int total /. (wall_ms /. 1000.) in
  let per_class cls =
    (class_name cls,
     latency_summary
       (List.filter_map (fun (c, ms) -> if c = cls then Some ms else None)
          tly.latencies))
  in
  let doc =
    Sink.Obj
      [
        ("clients", Sink.Int !clients);
        ("per_client", Sink.Int !per_client);
        ("requests", Sink.Int total);
        ("answered", Sink.Int answered);
        ("ok", Sink.Int tly.ok);
        ("typed_errors", Sink.Int nerrors);
        ("faults_armed", Sink.Int nfaulted);
        ("admission_retries", Sink.Int tly.admission_retries);
        ("wall_ms", Sink.Float wall_ms);
        ("throughput_rps", Sink.Float throughput);
        ( "latency_ms",
          Sink.Obj
            (("all", latency_summary (List.map snd tly.latencies))
             :: List.map per_class [ Ping; Warm; Cold; Profile; Report; Faulted ]) );
        ("server", final_stats);
      ]
  in
  Impact_support.Atomic_io.write_string !out (Sink.json_to_string doc ^ "\n");
  (* Throughput guard against the committed baseline. *)
  (if !baseline <> "" && Sys.file_exists !baseline then
     let ic = open_in !baseline in
     let len = in_channel_length ic in
     let txt = really_input_string ic len in
     close_in ic;
     match Sink.json_of_string txt with
     | exception Sink.Parse_error _ -> ()
     | bj -> (
       match Sink.mem "throughput_rps" bj with
       | Sink.Float base when base > 0. ->
         let floor = base *. (1. -. (tolerance_pct /. 100.)) in
         if throughput < floor then
           fail
             "throughput regressed: %.1f rps vs %.1f baseline (>%g%% tolerance; \
              set IMPACT_SERVE_TOLERANCE to override)"
             throughput base tolerance_pct
       | _ -> ()));
  Printf.printf
    "bench-serve ok: %d requests (%d clients), %.0f rps, p50 %.1f ms, p99 %.1f ms -> %s\n"
    total !clients throughput
    (let a = Array.of_list (List.map snd tly.latencies) in
     Array.sort compare a; percentile a 0.5)
    (let a = Array.of_list (List.map snd tly.latencies) in
     Array.sort compare a; percentile a 0.99)
    !out
