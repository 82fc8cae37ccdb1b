(* The impactd serving stack, from frame bytes up to cross-request
   isolation:

   - protocol units: frame roundtrip, error payload roundtrip, request
     validation (version, kind, parameter types);
   - a live daemon end to end: ping, compile, profile, report, stats,
     graceful shutdown — all over a real Unix-domain socket;
   - the protocol fuzz matrix: truncated frames, oversized length
     prefixes, invalid JSON, malformed requests, mid-request
     disconnects, garbage floods — every case must yield a typed error
     response or a clean close, and the daemon must keep serving fresh
     connections afterwards;
   - admission control: a full daemon refuses heavy work with a typed
     retryable error while ping/stats stay responsive;
   - state isolation: a faulted request (chaos daemon) must not perturb
     the bytes of the clean request that follows it;
   - input references: a connection sends each input once and names
     it by MD5 afterwards; malformed and unknown references are typed
     errors, and a reference the daemon dropped is resent in full;
   - telemetry: stats read the same registry the trace is made from,
     and keep the shape impactbench reads; handler-thread spans keep
     their parents under concurrent connections;
   - knob ranges: what the wire refuses, impactc refuses too. *)

module Protocol = Impact_serve.Protocol
module Server = Impact_serve.Server
module Client = Impact_serve.Client
module Sink = Impact_obs.Sink
module Obs = Impact_obs.Obs
module Histogram = Impact_obs.Histogram
module Ierr = Impact_support.Ierr
module Fault = Impact_support.Fault
module Pipeline = Impact_harness.Pipeline
module Cache = Impact_harness.Cache
module Digest_memo = Impact_support.Digest_memo

let tick_src =
  {|
extern int getchar();
int tick(int x) { return x + 1; }
int main() { int c, s = 0; while ((c = getchar()) != -1) s = tick(s); return s & 0; }
|}

let tmp_dir () =
  let path = Filename.temp_file "impact_serve" "" in
  Sys.remove path;
  path

(* Sockets live in their own short tmp dir: ADDR_UNIX paths are limited
   to ~100 bytes, and test runners nest deep build directories. *)
let tmp_socket () =
  let dir = Filename.get_temp_dir_name () in
  Filename.concat dir (Printf.sprintf "impactd-test-%d-%d.sock" (Unix.getpid ()) (Random.int 100000))

let with_server ?(domains = 1) ?(max_pending = 64) ?cache_dir ?(allow_faults = false)
    ?(obs = Obs.null) f =
  let cache = Option.map (fun d -> Cache.create d) cache_dir in
  let cfg =
    {
      (Server.default_config ~socket_path:(tmp_socket ())) with
      Server.domains = Some domains;
      max_pending;
      cache;
      obs;
      allow_faults;
    }
  in
  let t = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f t)

let with_client t f =
  let c = Client.connect (Server.socket_path t) in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let ok_or_fail = function
  | Ok j -> j
  | Error e -> Alcotest.failf "request failed: %s" (Ierr.to_string e)

let expect_serve_error label = function
  | Ok _ -> Alcotest.failf "%s: expected a typed error, got ok" label
  | Error e ->
    Alcotest.(check string)
      (label ^ ": serve stage") "serve"
      (Ierr.stage_name e.Ierr.stage)

let int_field j k =
  match Sink.mem k j with
  | Sink.Int n -> n
  | _ -> Alcotest.failf "missing int field %S in %s" k (Sink.json_to_string j)

(* ------------------------------------------------------------------ *)
(* Protocol units (no daemon)                                          *)
(* ------------------------------------------------------------------ *)

let test_frame_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close a; Unix.close b)
    (fun () ->
      let doc = Sink.Obj [ ("x", Sink.Int 42); ("s", Sink.String "héllo\n\"") ] in
      let frames = Protocol.frame_buf () in
      Protocol.write_frame frames a doc;
      Protocol.write_frame frames a (Sink.List [ Sink.Bool true ]);
      (match Protocol.read_frame b with
      | Ok j -> Alcotest.(check string) "doc roundtrips"
          (Sink.json_to_string doc) (Sink.json_to_string j)
      | Error e -> Alcotest.failf "read failed: %s" (Protocol.frame_error_to_string e));
      (match Protocol.read_frame b with
      | Ok (Sink.List [ Sink.Bool true ]) -> ()
      | _ -> Alcotest.fail "second frame lost: framing broken");
      (* Clean EOF between frames is Closed, not an error. *)
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      match Protocol.read_frame b with
      | Error Protocol.Closed -> ()
      | _ -> Alcotest.fail "EOF at a frame boundary must be Closed")

let test_ierr_roundtrip () =
  let e =
    Ierr.make ~severity:Ierr.Degradable ~recovery:Ierr.Fallback_static
      ~loc:"x.c:3" Ierr.Profile_run "run 2 hung"
  in
  let e' = Protocol.ierr_of_json (Protocol.ierr_to_json e) in
  Alcotest.(check string) "roundtrip" (Ierr.to_string e) (Ierr.to_string e');
  (* Unknown names degrade, never crash the decoder. *)
  let weird =
    Sink.Obj [ ("stage", Sink.String "quantum"); ("msg", Sink.String "m") ]
  in
  let d = Protocol.ierr_of_json weird in
  Alcotest.(check string) "unknown stage degrades to serve" "serve"
    (Ierr.stage_name d.Ierr.stage)

let test_request_validation () =
  let parse fields = Protocol.parse_request (Sink.Obj fields) in
  (match parse [ ("kind", Sink.String "ping") ] with
  | Error e ->
    Alcotest.(check string) "version required" "serve" (Ierr.stage_name e.Ierr.stage)
  | Ok _ -> Alcotest.fail "unversioned request accepted");
  (match parse [ ("v", Sink.Int 99); ("kind", Sink.String "ping") ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "future version accepted");
  (match parse [ ("v", Sink.Int 1); ("kind", Sink.String "compile") ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "compile without source accepted");
  (match
     parse
       [ ("v", Sink.Int 1); ("kind", Sink.String "compile");
         ("source", Sink.String "int main(){return 0;}");
         ("inputs", Sink.List [ Sink.Int 3 ]) ]
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-string inputs accepted");
  (match
     parse
       [ ("v", Sink.Int 1); ("kind", Sink.String "report");
         ("benchmark", Sink.String "cmp"); ("policy", Sink.String "degrade") ]
   with
  | Ok { Protocol.rq_kind = Protocol.Report ("cmp", job); _ } ->
    Alcotest.(check bool) "policy parsed" true (job.Protocol.j_policy = Pipeline.Degrade)
  | _ -> Alcotest.fail "valid report request rejected");
  (* The retired engine field: absent or "threaded" (what earlier
     clients send) parses; anything else is a typed serve error. *)
  let with_engine engine =
    parse
      ([ ("v", Sink.Int 1); ("kind", Sink.String "compile");
         ("source", Sink.String "int main(){return 0;}") ]
      @ match engine with None -> [] | Some e -> [ ("engine", e) ])
  in
  List.iter
    (fun (what, engine) ->
      match with_engine engine with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s rejected: %s" what (Ierr.to_string e))
    [ ("absent engine", None); ("threaded engine", Some (Sink.String "threaded")) ];
  List.iter
    (fun engine ->
      match with_engine (Some engine) with
      | Error e ->
        Alcotest.(check string) "retired engine is a serve error" "serve"
          (Ierr.stage_name e.Ierr.stage)
      | Ok _ -> Alcotest.fail "engine other than threaded accepted")
    [ Sink.String "reference"; Sink.Int 1 ];
  (* Client-side encoding parses back to the same request. *)
  let rq =
    { Protocol.rq_id = 7;
      rq_kind =
        Protocol.Compile
          { Protocol.default_job with
            Protocol.j_source = tick_src;
            j_inputs = [ "ab"; "c" ];
            j_timeout_s = Some 2.5;
            j_fault = Some { Protocol.f_point = Fault.Cache_read; f_after = 1; f_sticky = true } } }
  in
  let j = Protocol.request_to_json rq in
  Alcotest.(check bool) "clients no longer send engine" true
    (Sink.mem "engine" j = Sink.Null);
  match Protocol.parse_request j with
  | Ok rq' ->
    Alcotest.(check bool) "encode/parse roundtrip" true (rq = rq')
  | Error e -> Alcotest.failf "own encoding rejected: %s" (Ierr.to_string e)

(* ------------------------------------------------------------------ *)
(* Live daemon: the happy paths                                        *)
(* ------------------------------------------------------------------ *)

let test_ping_stats_shutdown () =
  with_server (fun t ->
      with_client t (fun c ->
          (match ok_or_fail (Client.request c Protocol.Ping) with
          | j ->
            Alcotest.(check bool) "pong" true (Sink.mem "pong" j = Sink.Bool true));
          let stats = ok_or_fail (Client.request c Protocol.Stats) in
          let reqs = Sink.mem "requests" stats in
          (* The stats request itself is admitted before its snapshot. *)
          Alcotest.(check int) "ping and stats counted" 2 (int_field reqs "total");
          Alcotest.(check int) "nothing malformed" 0 (int_field reqs "malformed");
          Alcotest.(check bool) "not yet shutting down" false
            (Server.shutdown_requested t);
          ignore (ok_or_fail (Client.request c Protocol.Shutdown));
          (* The ack is sent before the flag flips; poll briefly. *)
          let deadline = Unix.gettimeofday () +. 5. in
          while (not (Server.shutdown_requested t)) && Unix.gettimeofday () < deadline do
            Thread.yield ()
          done;
          Alcotest.(check bool) "shutdown requested" true
            (Server.shutdown_requested t)))

let test_compile_and_cache () =
  let dir = tmp_dir () in
  with_server ~cache_dir:dir (fun t ->
      let job =
        { Protocol.default_job with
          Protocol.j_source = tick_src; j_inputs = [ "abcd"; "xy" ] }
      in
      with_client t (fun c ->
          let r = ok_or_fail (Client.request c (Protocol.Compile job)) in
          Alcotest.(check bool) "code_before positive" true (int_field r "code_before" > 0);
          Alcotest.(check bool) "outputs match" true
            (Sink.mem "outputs_match" r = Sink.Bool true);
          Alcotest.(check int) "both inputs ran" 2 (int_field r "nruns");
          (* Same source again: the shared store must serve warm hits,
             and the result must be byte-identical. *)
          let r2 = ok_or_fail (Client.request c (Protocol.Compile job)) in
          Alcotest.(check string) "warm result byte-identical"
            (Sink.json_to_string r) (Sink.json_to_string r2);
          let stats = ok_or_fail (Client.request c Protocol.Stats) in
          let cache = Sink.mem "cache" stats in
          Alcotest.(check bool) "warm rerun hit the shared store" true
            (int_field cache "hits" > 0)))

let test_profile_and_report () =
  with_server (fun t ->
      with_client t (fun c ->
          let job =
            { Protocol.default_job with
              Protocol.j_source = tick_src; j_inputs = [ "abc" ] }
          in
          let p = ok_or_fail (Client.request c (Protocol.Profile job)) in
          (match Sink.mem "avg_calls" p with
          | Sink.Float f -> Alcotest.(check bool) "tick was called" true (f > 0.)
          | _ -> Alcotest.fail "profile lacks avg_calls");
          let r =
            ok_or_fail
              (Client.request c (Protocol.Report ("cmp", Protocol.default_job)))
          in
          (match Sink.mem "benchmarks" r with
          | Sink.List [ _ ] -> ()
          | _ -> Alcotest.fail "report lacks its benchmark row");
          expect_serve_error "unknown benchmark"
            (Client.request c (Protocol.Report ("no-such-bench", Protocol.default_job)))))

let test_compile_error_is_typed () =
  with_server (fun t ->
      with_client t (fun c ->
          match
            Client.request c
              (Protocol.Compile
                 { Protocol.default_job with Protocol.j_source = "int main( {" })
          with
          | Ok _ -> Alcotest.fail "garbage source compiled"
          | Error e ->
            Alcotest.(check string) "front-end stage survives the wire" "parse"
              (Ierr.stage_name e.Ierr.stage);
            (* The connection is still usable afterwards. *)
            ignore (ok_or_fail (Client.request c Protocol.Ping))))

(* ------------------------------------------------------------------ *)
(* Fuzz matrix                                                         *)
(* ------------------------------------------------------------------ *)

let raw_frame body =
  let n = String.length body in
  let b = Buffer.create (n + 4) in
  Buffer.add_char b (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (n land 0xff));
  Buffer.add_string b body;
  Buffer.contents b

let daemon_alive t =
  with_client t (fun c ->
      match Client.request c Protocol.Ping with
      | Ok _ -> true
      | Error _ -> false)

let test_fuzz_frames () =
  with_server (fun t ->
      (* 1. Truncated frame: claim 100 bytes, send 10, vanish. *)
      with_client t (fun c ->
          Client.send_raw c "\x00\x00\x00\x64partial...");
      (* 2. Oversized length prefix: typed error, then the server closes. *)
      with_client t (fun c ->
          Client.send_raw c "\x7f\xff\xff\xff";
          (match Client.read_response c with
          | Ok (Error e) ->
            Alcotest.(check string) "oversized is typed" "serve"
              (Ierr.stage_name e.Ierr.stage)
          | _ -> Alcotest.fail "no typed error for oversized prefix");
          match Client.read_response c with
          | Error (Protocol.Closed | Protocol.Truncated) -> ()
          | _ -> Alcotest.fail "connection must close after oversized prefix");
      (* 3. Zero-length frame is unframeable too, and says so. *)
      with_client t (fun c ->
          Client.send_raw c "\x00\x00\x00\x00";
          (match Client.read_response c with
          | Ok (Error e) ->
            Alcotest.(check string) "empty frame is typed" "serve"
              (Ierr.stage_name e.Ierr.stage);
            Alcotest.(check string) "empty frame message"
              "empty frame (length prefix 0)" e.Ierr.msg
          | _ -> Alcotest.fail "no typed error for zero-length frame");
          match Client.read_response c with
          | Error (Protocol.Closed | Protocol.Truncated) -> ()
          | _ -> Alcotest.fail "connection must close after an empty frame");
      (* 4. Invalid JSON in a well-formed frame: typed error, and the
         SAME connection keeps working (framing intact). *)
      with_client t (fun c ->
          Client.send_raw c (raw_frame "{not json![\n");
          (match Client.read_response c with
          | Ok (Error e) ->
            Alcotest.(check string) "bad json is typed" "serve"
              (Ierr.stage_name e.Ierr.stage)
          | _ -> Alcotest.fail "no typed error for bad JSON");
          ignore (ok_or_fail (Client.request c Protocol.Ping)));
      (* 5. Valid JSON, invalid request: typed error, connection lives. *)
      with_client t (fun c ->
          Client.send_raw c (raw_frame "{\"v\":1,\"id\":9,\"kind\":\"explode\"}\n");
          (match Client.read_response c with
          | Ok (Error _) -> ()
          | _ -> Alcotest.fail "no typed error for unknown kind");
          ignore (ok_or_fail (Client.request c Protocol.Ping)));
      (* 6. Mid-request disconnect: half a header, then close. *)
      with_client t (fun c -> Client.send_raw c "\x00\x00");
      (* 7. Garbage flood on many short-lived connections. *)
      for i = 0 to 9 do
        with_client t (fun c ->
            Client.send_raw c (String.make (i * 7) '\xff'))
      done;
      (* After all of that the daemon still serves fresh connections. *)
      Alcotest.(check bool) "daemon survived the fuzz matrix" true (daemon_alive t);
      let stats = with_client t (fun c -> ok_or_fail (Client.request c Protocol.Stats)) in
      Alcotest.(check bool) "malformed traffic was counted" true
        (int_field (Sink.mem "requests" stats) "malformed" > 0))

(* The retired profiling modes: a request naming [sampled] or [min] is
   refused on the wire with a typed serve error naming the value, and
   the same connection goes on to profile.  ["full"], which earlier
   clients sent on every frame, and an absent field are accepted, and a
   client no longer sends the field. *)
let test_retired_profile_mode () =
  let frame ~id mode =
    raw_frame
      (Printf.sprintf
         "{\"v\":1,\"id\":%d,\"kind\":\"profile\",\"source\":\"int \
          main(){return 0;}\",\"profile_mode\":\"%s\"}\n"
         id mode)
  in
  with_server (fun t ->
      with_client t (fun c ->
          List.iteri
            (fun i mode ->
              Client.send_raw c (frame ~id:(i + 1) mode);
              match Client.read_response c with
              | Ok (Error e) ->
                Alcotest.(check string) (mode ^ ": typed serve error") "serve"
                  (Ierr.stage_name e.Ierr.stage);
                Alcotest.(check string) (mode ^ ": names the refused mode")
                  (Printf.sprintf "unknown profile_mode %S" mode)
                  e.Ierr.msg
              | _ -> Alcotest.failf "%s profile mode accepted" mode)
            [ "sampled"; "min" ];
          Client.send_raw c (frame ~id:3 "full");
          (match Client.read_response c with
          | Ok (Ok p) ->
            Alcotest.(check bool) "\"full\" is profiled" true
              (Sink.mem "nruns" p = Sink.Int 1)
          | _ -> Alcotest.fail "\"full\" profile mode refused");
          let job =
            { Protocol.default_job with
              Protocol.j_source = tick_src;
              j_inputs = [ "ab" ] }
          in
          let p = ok_or_fail (Client.request c (Protocol.Profile job)) in
          Alcotest.(check bool) "absent field is profiled" true
            (Sink.mem "nruns" p = Sink.Int 1)));
  let j =
    Protocol.request_to_json
      { Protocol.rq_id = 1; rq_kind = Protocol.Profile Protocol.default_job }
  in
  Alcotest.(check bool) "clients no longer send profile_mode" true
    (Sink.mem "profile_mode" j = Sink.Null)

let test_interleaved_clients () =
  with_server ~domains:2 (fun t ->
      let nclients = 8 and per_client = 5 in
      let errors = Atomic.make 0 in
      let job =
        { Protocol.default_job with
          Protocol.j_source = tick_src; j_inputs = [ "abc" ] }
      in
      let worker i =
        with_client t (fun c ->
            for k = 0 to per_client - 1 do
              let kind =
                match (i + k) mod 3 with
                | 0 -> Protocol.Ping
                | 1 -> Protocol.Profile job
                | _ -> Protocol.Stats
              in
              match Client.request c kind with
              | Ok _ -> ()
              | Error _ -> Atomic.incr errors
            done)
      in
      let threads = List.init nclients (fun i -> Thread.create worker i) in
      List.iter Thread.join threads;
      Alcotest.(check int) "every interleaved request succeeded" 0
        (Atomic.get errors);
      let stats = with_client t (fun c -> ok_or_fail (Client.request c Protocol.Stats)) in
      Alcotest.(check bool) "all requests counted" true
        (int_field (Sink.mem "requests" stats) "total" >= nclients * per_client))

(* ------------------------------------------------------------------ *)
(* Admission control and isolation                                     *)
(* ------------------------------------------------------------------ *)

let test_admission_control () =
  (* max_pending = 0: every heavy request is refused before execution,
     with the typed retryable error; the control plane still answers. *)
  with_server ~max_pending:0 (fun t ->
      with_client t (fun c ->
          (match
             Client.request c
               (Protocol.Compile
                  { Protocol.default_job with Protocol.j_source = tick_src })
           with
          | Error e ->
            Alcotest.(check string) "typed overload stage" "serve"
              (Ierr.stage_name e.Ierr.stage);
            Alcotest.(check string) "retryable" "retry-once"
              (Ierr.recovery_name e.Ierr.recovery)
          | Ok _ -> Alcotest.fail "overloaded daemon accepted work");
          ignore (ok_or_fail (Client.request c Protocol.Ping));
          let stats = ok_or_fail (Client.request c Protocol.Stats) in
          Alcotest.(check int) "rejection counted" 1
            (int_field (Sink.mem "requests" stats) "rejected")))

let test_fault_requires_optin () =
  with_server (fun t ->
      with_client t (fun c ->
          expect_serve_error "fault spec without --allow-fault-injection"
            (Client.request c
               (Protocol.Compile
                  { Protocol.default_job with
                    Protocol.j_source = tick_src;
                    j_fault =
                      Some { Protocol.f_point = Fault.Cache_read; f_after = 0; f_sticky = false } }))))

let test_faulted_request_does_not_leak () =
  (* Request A (a distinct source, so nothing of it is cached) arms a
     sticky interpreter fault and fails; request B must then produce
     byte-identical results to its own pre-fault baseline: no armed
     point, no hit counter, no cache poison may leak across requests. *)
  let dir = tmp_dir () in
  (* Semantically different from tick_src, so every stage of A runs
     cold and the expansion fault actually fires. *)
  let src_a =
    {|
extern int getchar();
int tock(int x) { return x + 2; }
int main() { int c, s = 0; while ((c = getchar()) != -1) s = tock(s); return s & 1; }
|}
  in
  with_server ~allow_faults:true ~cache_dir:dir (fun t ->
      let job =
        { Protocol.default_job with
          Protocol.j_source = tick_src; j_inputs = [ "hello" ] }
      in
      with_client t (fun c ->
          let baseline = ok_or_fail (Client.request c (Protocol.Compile job)) in
          (match
             Client.request c
               (Protocol.Compile
                  { job with
                    Protocol.j_source = src_a;
                    Protocol.j_fault =
                      Some { Protocol.f_point = Fault.Interp_step; f_after = 0; f_sticky = true } })
           with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "sticky interpreter fault did not fail the request");
          Alcotest.(check bool) "fault disarmed after the request" false
            (Fault.enabled ());
          let after = ok_or_fail (Client.request c (Protocol.Compile job)) in
          Alcotest.(check string) "request B unperturbed by A's faults"
            (Sink.json_to_string baseline)
            (Sink.json_to_string after)))

(* impactd's startup failures are one typed line and exit 5, and leave
   no socket and no trace, final or temporary, behind. *)
let test_daemon_startup_errors () =
  let impactd = Testutil.bin "impactd.exe" in
  let dir = tmp_dir () in
  Sys.mkdir dir 0o755;
  let missing = Filename.concat dir "missing" in
  let socket = tmp_socket () in
  let trace = Filename.concat dir "t.jsonl" in
  let err = Filename.concat dir "stderr" in
  List.iter
    (fun (name, args, stage) ->
      let code =
        Sys.command
          (Filename.quote_command impactd ~stdout:Filename.null ~stderr:err
             ("-q" :: args))
      in
      Alcotest.(check int) (name ^ ": exit code") 5 code;
      let prefix = "impactd: " ^ stage ^ " error: " in
      (match String.split_on_char '\n' (In_channel.with_open_bin err In_channel.input_all) with
      | [ line; "" ] when String.starts_with ~prefix line -> ()
      | _ -> Alcotest.failf "%s: stderr is not one %S line" name prefix);
      List.iter
        (fun path ->
          Alcotest.(check bool) (name ^ ": no " ^ path) false (Sys.file_exists path))
        [ socket; trace; Impact_support.Atomic_io.tmp_path trace ])
    [
      ( "unwritable --trace",
        [ "-s"; socket; "--trace"; Filename.concat missing "t.jsonl" ],
        "artifact" );
      ( "unbindable --socket",
        [ "-s"; Filename.concat missing "x.sock"; "--trace"; trace ],
        "serve" );
    ];
  Sys.remove err;
  Sys.rmdir dir

(* ------------------------------------------------------------------ *)
(* Input references                                                    *)
(* ------------------------------------------------------------------ *)

(* An input of [n] bytes of [c]: long enough, from
   [Client.min_ref_bytes], to go as a reference once sent. *)
let input c n = String.make n c

let counter stats name =
  match Sink.mem name (Sink.mem "counters" stats) with
  | Sink.Int n -> n
  | Sink.Null -> 0
  | j -> Alcotest.failf "counter %s is not an int: %s" name (Sink.json_to_string j)

let compile_with inputs =
  Protocol.Compile
    { Protocol.default_job with Protocol.j_source = tick_src; j_inputs = inputs }

let stats_of c = ok_or_fail (Client.request c Protocol.Stats)

(* Encoding with references and resolving them gives the job of the
   all-string form, in order; with nothing held, the first reference is
   the missing-input error; and without references the frame keeps its
   historical bytes. *)
let test_reference_roundtrip () =
  let a = input 'a' 100 and b = input 'b' 64 and small = "tiny" in
  let rq =
    { Protocol.rq_id = 3;
      rq_kind =
        Protocol.Profile
          { Protocol.default_job with
            Protocol.j_source = tick_src; j_inputs = [ small; a; "mid"; b ] } }
  in
  let memo = Digest_memo.create () in
  let by_ref s = if s = a || s = b then Some (Digest_memo.add memo s) else None in
  let j = Protocol.request_to_json ~by_ref rq in
  (match Sink.mem "inputs" j with
  | Sink.List [ Sink.String _; Sink.Obj [ ("md5", _) ]; Sink.String _; Sink.Obj [ ("md5", _) ] ] -> ()
  | other -> Alcotest.failf "unexpected inputs: %s" (Sink.json_to_string other));
  let taken = ref [] in
  let inputs =
    { Protocol.take = (fun s -> taken := s :: !taken);
      held = Digest_memo.find_digest memo }
  in
  (match Protocol.parse_request ~inputs j with
  | Ok rq' -> Alcotest.(check bool) "same request as the all-string form" true (rq = rq')
  | Error e -> Alcotest.failf "references refused: %s" (Ierr.to_string e));
  Alcotest.(check (list string)) "the inputs sent in full were taken, in order"
    [ small; "mid" ] (List.rev !taken);
  (match Protocol.parse_request j with
  | Error e ->
    Alcotest.(check bool) "missing input recognised" true (Protocol.is_missing_input e);
    Alcotest.(check (option string)) "located at the first reference" (Some "inputs[1]")
      e.Ierr.loc
  | Ok _ -> Alcotest.fail "a reference resolved with nothing held");
  Alcotest.(check string) "no references: the historical frame"
    {|{"v":1,"id":3,"kind":"profile","source":"s","inputs":["x","y"],"policy":"strict"}|}
    (Sink.json_to_string
       (Protocol.request_to_json
          { rq with
            Protocol.rq_kind =
              Protocol.Profile
                { Protocol.default_job with
                  Protocol.j_source = "s"; j_inputs = [ "x"; "y" ] } }));
  Alcotest.(check bool) "an overload is not a missing input" false
    (Protocol.is_missing_input (Protocol.overloaded ~pending:1 ~cap:1));
  Alcotest.(check bool) "a missing input is not an overload" false
    (Protocol.is_overloaded (Protocol.missing_input ~index:0 (Digest.string "")));
  Alcotest.(check bool) "a malformed request is neither" false
    (let e = Protocol.serve_error "inputs must be an array of strings" in
     Protocol.is_missing_input e || Protocol.is_overloaded e)

(* The fuzz matrix for references: each malformed form is a typed serve
   error counted as malformed, an unknown well-formed reference is the
   missing-input error counted as a miss, and the connection answers a
   ping after each. *)
let test_reference_fuzz () =
  let hex = Digest.to_hex (Digest.string "never sent") in
  let frame inputs =
    raw_frame
      (Printf.sprintf
         {|{"v":1,"id":5,"kind":"compile","source":%s,"inputs":[%s]}|}
         (Sink.json_to_string (Sink.String tick_src)) inputs
      ^ "\n")
  in
  let malformed =
    [
      {|{"md5":1}|};
      Printf.sprintf {|{"md5":"%s"}|} (String.sub hex 0 31);
      Printf.sprintf {|{"md5":"%s0"}|} hex;
      Printf.sprintf {|{"md5":"%sg"}|} (String.sub hex 0 31);
      Printf.sprintf {|{"md5":"%s","x":1}|} hex;
      Printf.sprintf {|{"md5":{"md5":"%s"}}|} hex;
      Printf.sprintf {|{"ref":{"md5":"%s"}}|} hex;
      {|{}|};
      {|null|};
      {|["abc"]|};
    ]
  in
  with_server (fun t ->
      with_client t (fun c ->
          List.iter
            (fun form ->
              Client.send_raw c (frame (Printf.sprintf {|"abc",%s|} form));
              (match Client.read_response c with
              | Ok (Error e) ->
                Alcotest.(check string) (form ^ ": serve stage") "serve"
                  (Ierr.stage_name e.Ierr.stage);
                Alcotest.(check bool) (form ^ ": not a missing input") false
                  (Protocol.is_missing_input e)
              | _ -> Alcotest.failf "%s: no typed error" form);
              ignore (ok_or_fail (Client.request c Protocol.Ping)))
            malformed;
          Client.send_raw c (frame (Printf.sprintf {|"abc",{"md5":"%s"}|} hex));
          (match Client.read_response c with
          | Ok (Error e) ->
            Alcotest.(check bool) "unknown reference: missing input" true
              (Protocol.is_missing_input e)
          | _ -> Alcotest.fail "unknown reference: no typed error");
          ignore (ok_or_fail (Client.request c Protocol.Ping));
          let stats = stats_of c in
          Alcotest.(check (pair int int)) "malformed and missing, counted apart"
            (List.length malformed, 1)
            (int_field (Sink.mem "requests" stats) "malformed",
             counter stats "serve.input_misses")))

(* A traps on its first byte '!' (a division by zero), so under Degrade
   the failing input's index shows in the degradations. *)
let trap_src =
  {|
extern int getchar();
int main() { int c = getchar(), n = 0; while (getchar() != -1) n = n + 1; return (n + 100 / (c - 33)) & 0; }
|}

(* A list mixing strings and references keeps input order: the answers
   match the all-string requests', and the trapping input keeps its
   index in the compile's degradations. *)
let test_reference_order () =
  let a = input 'a' 80 and b = "!" ^ input 'b' 90 and e = input 'e' 70 in
  let job inputs =
    { Protocol.default_job with
      Protocol.j_source = trap_src; j_inputs = inputs; j_policy = Pipeline.Degrade }
  in
  let compile = Protocol.Compile (job [ a; e; b; "tiny" ])
  and profile = Protocol.Profile (job [ a; e; "tiny" ]) in
  let all_strings =
    with_server (fun t ->
        with_client t (fun c ->
            List.map
              (fun k -> Sink.json_to_string (ok_or_fail (Client.request c k)))
              [ compile; profile ]))
  in
  with_server (fun t ->
      with_client t (fun c ->
          (* a and b go in full first, so the next requests send them by
             reference beside inputs sent in full. *)
          ignore (ok_or_fail (Client.request c (Protocol.Compile (job [ a; b ]))));
          let answers =
            List.map
              (fun k -> Sink.json_to_string (ok_or_fail (Client.request c k)))
              [ compile; profile ]
          in
          Alcotest.(check int) "a and b, then a and e, went by reference" 4
            (counter (stats_of c) "serve.input_refs");
          Alcotest.(check (list string)) "answers match the all-string requests'"
            all_strings answers;
          let compiled = Sink.json_of_string (List.hd answers) in
          Alcotest.(check int) "profile: three runs" 3
            (int_field (Sink.json_of_string (List.nth answers 1)) "nruns");
          match Sink.mem "degradations" compiled with
          | Sink.List (d :: _) ->
            let detail = Sink.json_to_string d in
            Alcotest.(check bool) ("input 2 failed: " ^ detail) true
              (Testutil.contains detail "input 2")
          | _ -> Alcotest.fail "the trapping input left no degradation"))

(* With a cache: two identical compiles on one connection send the
   second's inputs by reference, its answer is byte-identical, and the
   receipt digests are no key bytes.  Inputs under 64 bytes always go
   in full. *)
let test_reference_counters () =
  let m = Client.min_ref_bytes in
  Alcotest.(check int) "a reference is 42 bytes: the floor is 64" 64 m;
  let x = input 'x' 5000 and y = input 'y' m and short = input 's' (m - 1) in
  with_server ~cache_dir:(tmp_dir ()) (fun t ->
      with_client t (fun c ->
          let r1 = ok_or_fail (Client.request c (compile_with [ x; y; short ])) in
          let r2 = ok_or_fail (Client.request c (compile_with [ x; y; short ])) in
          Alcotest.(check string) "answers byte-identical" (Sink.json_to_string r1)
            (Sink.json_to_string r2);
          let stats = stats_of c in
          Alcotest.(check (list int)) "refs, misses, bytes in full"
            [ 2; 0; 5000 + m + (2 * (m - 1)) ]
            (List.map (counter stats)
               [ "serve.input_refs"; "serve.input_misses"; "serve.input_bytes" ]);
          Alcotest.(check bool) "no input byte keyed twice" true
            (counter stats "cache.key_bytes" < 5000)))

(* A reference the daemon dropped is resent in full, once: the answer
   is byte-identical and one miss is counted.  Another connection
   evicts the input by sending more than the memo's budget of others;
   the daemon has no cache, so its memo is its own. *)
let test_reference_evicted () =
  let x = input 'x' 1000 in
  let third = (Digest_memo.budget / 3) + 1 in
  with_server (fun t ->
      with_client t (fun c ->
          let first = ok_or_fail (Client.request c (compile_with [ x ])) in
          with_client t (fun other ->
              ignore
                (ok_or_fail
                   (Client.request other
                      (Protocol.Compile
                         { Protocol.default_job with
                           Protocol.j_source = "int main() { return 0; }";
                           j_inputs = List.map (fun ch -> input ch third) [ 'p'; 'q'; 'r' ] }))));
          let again = ok_or_fail (Client.request c (compile_with [ x ])) in
          Alcotest.(check string) "answer byte-identical" (Sink.json_to_string first)
            (Sink.json_to_string again);
          let stats = stats_of c in
          Alcotest.(check (list int)) "one miss, then x in full again"
            [ 1; 0; 1000 + 1000 + (3 * third) ]
            (List.map (counter stats)
               [ "serve.input_misses"; "serve.input_refs"; "serve.input_bytes" ]);
          Alcotest.(check int) "a miss is not malformed" 0
            (int_field (Sink.mem "requests" stats) "malformed");
          (* x is held again, so the next request sends it by reference. *)
          ignore (ok_or_fail (Client.request c (compile_with [ x ])));
          Alcotest.(check int) "then by reference" 1
            (counter (stats_of c) "serve.input_refs")))

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)
(* ------------------------------------------------------------------ *)

let number label j =
  match j with
  | Sink.Int n -> float_of_int n
  | Sink.Float x -> x
  | _ -> Alcotest.failf "%s is not a number: %s" label (Sink.json_to_string j)

let path_number j path =
  number (String.concat "." path) (List.fold_left (fun j k -> Sink.mem k j) j path)

let compile_job k =
  Protocol.Compile
    { Protocol.default_job with
      Protocol.j_source = tick_src; j_inputs = [ String.make k 'x' ] }

(* Stats and the trace come from one registry: over a memory-sink
   context, the stats' serve.request span histogram is the histogram of
   the session's span_end durations, and the flight sums them. *)
let test_stats_agree_with_trace () =
  let sink = Sink.memory () in
  with_server ~obs:(Obs.create sink) (fun t ->
      with_client t (fun c ->
          for k = 1 to 6 do
            ignore (ok_or_fail (Client.request c (compile_job k)))
          done;
          let stats = ok_or_fail (Client.request c Protocol.Stats) in
          let durs =
            List.filter_map
              (fun (e : Sink.event) ->
                match Sink.mem "dur_ms" (Sink.Obj e.Sink.ev_attrs) with
                | Sink.Float d
                  when e.Sink.ev_kind = "span_end" && e.Sink.ev_name = "serve.request" ->
                  Some d
                | _ -> None)
              (Sink.events sink)
          in
          let h = Histogram.create () in
          List.iter (Histogram.observe h) durs;
          let snap = Histogram.snapshot h in
          let span = [ "spans"; "serve.request" ] in
          Alcotest.(check int) "six request spans traced" 6 (List.length durs);
          Alcotest.(check (float 0.)) "span count"
            (float_of_int (List.length durs))
            (path_number stats (span @ [ "count" ]));
          List.iter
            (fun (key, q) ->
              Alcotest.(check (float 1e-9)) ("span " ^ key)
                (Histogram.percentile snap q)
                (path_number stats (span @ [ key ])))
            [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99) ];
          Alcotest.(check (float 0.)) "flight.tasks counts the spans"
            (float_of_int (List.length durs))
            (path_number stats [ "flight"; "tasks" ]);
          Alcotest.(check (float 1e-9)) "flight.run_ms sums the spans"
            (List.fold_left ( +. ) 0. durs)
            (path_number stats [ "flight"; "run_ms" ])))

(* Handler threads share domain 0.  Under 8 concurrent connections
   over a memory sink, every span's parent chain stays inside one
   connection's requests: each span tagged with a connection (the
   handler's serve.frame_decode and serve.encode, the worker's
   serve.request) has only ancestors of that connection, and every
   pipeline span has a serve.request ancestor.  The decode histogram in
   stats counts every frame decoded. *)
let test_handler_spans () =
  let sink = Sink.memory () in
  let nconns = 8 and per_conn = 6 in
  with_server ~domains:2 ~obs:(Obs.create sink) (fun t ->
      let worker i =
        with_client t (fun c ->
            for k = 0 to per_conn - 1 do
              let kind =
                if k mod 2 = 0 then Protocol.Ping
                else compile_with [ input (Char.chr (97 + i)) (100 + k) ]
              in
              ignore (ok_or_fail (Client.request c kind))
            done)
      in
      List.iter Thread.join (List.init nconns (fun i -> Thread.create worker i));
      let stats = with_client t stats_of in
      let begins =
        List.filter (fun (e : Sink.event) -> e.Sink.ev_kind = "span_begin") (Sink.events sink)
      in
      let spans = Hashtbl.create 256 in
      List.iter (fun (e : Sink.event) -> Hashtbl.replace spans e.Sink.ev_span e) begins;
      let attr k (e : Sink.event) = List.assoc_opt k e.Sink.ev_attrs in
      let rec chain id =
        match Hashtbl.find_opt spans id with
        | None -> []
        | Some e ->
          e :: (match attr "parent" e with Some (Sink.Int p) -> chain p | _ -> [])
      in
      List.iter
        (fun (e : Sink.event) ->
          let up = chain e.Sink.ev_span in
          let conns = List.sort_uniq compare (List.filter_map (attr "conn") up) in
          if List.length conns > 1 then
            Alcotest.failf "span %s (%d) nests under %d connections" e.Sink.ev_name
              e.Sink.ev_span (List.length conns);
          if
            (not (String.starts_with ~prefix:"serve." e.Sink.ev_name))
            && not (List.exists (fun (a : Sink.event) -> a.Sink.ev_name = "serve.request") up)
          then Alcotest.failf "span %s lies outside any request" e.Sink.ev_name)
        begins;
      let named n = List.length (List.filter (fun (e : Sink.event) -> e.Sink.ev_name = n) begins) in
      let frames = (nconns * per_conn) + 1 in
      Alcotest.(check (list int)) "decode spans: traced, in stats"
        [ frames; frames ]
        [ named "serve.frame_decode";
          int_of_float (path_number stats [ "spans"; "serve.frame_decode"; "count" ]) ];
      Alcotest.(check int) "one encode span per answer" frames (named "serve.encode"))

(* The stats fields impactbench reads are numbers, and flight.tasks
   counts exactly the admitted compile, profile and report requests. *)
let test_stats_contract () =
  with_server (fun t ->
      with_client t (fun c ->
          let stats () = ok_or_fail (Client.request c Protocol.Stats) in
          let tasks () = path_number (stats ()) [ "flight"; "tasks" ] in
          let grows label n kind =
            let before = tasks () in
            ignore (Client.request c kind);
            Alcotest.(check (float 0.)) label (before +. n) (tasks ())
          in
          grows "compile adds one task" 1. (compile_job 2);
          let s = stats () in
          List.iter
            (fun path -> ignore (path_number s path))
            [
              [ "latency_ms"; "compile:full"; "p50" ];
              [ "flight"; "tasks" ];
              [ "flight"; "queue_ms" ];
              [ "flight"; "run_ms" ];
              [ "requests"; "rejected" ];
            ];
          grows "ping adds none" 0. Protocol.Ping;
          grows "stats adds none" 0. Protocol.Stats;
          grows "profile adds one task" 1.
            (Protocol.Profile
               { Protocol.default_job with
                 Protocol.j_source = tick_src; j_inputs = [ "ab" ] });
          grows "report adds one task" 1.
            (Protocol.Report ("cmp", Protocol.default_job))));
  with_server ~max_pending:0 (fun t ->
      with_client t (fun c ->
          (match Client.request c (compile_job 1) with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "full daemon admitted a compile");
          let s = ok_or_fail (Client.request c Protocol.Stats) in
          Alcotest.(check (float 0.)) "a refused request adds no task" 0.
            (path_number s [ "flight"; "tasks" ]);
          Alcotest.(check (float 0.)) "and counts as rejected" 1.
            (path_number s [ "requests"; "rejected" ])))

(* Each out-of-range knob value is a usage error (exit 2) from impactc
   and a typed serve error on the wire: one range per knob. *)
let test_knob_ranges () =
  let impactc = Testutil.bin "impactc.exe" in
  List.iter
    (fun arg ->
      Alcotest.(check int) (arg ^ " is a usage error") 2
        (Sys.command
           (Filename.quote_command impactc ~stdout:Filename.null
              ~stderr:Filename.null [ "bench"; arg; "tee" ])))
    [
      "--devirt-threshold=5";
      "--devirt-threshold=-3";
      "--devirt-threshold=nan";
      "--timeout=-1";
      "--timeout=0";
    ];
  let job = { Protocol.default_job with Protocol.j_source = tick_src } in
  with_server (fun t ->
      with_client t (fun c ->
          List.iter
            (fun (label, job) ->
              expect_serve_error label (Client.request c (Protocol.Compile job)))
            [
              ( "devirt_threshold 5",
                { job with Protocol.j_devirt = true; j_devirt_threshold = 5. } );
              ( "devirt_threshold -3",
                { job with Protocol.j_devirt = true; j_devirt_threshold = -3. } );
              ("timeout_s -1", { job with Protocol.j_timeout_s = Some (-1.) });
              ("timeout_s 0", { job with Protocol.j_timeout_s = Some 0. });
            ]))

let tests =
  [
    Alcotest.test_case "frame roundtrip and EOF taxonomy" `Quick test_frame_roundtrip;
    Alcotest.test_case "typed errors survive the wire" `Quick test_ierr_roundtrip;
    Alcotest.test_case "request validation" `Quick test_request_validation;
    Alcotest.test_case "ping, stats, graceful shutdown" `Quick test_ping_stats_shutdown;
    Alcotest.test_case "compile requests share the warm cache" `Quick
      test_compile_and_cache;
    Alcotest.test_case "profile and report requests" `Quick test_profile_and_report;
    Alcotest.test_case "compile errors keep their stage" `Quick
      test_compile_error_is_typed;
    Alcotest.test_case "retired sampled mode is a typed wire error" `Quick
      test_retired_profile_mode;
    Alcotest.test_case "protocol fuzz matrix never kills the daemon" `Quick
      test_fuzz_frames;
    Alcotest.test_case "interleaved concurrent clients" `Quick
      test_interleaved_clients;
    Alcotest.test_case "admission control sheds load with typed errors" `Quick
      test_admission_control;
    Alcotest.test_case "fault injection requires daemon opt-in" `Quick
      test_fault_requires_optin;
    Alcotest.test_case "faulted request A does not perturb request B" `Quick
      test_faulted_request_does_not_leak;
    Alcotest.test_case "impactd startup failures are typed" `Quick
      test_daemon_startup_errors;
    Alcotest.test_case "stats agree with the trace" `Quick
      test_stats_agree_with_trace;
    Alcotest.test_case "stats keep the shape impactbench reads" `Quick
      test_stats_contract;
    Alcotest.test_case "knob ranges agree on the CLI and the wire" `Quick
      test_knob_ranges;
    Alcotest.test_case "input references round-trip, in order" `Quick
      test_reference_roundtrip;
    Alcotest.test_case "malformed and unknown references are typed" `Quick
      test_reference_fuzz;
    Alcotest.test_case "mixed strings and references keep order" `Quick
      test_reference_order;
    Alcotest.test_case "repeated inputs go by reference, short ones in full" `Quick
      test_reference_counters;
    Alcotest.test_case "an evicted reference is resent in full once" `Quick
      test_reference_evicted;
    Alcotest.test_case "handler spans keep their parents, 8 connections" `Quick
      test_handler_spans;
  ]
