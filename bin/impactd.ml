(* impactd — the compile-as-a-service daemon.

   Serves compile/profile/report/stats requests over a Unix-domain
   socket speaking the length-prefixed JSON frame protocol
   (Impact_serve.Protocol).  Work runs on a fixed set of worker
   domains; the optional --cache directory is shared across every
   request, so a source text any client has compiled before is a warm
   hit for all of them.

   Tracing covers the serving session end to end: --trace FILE records
   every request span (and the pipeline spans beneath it) as JSONL, or
   as a Chrome trace with one track per worker domain under
   --trace-format chrome.  The stream lands in FILE.tmp and is renamed
   into place at clean shutdown, so a crashed daemon never leaves a
   partial artifact that looks complete.

   Shutdown: SIGINT, SIGTERM, or a client's {"kind":"shutdown"}
   request; all three drain in-flight work before the process exits. *)

module Server = Impact_serve.Server
module Cache = Impact_harness.Cache
module Ierr = Impact_support.Ierr
module Errors = Impact_harness.Errors
open Cmdliner

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "s"; "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket to listen on (a stale file is replaced)")

let cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"DIR"
        ~doc:
          "Content-addressed stage cache shared by every request; created \
           if missing")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "domains" ] ~docv:"N"
        ~doc:"Worker domains (default: the machine's recommended count)")

let max_pending_arg =
  Arg.(
    value & opt int 64
    & info [ "max-pending" ] ~docv:"N"
        ~doc:
          "Admission cap: refuse new compile/profile/report requests (with \
           a typed retryable error) while $(docv) jobs are queued or \
           running")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write the serving session's event trace to $(docv)")

let trace_format_arg =
  let fmt = Arg.enum [ ("jsonl", `Jsonl); ("chrome", `Chrome) ] in
  Arg.(
    value & opt fmt `Jsonl
    & info [ "trace-format" ] ~docv:"FORMAT"
        ~doc:
          "Format of the $(b,--trace) file: $(b,jsonl) (one event object \
           per line, the default) or $(b,chrome) (Chrome trace-event JSON \
           with one track per worker domain — load it in ui.perfetto.dev)")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Write the final counter/gauge snapshot as JSON at shutdown")

let allow_faults_arg =
  Arg.(
    value & flag
    & info [ "allow-fault-injection" ]
        ~doc:
          "Honor per-request $(b,fault) specs (chaos drills and tests \
           only; fault points are process-global, so a faulted request \
           can perturb concurrent neighbours)")

let quiet_arg =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No startup banner")

(* Startup failures (an unbindable socket, a cache directory that cannot
   be created, an unwritable trace) are one line, [impactd: <stage>
   error: ...], and exit with the error's code. *)
let serve socket cache_dir domains max_pending trace trace_format metrics_out
    allow_faults quiet =
  try
    Impact_harness.Obs_out.with_obs ~format:trace_format ~trace ~metrics_out
      ~on_broken:(fun err ->
        Printf.eprintf "impactd: warning: trace discarded: %s\n"
          (Ierr.to_string err))
      (fun obs ->
        let cache =
          Option.map
            (fun dir -> Errors.guard Ierr.Cache (fun () -> Cache.create dir))
            cache_dir
        in
        let cfg =
          {
            Server.socket_path = socket;
            domains;
            max_pending;
            cache;
            obs;
            allow_faults;
          }
        in
        let t = Errors.guard Ierr.Serve (fun () -> Server.start cfg) in
        if not quiet then begin
          Printf.printf "impactd: listening on %s (%s domains, max-pending %d%s)\n"
            socket
            (match domains with Some n -> string_of_int n | None -> "auto")
            max_pending
            (match cache_dir with Some d -> ", cache " ^ d | None -> "");
          flush stdout
        end;
        let on_signal _ = Server.request_shutdown t in
        Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
        Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
        Server.wait t;
        if not quiet then begin
          print_endline "impactd: shutting down";
          flush stdout
        end;
        Server.stop t)
  with Ierr.Error e ->
    Printf.eprintf "impactd: %s\n" (Ierr.to_string e);
    exit (Ierr.exit_code e)

let cmd =
  let doc = "inline-expansion compile service over a Unix-domain socket" in
  Cmd.v
    (Cmd.info "impactd" ~version:"1.0.0" ~doc)
    Term.(
      const serve $ socket_arg $ cache_arg $ domains_arg $ max_pending_arg
      $ trace_arg $ trace_format_arg $ metrics_out_arg $ allow_faults_arg
      $ quiet_arg)

let () = exit (Cmd.eval cmd)
