(* Profiling has one mode: every function and every call-site arc is
   counted.  The retired modes ("min", "sampled") are refused wherever
   they could still arrive: in a saved profile's header, where they are
   typed profile-io errors naming the mode, and on the command line,
   where --profile-mode, whatever its value, is a usage error.  The
   wire refusal lives with the serve tests. *)

module Ierr = Impact_support.Ierr
module Atomic_io = Impact_support.Atomic_io
module Profile = Impact_profile.Profile
module Profile_io = Impact_profile.Profile_io

(* A v3 or v4 header naming a retired mode is refused with the exact
   message, and so is a saved min profile loaded from disk: no input
   format is kept for a mode that no longer exists. *)
let test_retired_headers_refused () =
  let ck = "0123456789abcdef0123456789abcdef" in
  let s = Profile_io.to_string ~checksum:ck (Profile.static_uniform ~nfuncs:2 ~nsites:2) in
  let nl = String.index s '\n' in
  let with_header header = header ^ String.sub s nl (String.length s - nl) in
  let refused header = function
    | Ok _ -> Alcotest.failf "%s accepted" header
    | Error e ->
      Alcotest.(check string) (header ^ ": typed profile-io error") "profile-io"
        (Ierr.stage_name e.Ierr.stage);
      let mode = List.nth (String.split_on_char ' ' header) 3 in
      Alcotest.(check string) (header ^ ": names the mode")
        (Printf.sprintf "bad profile mode %S in header" mode)
        e.Ierr.msg
  in
  List.iter
    (fun (version, mode) ->
      let header = Printf.sprintf "impact-profile %s %s %s" version ck mode in
      refused header (Profile_io.of_string ~expect_checksum:ck (with_header header)))
    [ ("v3", "min"); ("v3", "sampled"); ("v4", "min"); ("v4", "sampled") ];
  let header = "impact-profile v3 " ^ ck ^ " min" in
  let path = Filename.temp_file "impact_profile_modes" ".profile" in
  Atomic_io.write_string path (with_header header);
  let loaded = Profile_io.load ~expect_checksum:ck path in
  Sys.remove path;
  refused header loaded

(* The retired knobs are usage errors on the command line (exit 2):
   [--profile-mode], whatever its value, and [--engine].  The same
   command without them runs. *)
let test_cli_refuses_retired_flags () =
  let impactc = Testutil.bin "impactc.exe" in
  let command args =
    Sys.command
      (Filename.quote_command impactc ~stdout:Filename.null
         ~stderr:Filename.null ("bench" :: args @ [ "tee" ]))
  in
  List.iter
    (fun args ->
      Alcotest.(check int) (String.concat " " args ^ " is a usage error") 2
        (command args))
    [
      [ "--profile-mode"; "full" ];
      [ "--profile-mode"; "min" ];
      [ "--profile-mode"; "sampled" ];
      [ "--engine"; "reference" ];
    ];
  Alcotest.(check int) "bench tee runs" 0 (command [])

let tests =
  [
    Alcotest.test_case "sampled profile header is a typed error" `Quick
      test_retired_headers_refused;
    Alcotest.test_case "impactc refuses --profile-mode sampled" `Quick
      test_cli_refuses_retired_flags;
  ]
