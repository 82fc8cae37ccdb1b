(* Golden-snapshot generator: runs the full pipeline on one fixed
   (benchmark, config) combination and prints {!Report.to_json} —
   Tables 1–4, the stack table, and the §4.4 residual mix — as
   pretty-printed JSON, one field per line, so a drift in any reported
   number shows up as a one-line diff under `dune runtest` and is
   accepted with `dune promote`.

   With the single argument [checksums] it prints, instead, the
   persisted checksums of every suite program (see [print_checksums]).

   Everything printed is deterministic: the benchmarks' workloads are
   seeded, the pipeline is single-threaded here, and the report carries
   no timing data. *)

module Config = Impact_core.Config
module Sink = Impact_obs.Sink

(* Pretty-printer over the repo's own JSON type (the sink only renders
   compact single-line JSON, which would make every drift an
   all-or-nothing diff). *)
let rec pp buf indent = function
  | Sink.Obj [] -> Buffer.add_string buf "{}"
  | Sink.Obj fields ->
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf (String.make (indent + 2) ' ');
        Buffer.add_string buf (Sink.json_to_string (Sink.String k));
        Buffer.add_string buf ": ";
        pp buf (indent + 2) v)
      fields;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make indent ' ');
    Buffer.add_char buf '}'
  | Sink.List [] -> Buffer.add_string buf "[]"
  | Sink.List items ->
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf (String.make (indent + 2) ' ');
        pp buf (indent + 2) v)
      items;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make indent ' ');
    Buffer.add_char buf ']'
  | leaf -> Buffer.add_string buf (Sink.json_to_string leaf)

let config_of = function
  | "default" -> Config.default
  | "static-leaf" ->
    (* The PL.8-style ablation: profile-blind leaf inlining, with room
       to expand — a different selection, classification and growth
       profile from the paper's default. *)
    {
      Config.default with
      Config.heuristic = Config.Static_leaf;
      program_size_limit_ratio = 2.0;
    }
  | "devirt" ->
    (* Value-profiled speculation on: the report grows its "devirt"
       section (per-site decisions) and the residual pointer mix
       shifts — the snapshot pins both. *)
    { Config.default with Config.devirt = true }
  | other -> failwith ("golden_gen: unknown config " ^ other)

(* The checksums that profile headers and stage-cache keys persist, pre
   and post inline, for every suite program: a drift in [Il_pp] or
   [Profile_io.to_string] silently invalidates every saved profile and
   cache entry, so it must show up here as a diff. *)
let print_checksums () =
  let module Pipeline = Impact_harness.Pipeline in
  let module Profile_io = Impact_profile.Profile_io in
  List.iter
    (fun bench ->
      let r = Pipeline.run bench in
      let line what phase sum =
        Printf.printf "%s %s %s %s\n" bench.Impact_bench_progs.Benchmark.name
          what phase sum
      in
      line "program_checksum" "pre " (Profile_io.program_checksum r.Pipeline.prog);
      line "program_checksum" "post"
        (Profile_io.program_checksum
           r.Pipeline.inliner.Impact_core.Inliner.program);
      line "profile_checksum" "pre " (Profile_io.profile_checksum r.Pipeline.profile);
      line "profile_checksum" "post"
        (Profile_io.profile_checksum r.Pipeline.post_profile))
    Impact_bench_progs.Suite.all

let () =
  if Sys.argv.(1) = "checksums" then (print_checksums (); exit 0);
  let bench = Impact_bench_progs.Suite.find Sys.argv.(1) in
  let config = config_of Sys.argv.(2) in
  let r = Impact_harness.Pipeline.run ~config bench in
  let buf = Buffer.create 4096 in
  pp buf 0 (Impact_harness.Report.to_json [ r ]);
  Buffer.add_char buf '\n';
  print_string (Buffer.contents buf)
