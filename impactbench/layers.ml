(* Per-layer numbers for the benchmark's traced runs.

   A traced compile is [Pipeline.run] itself, given an observability
   context over an in-memory sink.  The pipeline already opens a span
   around each stage (parse, sema, lower, pre_opt, profile, re_profile,
   callgraph, classify, post_classify, and inside inline: linearize,
   select, expand, dce) and counts every cache hit, miss and store per
   stage; each stage's self time is its span's duration minus what its
   child spans cover.

   The pipeline opens no span around its cache keys, lookups, stores and
   checksums, so after each traced compile [record] repeats those calls
   on the same inputs and times them, and for every profiling pass that
   ran it re-runs the program on the bare interpreter to split decoding
   from execution.  None of this feeds the compile: checksums and keys
   are recomputed from its result, lookups only read the store, and a
   store is replayed with the very payload the pipeline wrote.  The
   replayed keys must account for every hit, miss and store the pipeline
   counted, stage by stage, or the record reports a mismatch. *)

module Pipeline = Impact_harness.Pipeline
module Cache = Impact_harness.Cache
module Cstore = Impact_support.Cstore
module Obs = Impact_obs.Obs
module Sink = Impact_obs.Sink
module Metrics = Impact_obs.Metrics
module Il = Impact_il.Il
module Machine = Impact_interp.Machine
module Threaded = Impact_interp.Threaded
module Profile_io = Impact_profile.Profile_io
module Coverage = Impact_profile.Coverage
module Config = Impact_core.Config
module Inliner = Impact_core.Inliner
module Benchmark = Impact_bench_progs.Benchmark

type t = {
  workload : string;
  sums : (string, float) Hashtbl.t;  (* per-layer metric -> summed value *)
  mutable traced_ms : float;  (* summed "pipeline" span durations *)
  mutable accounted_ms : float;
      (* summed self times of the stage spans plus the replayed keys,
         checksums, lookups and stores: what the layers explain *)
  mutable spans : Sink.json list;  (* for the JSONL file, newest first *)
  mutable mismatches : string list;
}

let create ~workload =
  {
    workload;
    sums = Hashtbl.create 32;
    traced_ms = 0.;
    accounted_ms = 0.;
    spans = [];
    mismatches = [];
  }

let get t name = Option.value ~default:0. (Hashtbl.find_opt t.sums name)

let add t name v = Hashtbl.replace t.sums name (v +. get t name)

let timed t name f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  let ms = 1000. *. (Unix.gettimeofday () -. t0) in
  add t name ms;
  t.accounted_ms <- t.accounted_ms +. ms;
  v

(* The pipeline's span names and the per-layer metric that sums their
   self time.  Spans without one (linearize, dce, devirt) still count in
   [accounted_ms]. *)
let layer_of_span = function
  | "parse" -> Some "cfront.parse_ms"
  | "sema" -> Some "cfront.sema_ms"
  | "lower" -> Some "il.lower_ms"
  | "pre_opt" -> Some "opt.pre_inline_ms"
  | "profile" -> Some "profile.profile_ms"
  | "re_profile" -> Some "profile.reprofile_ms"
  | "callgraph" -> Some "callgraph.build_ms"
  | "classify" | "post_classify" -> Some "core.classify_ms"
  | "select" -> Some "core.select_ms"
  | "expand" -> Some "core.expand_ms"
  | _ -> None

type span = {
  id : int;
  name : string;
  parent : int;  (* 0 for the root *)
  start : float;
  mutable dur : float;  (* ms *)
  mutable covered : float;  (* ms of [dur] inside child spans *)
}

let spans_of events =
  let by_id = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun (e : Sink.event) ->
      match e.Sink.ev_kind with
      | "span_begin" ->
        let parent =
          match List.assoc_opt "parent" e.Sink.ev_attrs with Some (Sink.Int p) -> p | _ -> 0
        in
        let s =
          { id = e.Sink.ev_span; name = e.Sink.ev_name; parent; start = e.Sink.ev_ts; dur = 0.;
            covered = 0. }
        in
        Hashtbl.replace by_id s.id s;
        order := s :: !order
      | "span_end" ->
        Option.iter
          (fun s -> s.dur <- 1000. *. (e.Sink.ev_ts -. s.start))
          (Hashtbl.find_opt by_id e.Sink.ev_span)
      | _ -> ())
    events;
  List.iter
    (fun s ->
      Option.iter (fun p -> p.covered <- p.covered +. s.dur) (Hashtbl.find_opt by_id s.parent))
    !order;
  List.rev !order

(* Decode time is the shortest input's run on an empty decode cache
   minus its run on the warmed one, each the fastest of three tries
   (decoding is lazy and small next to a run, so single pairs drown in
   noise); execute time is every input on the warmed cache.  Both run on
   a copy of the program. *)
let interp_breakdown t prog ~inputs =
  let prog = Il.copy_program prog in
  let shortest =
    List.fold_left
      (fun a s -> if String.length s < String.length a then s else a)
      (List.hd inputs) inputs
  in
  let run cache input =
    let t0 = Unix.gettimeofday () in
    ignore (Machine.run ~cache prog ~input);
    1000. *. (Unix.gettimeofday () -. t0)
  in
  let cold = ref infinity and warm = ref infinity and cache = ref (Threaded.cache ()) in
  for _ = 1 to 3 do
    cache := Threaded.cache ();
    cold := Float.min !cold (run !cache shortest);
    warm := Float.min !warm (run !cache shortest)
  done;
  add t "interp.decode_ms" (Float.max 0. (!cold -. !warm));
  List.iter (fun input -> add t "interp.exec_ms" (run !cache input)) inputs

let rec remove_first x = function
  | [] -> []
  | y :: rest -> if x = y then rest else y :: remove_first x rest

(* [record t ?cache ~config ~pass b] compiles [b] as
   [Pipeline.run ?cache ~config b] does, with the Strict policy, the
   threaded engine, full profiles and pre-inline optimisation, and adds
   its layers to [t]. *)
let record t ?cache ~config ~pass (b : Benchmark.t) =
  let obs = Obs.create (Sink.memory ()) in
  let origin = Unix.gettimeofday () in
  let r = Pipeline.run ~obs ?cache ~config b in
  let events = Sink.events (Obs.sink obs) in
  let spans = spans_of events in
  List.iter
    (fun s ->
      let self = s.dur -. s.covered in
      if s.parent = 0 then t.traced_ms <- t.traced_ms +. s.dur
      else t.accounted_ms <- t.accounted_ms +. self;
      Option.iter (fun m -> add t m self) (layer_of_span s.name);
      if s.name = "inline" then add t "core.inline_ms" s.dur;
      t.spans <-
        Sink.Obj
          [
            ("name", Sink.String s.name);
            ("id", Sink.Int s.id);
            ("parent", Sink.Int s.parent);
            ("start", Sink.Float (origin +. s.start));
            ("end", Sink.Float (origin +. s.start +. (s.dur /. 1000.)));
            ("self_ms", Sink.Float self);
            ("workload", Sink.String t.workload);
            ("program", Sink.String b.Benchmark.name);
            ("pass", Sink.Int pass);
          ]
        :: t.spans)
    spans;
  let ran name = List.exists (fun s -> s.name = name) spans in
  let counter name = Metrics.counter_value obs.Obs.metrics name in
  let count name c = add t name (float_of_int (counter c)) in
  count "interp.dyn_ils" "machine.ils";
  count "callgraph.arcs" "select.arcs";
  count "core.sites_expanded" "expand.expansions";
  count "cache.hits" "cache.hit";
  count "cache.misses" "cache.miss";
  if ran "parse" then begin
    add t "cfront.source_bytes" (float_of_int (String.length b.Benchmark.source));
    match List.assoc_opt "il.size_lowered" (Metrics.snapshot obs.Obs.metrics) with
    | Some (Sink.Int n) -> add t "il.instrs_lowered" (float_of_int n)
    | _ -> ()
  end;
  (* The checksums and keys the pipeline computed, in its order. *)
  let inputs = b.Benchmark.inputs () in
  let checksum f = timed t "profile.checksum_ms" f in
  let post_prog = r.Pipeline.inliner.Inliner.program in
  let prog_sum = checksum (fun () -> Profile_io.program_checksum r.Pipeline.prog) in
  let profile_sum = checksum (fun () -> Profile_io.profile_checksum r.Pipeline.profile) in
  let post_sum = checksum (fun () -> Profile_io.program_checksum post_prog) in
  let post_profile_sum = checksum (fun () -> Profile_io.profile_checksum r.Pipeline.post_profile) in
  let fp = Config.fingerprint config in
  let profile_parts sum =
    ("profile-" ^ Machine.engine_to_string Machine.Threaded)
    :: ("mode-" ^ Coverage.mode_name Coverage.Full)
    :: sum :: inputs
  in
  (* (stage, key parts, times the pipeline computed the key): a profiling
     pass that ran computes its key again to store the result. *)
  let lookups =
    [
      ("front", [ "front"; b.Benchmark.source; "true" ], 1);
      ("profile", profile_parts prog_sum, if ran "profile" then 2 else 1);
      ( "classify",
        [ "classify"; "pre"; prog_sum; profile_sum; fp;
          string_of_bool config.Config.refine_pointer_targets ],
        1 );
      ("inline", [ "inline"; prog_sum; profile_sum; fp; "false" ], 1);
      ("profile", profile_parts post_sum, if ran "re_profile" then 2 else 1);
      ("classify", [ "classify"; "post"; post_sum; post_profile_sum; fp; "false" ], 1);
    ]
  in
  let keys =
    List.map
      (fun (stage, parts, times) ->
        let key = ref "" in
        for _ = 1 to times do
          key := timed t "cache.key_ms" (fun () -> Cache.key parts)
        done;
        (stage, !key))
      lookups
  in
  (match cache with
  | None -> ()
  | Some c ->
    let store = Cache.cstore c in
    let hits =
      ref
        (List.filter_map
           (fun (e : Sink.event) ->
             match (e.Sink.ev_name, List.assoc_opt "key" e.Sink.ev_attrs) with
             | "cache.reuse", Some (Sink.String k) -> Some k
             | _ -> None)
           events)
    in
    let replayed = Hashtbl.create 8 in
    let replays what stage = Option.value ~default:0 (Hashtbl.find_opt replayed (what, stage)) in
    let tally what stage = Hashtbl.replace replayed (what, stage) (1 + replays what stage) in
    List.iter
      (fun (stage, key) ->
        let hit = List.mem key !hits in
        tally (if hit then "hit" else "miss") stage;
        if hit then begin
          hits := remove_first key !hits;
          match timed t "cstore.read_ms" (fun () -> Cstore.find store ~stage ~key) with
          | Cstore.Hit payload ->
            add t "cache.bytes_read" (float_of_int (String.length payload));
            ignore (timed t "cache.decode_ms" (fun () -> Marshal.from_string payload 0))
          | Cstore.Miss | Cstore.Corrupt _ ->
            t.mismatches <-
              Printf.sprintf "%s: %s hit not in the store" b.Benchmark.name stage :: t.mismatches
        end
        else
          (* The pipeline missed here and stored what it computed. *)
          match Cstore.find store ~stage ~key with
          | Cstore.Hit payload ->
            tally "store" stage;
            add t "cache.bytes_written" (float_of_int (String.length payload));
            let v = Marshal.from_string payload 0 in
            timed t "cache.put_ms" (fun () -> Cache.put c Obs.null ~stage ~key v)
          | Cstore.Miss | Cstore.Corrupt _ -> ())
      keys;
    List.iter
      (fun (what, stage) ->
        let counted = counter (Printf.sprintf "cache.%s.%s" what stage) in
        if replays what stage <> counted then
          t.mismatches <-
            Printf.sprintf "%s: %d cache %s(s) at stage %s, replay found %d" b.Benchmark.name
              counted what stage (replays what stage)
            :: t.mismatches)
      (List.concat_map
         (fun stage -> [ ("hit", stage); ("miss", stage); ("store", stage) ])
         [ "front"; "profile"; "classify"; "inline" ]));
  if ran "profile" then interp_breakdown t r.Pipeline.prog ~inputs;
  if ran "re_profile" then interp_breakdown t post_prog ~inputs;
  r

let write_jsonl t path =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          Out_channel.output_string oc (Sink.json_to_string s);
          Out_channel.output_char oc '\n')
        (List.rev t.spans))
