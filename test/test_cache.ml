(* The content-addressed stage cache, from the store's byte format up to
   the incremental pipeline:

   - store unit behaviour: roundtrip, persistence, key hygiene, LRU
     eviction under a byte budget;
   - keys: the pipeline's pre-digested form equals [Cache.key] of the
     documented parts, and a checksum carried in a payload keys exactly
     what a recomputed one would;
   - on-disk corruption (bit flips, truncation, foreign files) is a
     typed miss that repairs itself, never a failure — even under the
     Strict pipeline policy;
   - a warm pipeline rerun is byte-identical to the cold one and skips
     every stage (>= 90% of lookups hit, observed through the cache
     hit/miss counters), checksums included;
   - every key, lookup, decode, store and checksum runs in its own span,
     and the spans agree with the counters;
   - invalidation is precise: a whitespace-only source change recompiles
     the front end but reuses every later stage (the lowered program's
     checksum is unchanged); flipping one config field reuses the front
     end and the profiles but recomputes classification and selection; a
     semantic source change recomputes everything;
   - a handle remembers its inputs' digests: exact MD5s compared by
     content, also for long inputs that share the memo's sampled bucket
     hash, within a byte budget, least recently used first (checked
     against a model memo), and safe from two domains at once. *)

module Cstore = Impact_support.Cstore
module Digest_memo = Impact_support.Digest_memo
module Ierr = Impact_support.Ierr
module Cache = Impact_harness.Cache
module Pipeline = Impact_harness.Pipeline
module Report = Impact_harness.Report
module Config = Impact_core.Config
module Inliner = Impact_core.Inliner
module Benchmark = Impact_bench_progs.Benchmark
module Suite = Impact_bench_progs.Suite
module Il_pp = Impact_il.Il_pp
module Obs = Impact_obs.Obs
module Sink = Impact_obs.Sink
module Metrics = Impact_obs.Metrics
module Trace = Impact_obs.Trace

let tmp_dir () =
  let path = Filename.temp_file "impact_cache" "" in
  Sys.remove path;
  path

let counter obs name = Metrics.counter_value obs.Obs.metrics name

(* ------------------------------------------------------------------ *)
(* Store unit behaviour                                                *)
(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  Alcotest.(check bool)
    "moving a split point changes the key" true
    (Cstore.digest_key [ "ab"; "c" ] <> Cstore.digest_key [ "a"; "bc" ]);
  let dir = tmp_dir () in
  let s = Cstore.create dir in
  let key = Cstore.digest_key [ "k" ] in
  (match Cstore.find s ~stage:"t" ~key with
  | Cstore.Miss -> ()
  | _ -> Alcotest.fail "expected a miss on the empty store");
  let payload = "payload\x00with\xffarbitrary bytes" in
  Cstore.store s ~stage:"t" ~key payload;
  (match Cstore.find s ~stage:"t" ~key with
  | Cstore.Hit p -> Alcotest.(check string) "payload survives" payload p
  | _ -> Alcotest.fail "expected a hit");
  (* A fresh handle over the same directory sees the entry. *)
  let s2 = Cstore.create dir in
  (match Cstore.find s2 ~stage:"t" ~key with
  | Cstore.Hit p -> Alcotest.(check string) "persisted" payload p
  | _ -> Alcotest.fail "entry did not persist across handles");
  (* Same key under another stage tag is a different entry. *)
  match Cstore.find s2 ~stage:"u" ~key with
  | Cstore.Miss -> ()
  | _ -> Alcotest.fail "stage tag leaked across entries"

let entry_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".ice")
  |> List.sort compare

let clobber path f =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (f s);
  close_out oc

let test_corruption_is_a_miss () =
  let dir = tmp_dir () in
  let s = Cstore.create dir in
  let key = Cstore.digest_key [ "k" ] in
  Cstore.store s ~stage:"t" ~key "the payload";
  let file =
    match entry_files dir with [ f ] -> Filename.concat dir f | _ -> assert false
  in
  (* Bit-flip the last payload byte: digest mismatch. *)
  clobber file (fun c ->
      let b = Bytes.of_string c in
      let i = Bytes.length b - 1 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      Bytes.to_string b);
  (match Cstore.find s ~stage:"t" ~key with
  | Cstore.Corrupt e ->
    Alcotest.(check string) "typed stage" "cache" (Ierr.stage_name e.Ierr.stage)
  | _ -> Alcotest.fail "bit flip not detected");
  Alcotest.(check bool) "entry dropped" true (entry_files dir = []);
  (* The next store repairs it. *)
  Cstore.store s ~stage:"t" ~key "the payload";
  (match Cstore.find s ~stage:"t" ~key with
  | Cstore.Hit _ -> ()
  | _ -> Alcotest.fail "repair failed");
  (* Truncation: drop the tail. *)
  clobber file (fun c -> String.sub c 0 (String.length c - 4));
  (match Cstore.find s ~stage:"t" ~key with
  | Cstore.Corrupt _ -> ()
  | _ -> Alcotest.fail "truncation not detected");
  (* A foreign file under the right name. *)
  Cstore.store s ~stage:"t" ~key "the payload";
  clobber file (fun _ -> "not a cache entry at all\n");
  (match Cstore.find s ~stage:"t" ~key with
  | Cstore.Corrupt _ -> ()
  | _ -> Alcotest.fail "foreign file not detected");
  let st = Cstore.stats s in
  Alcotest.(check int) "three corruptions counted" 3 st.Cstore.corrupt

let test_eviction () =
  let dir = tmp_dir () in
  (* Budget fits roughly two of the ~1100-byte entries. *)
  let s = Cstore.create ~max_bytes:2500 dir in
  let payload = String.make 1000 'x' in
  let key i = Cstore.digest_key [ string_of_int i ] in
  Cstore.store s ~stage:"t" ~key:(key 0) payload;
  Cstore.store s ~stage:"t" ~key:(key 1) payload;
  (* Touch entry 0 so entry 1 is the LRU victim. *)
  (match Cstore.find s ~stage:"t" ~key:(key 0) with
  | Cstore.Hit _ -> ()
  | _ -> Alcotest.fail "entry 0 missing before eviction");
  Cstore.store s ~stage:"t" ~key:(key 2) payload;
  let st = Cstore.stats s in
  Alcotest.(check bool) "evicted at least once" true (st.Cstore.evictions >= 1);
  Alcotest.(check bool)
    "under budget" true
    (Cstore.total_bytes s <= 2500);
  (match Cstore.find s ~stage:"t" ~key:(key 2) with
  | Cstore.Hit _ -> ()
  | _ -> Alcotest.fail "the entry just stored was evicted");
  (match Cstore.find s ~stage:"t" ~key:(key 0) with
  | Cstore.Hit _ -> ()
  | _ -> Alcotest.fail "recently-used entry was evicted");
  match Cstore.find s ~stage:"t" ~key:(key 1) with
  | Cstore.Miss -> ()
  | _ -> Alcotest.fail "LRU entry survived"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let file_size path = String.length (read_file path)

(* The files named by INDEX journal lines, which must all be
   "<tick> <file>". *)
let journal_files text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match String.index_opt l ' ' with
         | Some i when int_of_string_opt (String.sub l 0 i) <> None ->
           String.sub l (i + 1) (String.length l - i - 1)
         | _ -> Alcotest.failf "malformed journal line %S" l)

(* The files a whole INDEX names, after its header. *)
let index_files dir =
  let text = read_file (Filename.concat dir "INDEX") in
  let header = "impact-cache-index v1\n" in
  let n = String.length header in
  Alcotest.(check string) "INDEX header" header (String.sub text 0 (min n (String.length text)));
  journal_files (String.sub text n (String.length text - n))

(* Outside compaction a store writes its entry file and appends to INDEX
   one line for the entry it stored plus one for each entry hit since
   the previous append: INDEX grows by exactly those lines, and the
   stats count exactly the bytes of the entry and of the lines.  A store
   that rewrote the whole index would fail every round. *)
let test_store_appends_one_line () =
  let dir = tmp_dir () in
  let s = Cstore.create dir in
  let index = Filename.concat dir "INDEX" in
  let key i = Printf.sprintf "k%02d" i in
  let file i = "t-" ^ key i ^ ".ice" in
  for i = 0 to 19 do
    Cstore.store s ~stage:"t" ~key:(key i) (String.make (100 + i) 'x')
  done;
  let hit i =
    match Cstore.find s ~stage:"t" ~key:(key i) with
    | Cstore.Hit _ -> ()
    | _ -> Alcotest.failf "%s missing" (key i)
  in
  for r = 0 to 9 do
    let st = Cstore.stats s in
    let before = read_file index in
    let index0 = st.Cstore.index_bytes_written and entries0 = st.Cstore.bytes_written in
    let a = r and b = r + 5 in
    (* [a] is hit twice and owes one line.  Every third round re-stores
       [b], whose store line then supersedes its hit line. *)
    hit a;
    hit b;
    hit a;
    let stored = if r mod 3 = 2 then b else 20 + r in
    Cstore.store s ~stage:"t" ~key:(key stored) (Printf.sprintf "round %d" r);
    let after = read_file index in
    let grown = String.length after - String.length before in
    Alcotest.(check bool)
      (Printf.sprintf "round %d: INDEX only appended to" r)
      true
      (grown > 0 && String.sub after 0 (String.length before) = before);
    let tail = String.sub after (String.length before) grown in
    Alcotest.(check (list string))
      (Printf.sprintf "round %d: one line per entry hit or stored" r)
      (List.sort_uniq compare [ file a; file b; file stored ])
      (List.sort compare (journal_files tail));
    Alcotest.(check int)
      (Printf.sprintf "round %d: index bytes counted" r)
      grown
      (st.Cstore.index_bytes_written - index0);
    Alcotest.(check int)
      (Printf.sprintf "round %d: entry bytes counted" r)
      (file_size (Filename.concat dir (file stored)))
      (st.Cstore.bytes_written - entries0)
  done;
  (* A sound journal within twice the live entries is not compacted on
     reopen, and replays to the same entries. *)
  let live = Cstore.entry_count s in
  let reopened = Cstore.create dir in
  Alcotest.(check int) "reopen writes no index" 0
    (Cstore.stats reopened).Cstore.index_bytes_written;
  Alcotest.(check int) "reopen sees every entry" live (Cstore.entry_count reopened);
  Alcotest.(check (list string)) "journal lines name only entries" (entry_files dir)
    (List.sort_uniq compare (index_files dir));
  (* Re-storing one entry only appends, until the journal would hold
     more than twice as many lines as there are entries: then it is
     rewritten with one line per entry. *)
  let lines () = List.length (index_files dir) in
  let rec restore prev n =
    Cstore.store s ~stage:"t" ~key:(key 0) "again";
    let now = lines () in
    if now > prev && n < 2 * live then restore now (n + 1) else prev
  in
  let longest = restore (lines ()) 0 in
  Alcotest.(check int) "journal grows to twice the entries" (2 * live) longest;
  Alcotest.(check (list string)) "then is compacted to one line per entry"
    (entry_files dir)
    (List.sort compare (index_files dir))

(* Keys over arbitrary byte strings, empty parts and empty lists
   included.  The pipeline's form, whose shared trailing parts (the
   profiling inputs) arrive pre-digested, is [Cache.key] of the same
   parts; and adding an empty part, swapping two parts or moving the
   split point between two neighbours changes the key. *)
let prop_keys =
  let part = QCheck.Gen.(oneof [ return ""; string_size (int_bound 3); string ]) in
  let parts = QCheck.Gen.(list_size (int_bound 5) part) in
  QCheck.Test.make ~count:1000
    ~name:"keys: pre-digested form, split points, empty parts, order"
    (QCheck.make
       ~print:QCheck.Print.(quad (list string) (list string) int int)
       QCheck.Gen.(quad parts parts nat nat))
    (fun (a, b, i, j) ->
      let parts = a @ b in
      let key = Cache.key parts in
      let n = List.length parts in
      let arr = Array.of_list parts in
      let distinct l = l = parts || Cache.key l <> key in
      let with_empty =
        let k = i mod (n + 1) in
        List.filteri (fun x _ -> x < k) parts
        @ ("" :: List.filteri (fun x _ -> x >= k) parts)
      in
      let swapped () =
        let s = Array.copy arr in
        s.(i mod n) <- arr.(j mod n);
        s.(j mod n) <- arr.(i mod n);
        Array.to_list s
      in
      let resplit () =
        let p = i mod (n - 1) in
        let joined = arr.(p) ^ arr.(p + 1) in
        let k = j mod (String.length joined + 1) in
        let s = Array.copy arr in
        s.(p) <- String.sub joined 0 k;
        s.(p + 1) <- String.sub joined k (String.length joined - k);
        Array.to_list s
      in
      Cache.key_of_digests (List.map Digest.string a @ List.map Digest.string b)
      = key
      && Cache.key with_empty <> key
      && (n < 1 || distinct (swapped ()))
      && (n < 2 || distinct (resplit ())))

(* ------------------------------------------------------------------ *)
(* Warm pipeline reruns                                                *)
(* ------------------------------------------------------------------ *)

(* Everything the pipeline reports, as comparable bytes. *)
let fingerprint (r : Pipeline.result) =
  Il_pp.dump r.Pipeline.inliner.Inliner.program
  ^ "\n" ^ Sink.json_to_string (Report.to_json [ r ])

(* The six stage keys' documented parts, in pipeline order, rebuilt from
   a result's artifacts with freshly computed checksums. *)
let stage_parts ?(config = Config.default) (r : Pipeline.result) =
  let module Profile_io = Impact_profile.Profile_io in
  let bench = r.Pipeline.bench in
  let prog_sum = Profile_io.program_checksum r.Pipeline.prog in
  let profile_sum = Profile_io.profile_checksum r.Pipeline.profile in
  let post_sum =
    Profile_io.program_checksum r.Pipeline.inliner.Inliner.program
  in
  let post_profile_sum = Profile_io.profile_checksum r.Pipeline.post_profile in
  let fp = Config.fingerprint config in
  let profile sum =
    ( "profile",
      "profile-threaded" :: "mode-full" :: sum :: bench.Benchmark.inputs () )
  in
  [
    ("front", [ "front"; bench.Benchmark.source; "true" ]);
    profile prog_sum;
    ( "classify",
      [ "classify"; "pre"; prog_sum; profile_sum; fp;
        string_of_bool config.Config.refine_pointer_targets ] );
    ("inline", [ "inline"; prog_sum; profile_sum; fp; "false" ]);
    profile post_sum;
    ("classify", [ "classify"; "post"; post_sum; post_profile_sum; fp; "false" ]);
  ]

let key_work obs = (counter obs "cache.checksum", counter obs "cache.key_bytes")

let bytes_read obs = counter obs "cache.bytes_read"

let test_warm_run_identical () =
  let dir = tmp_dir () in
  let bench = Suite.find "cmp" in
  (* Without a cache no key is built, so nothing is checksummed or
     digested. *)
  let plain_obs = Obs.create (Sink.memory ()) in
  let plain = Pipeline.run ~obs:plain_obs bench in
  Alcotest.(check (pair int int)) "uncached run: no checksum, no key bytes"
    (0, 0) (key_work plain_obs);
  Alcotest.(check int) "uncached run reads no entry" 0 (bytes_read plain_obs);
  let cold_obs = Obs.create (Sink.memory ()) in
  let cold = Pipeline.run ~obs:cold_obs ~cache:(Cache.create dir) bench in
  Alcotest.(check string) "the cache changes no answer" (fingerprint plain)
    (fingerprint cold);
  Alcotest.(check int) "cold run has no hits" 0 (counter cold_obs "cache.hit");
  Alcotest.(check int) "cold run stores every stage" 6
    (counter cold_obs "cache.store");
  Alcotest.(check int) "cold run reads no entry" 0 (bytes_read cold_obs);
  (* Every key part is digested once per key, except the profiling
     inputs, which both profile keys share and are digested once. *)
  let part_bytes parts = List.fold_left (fun n p -> n + String.length p) 0 parts in
  let key_bytes =
    List.fold_left (fun n (_, parts) -> n + part_bytes parts) 0 (stage_parts cold)
    - part_bytes (bench.Benchmark.inputs ())
  in
  Alcotest.(check (pair int int))
    "cold run: four checksums, inputs digested once" (4, key_bytes)
    (key_work cold_obs);
  (* A fresh handle over the same directory: the warm run must rebuild
     its view of the store from disk alone. *)
  let obs = Obs.create (Sink.memory ()) in
  let cache = Cache.create dir in
  let warm = Pipeline.run ~obs ~cache bench in
  Alcotest.(check string) "byte-identical result" (fingerprint cold)
    (fingerprint warm);
  Alcotest.(check int) "warm run misses nothing" 0 (counter obs "cache.miss");
  Alcotest.(check int) "warm run hits every stage" 6 (counter obs "cache.hit");
  Alcotest.(check (pair int int))
    "warm run: checksums come from the hits, same key bytes" (0, key_bytes)
    (key_work obs);
  (* The ISSUE's acceptance bar: >= 90% of stage work skipped. *)
  Alcotest.(check bool) "hit rate >= 0.9" true
    (Cstore.hit_rate (Cstore.stats (Cache.cstore cache)) >= 0.9);
  (* The warm run read exactly the payloads of the six entries it hit. *)
  let payload_bytes =
    List.fold_left
      (fun n (stage, parts) ->
        match Cstore.find (Cache.cstore cache) ~stage ~key:(Cache.key parts) with
        | Cstore.Hit payload -> n + String.length payload
        | Cstore.Miss | Cstore.Corrupt _ -> Alcotest.failf "%s entry not stored" stage)
      0 (stage_parts cold)
  in
  Alcotest.(check int) "warm run: bytes read are the hit payloads'" payload_bytes
    (bytes_read obs);
  (* The reused selection shows up in the decision log. *)
  let cached_decisions =
    Sink.events (Obs.sink obs)
    |> List.filter (fun (e : Sink.event) ->
           e.Sink.ev_kind = "decision" && e.Sink.ev_name = "inline.cached")
  in
  Alcotest.(check int) "inline.cached decision logged" 1
    (List.length cached_decisions)

(* The span tree of a traced run: every span as (name, stage, parent's
   name), in begin order. *)
let span_tree sink =
  let spans = Trace.self_times (Sink.events sink) in
  let name_of id =
    match List.find_opt (fun (s : Trace.span) -> s.Trace.id = id) spans with
    | Some s -> s.Trace.name
    | None -> ""
  in
  List.map
    (fun (s : Trace.span) ->
      let stage =
        match Sink.mem "stage" (Sink.Obj s.Trace.attrs) with
        | Sink.String stage -> stage
        | _ -> ""
      in
      (s.Trace.name, stage, name_of s.Trace.parent))
    spans

(* The cache's spans against its counters, stage by stage, over a cold
   and then a warm run on one store, and over a degraded run whose
   recovered profile is not stored; an uncached run opens none of them
   and keeps the pipeline's own spans under their parents. *)
let test_cache_spans_match_counters () =
  let bench = Suite.find "cmp" in
  let plain = Sink.memory () in
  ignore (Pipeline.run ~obs:(Obs.create plain) bench);
  Alcotest.(check (list (pair string string)))
    "uncached span tree"
    [
      ("pipeline", ""); ("parse", "pipeline"); ("sema", "pipeline");
      ("lower", "pipeline"); ("pre_opt", "pipeline"); ("inputs", "pipeline");
      ("profile", "pipeline"); ("callgraph", "pipeline");
      ("classify", "pipeline"); ("inline", "pipeline"); ("callgraph", "inline");
      ("classify", "inline"); ("linearize", "inline"); ("select", "inline");
      ("expand", "inline"); ("dce", "inline"); ("re_profile", "pipeline");
      ("post_callgraph", "pipeline"); ("post_classify", "pipeline");
    ]
    (List.map (fun (name, _, parent) -> (name, parent)) (span_tree plain));
  let check_pass label ?(policy = Pipeline.Strict) ~dir ~checksums () =
    let sink = Sink.memory () in
    let obs = Obs.create sink in
    ignore (Pipeline.run ~obs ~policy ~cache:(Cache.create dir) bench);
    let tree = span_tree sink in
    let spans name stage =
      List.length
        (List.filter (fun (n, s, _) -> n = name && s = stage) tree)
    in
    List.iter
      (fun stage ->
        let c what = counter obs (Printf.sprintf "cache.%s.%s" what stage) in
        let check what expected name =
          Alcotest.(check int)
            (Printf.sprintf "%s: %s spans at %s = %s" label name stage what)
            expected (spans name stage)
        in
        check "lookups" (c "hit" + c "miss" + c "corrupt") "cache.find";
        check "lookups" (c "hit" + c "miss" + c "corrupt") "cache.key";
        check "hits" (c "hit") "cache.decode";
        check "stores" (c "store") "cache.store")
      [ "front"; "profile"; "classify"; "inline" ];
    List.iter
      (fun (name, _, parent) ->
        let expected =
          if name = "cache.decode" then "cache.find" else "pipeline"
        in
        if String.starts_with ~prefix:"cache." name then
          Alcotest.(check string) (label ^ ": " ^ name ^ " parent") expected parent)
      tree;
    let checksum_spans =
      List.length (List.filter (fun (n, _, _) -> n = "checksum") tree)
    in
    Alcotest.(check (pair int int))
      (label ^ ": checksum spans = cache.checksum")
      (checksums, checksums)
      (counter obs "cache.checksum", checksum_spans);
    obs
  in
  let dir = tmp_dir () in
  ignore (check_pass "cold" ~dir ~checksums:4 ());
  ignore (check_pass "warm" ~dir ~checksums:0 ());
  (* One failing profiling run, retried: that profile is a recovery, so
     only the clean re-profile is stored. *)
  let obs =
    Impact_support.Fault.with_point Impact_support.Fault.Interp_step ~after:0
      (fun () ->
        check_pass "degraded" ~policy:Pipeline.Degrade ~dir:(tmp_dir ())
          ~checksums:4 ())
  in
  Alcotest.(check int) "degraded: one profile stored" 1
    (counter obs "cache.store.profile")

(* The stage keys, pinned to their documented parts and order: a run's
   [cache.reuse] instants name exactly the keys rebuilt here from
   freshly computed checksums, in pipeline order, and every stage's
   entry sits under its rebuilt key.  Any tool that replays the keys
   depends on these parts, and a checksum carried in a payload must
   never drift from a recomputed one. *)
let test_stage_keys_pinned () =
  let dir = tmp_dir () in
  let cache = Cache.create dir in
  let check label ?(config = Config.default) bench ~hits =
    let obs = Obs.create (Sink.memory ()) in
    let r = Pipeline.run ~obs ~cache ~config bench in
    let reused =
      List.filter_map
        (fun (e : Sink.event) ->
          match
            ( e.Sink.ev_name,
              List.assoc_opt "stage" e.Sink.ev_attrs,
              List.assoc_opt "key" e.Sink.ev_attrs )
          with
          | "cache.reuse", Some (Sink.String stage), Some (Sink.String key) ->
            Some (stage, key)
          | _ -> None)
        (Sink.events (Obs.sink obs))
    in
    let expected =
      List.map
        (fun (stage, parts) -> (stage, Cache.key parts))
        (stage_parts ~config r)
    in
    Alcotest.(check (list (pair string string)))
      (label ^ ": reused keys rebuild from their parts")
      (List.filteri (fun i _ -> List.nth hits i) expected)
      reused;
    List.iter
      (fun (stage, key) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s entry stored under its rebuilt key" label stage)
          true
          (Sys.file_exists (Filename.concat dir (stage ^ "-" ^ key ^ ".ice"))))
      expected
  in
  let cmp = Suite.find "cmp" and espresso = Suite.find "espresso" in
  ignore (Pipeline.run ~cache cmp);
  check "warm rerun" cmp ~hits:[ true; true; true; true; true; true ];
  (* A comment edit misses the front end, which checksums the program it
     recomputes; the later stages must hit under keys built from it. *)
  check "comment edit"
    { cmp with Benchmark.source = cmp.Benchmark.source ^ "/* edited */\n" }
    ~hits:[ false; true; true; true; true; true ];
  (* Devirtualization misses selection and expansion; the checksum the
     inline stage computes for the expanded program must key the
     re-profile. *)
  ignore (Pipeline.run ~cache espresso);
  check "espresso devirt" espresso
    ~config:{ Config.default with Config.devirt = true }
    ~hits:[ true; true; false; false; false; false ]

let test_warm_suite_report () =
  (* The suite driver threads one shared cache through every benchmark;
     keep it to a two-benchmark slice so the test stays quick. *)
  let dir = tmp_dir () in
  let benches = [ Suite.find "cmp"; Suite.find "wc" ] in
  let cache = Cache.create dir in
  let cold = Pipeline.run_suite_report ~cache ~benches () in
  Alcotest.(check int) "all completed" 2 (List.length cold.Pipeline.completed);
  let obs = Obs.create (Sink.memory ()) in
  let warm = Pipeline.run_suite_report ~obs ~cache ~benches () in
  Alcotest.(check int) "warm misses nothing" 0 (counter obs "cache.miss");
  Alcotest.(check int) "warm hits everything" 12 (counter obs "cache.hit");
  List.iter2
    (fun (a : Pipeline.result) b ->
      Alcotest.(check string) "byte-identical per benchmark" (fingerprint a)
        (fingerprint b))
    cold.Pipeline.completed warm.Pipeline.completed

(* ------------------------------------------------------------------ *)
(* Invalidation precision                                              *)
(* ------------------------------------------------------------------ *)

let inv_source =
  {|extern int print_int(int n);
int hot(int a, int b) { return a * 3 + b; }
int cold_fn(int a) { return a - 1; }
int main() {
  int acc = 0; int k;
  for (k = 0; k < 200; k = k + 1) acc = acc + hot(k, acc & 63);
  acc = acc + cold_fn(acc);
  print_int(acc);
  return 0;
}
|}

let inv_bench src =
  {
    Benchmark.name = "inv";
    description = "invalidation probe";
    source = src;
    inputs = (fun () -> [ "" ]);
  }

let stage_counts obs =
  List.map
    (fun stage ->
      ( stage,
        counter obs ("cache.hit." ^ stage),
        counter obs ("cache.miss." ^ stage) ))
    [ "front"; "profile"; "classify"; "inline" ]

let check_stages obs expected =
  List.iter2
    (fun (stage, ehit, emiss) (stage', hit, miss) ->
      assert (stage = stage');
      Alcotest.(check (pair int int))
        (Printf.sprintf "%s hit/miss" stage)
        (ehit, emiss) (hit, miss))
    expected (stage_counts obs)

let test_invalidation_precision () =
  let dir = tmp_dir () in
  let cache = Cache.create dir in
  let _ = Pipeline.run ~cache (inv_bench inv_source) in
  (* Whitespace-only source change: the front end recompiles (its key is
     the source bytes) but produces the same program, so the profiling,
     classification and selection entries all still match — the cache
     cuts off the invalidation at the first unchanged checksum. *)
  let obs = Obs.create (Sink.memory ()) in
  let _ = Pipeline.run ~obs ~cache (inv_bench (inv_source ^ "\n")) in
  check_stages obs
    [
      ("front", 0, 1); ("profile", 2, 0); ("classify", 2, 0); ("inline", 1, 0);
    ];
  (* Flipping one config field reuses the front end and both profiles
     (the selection happens not to change, so the expanded program's
     checksum doesn't either) but recomputes everything keyed by the
     config fingerprint. *)
  let obs = Obs.create (Sink.memory ()) in
  let config = { Config.default with Config.weight_threshold = 11.0 } in
  let _ = Pipeline.run ~obs ~cache ~config (inv_bench inv_source) in
  check_stages obs
    [
      ("front", 1, 0); ("profile", 2, 0); ("classify", 0, 2); ("inline", 0, 1);
    ];
  (* A semantic source change — one byte, the hot multiplier 3 -> 4 —
     invalidates every stage. *)
  let obs = Obs.create (Sink.memory ()) in
  let changed_src =
    let b = Bytes.of_string inv_source in
    let i = ref (-1) in
    Bytes.iteri (fun j c -> if c = '3' && !i < 0 then i := j) b;
    Bytes.set b !i '4';
    Bytes.to_string b
  in
  let _ = Pipeline.run ~obs ~cache (inv_bench changed_src) in
  check_stages obs
    [
      ("front", 0, 1); ("profile", 0, 2); ("classify", 0, 2); ("inline", 0, 1);
    ]

(* ------------------------------------------------------------------ *)
(* The handle's digest memo                                            *)
(* ------------------------------------------------------------------ *)

(* On one handle, a second suite pass digests only the key parts that
   are not profiling inputs: every input's digest is remembered. *)
let test_memo_second_pass () =
  let cache = Cache.create (tmp_dir ()) in
  let pass () =
    let obs = Obs.create (Sink.discard ()) in
    ignore (Pipeline.run_suite ~obs ~cache ());
    counter obs "cache.key_bytes"
  in
  let first = pass () in
  let second = pass () in
  Alcotest.(check (pair int int)) "key bytes: first pass, second pass"
    (1_588_111, 53_400) (first, second);
  Alcotest.(check bool) "the memo holds the suite's inputs" true
    (Digest_memo.bytes (Cache.memo cache) = first - second)

(* Two distinct inputs with equal [Hashtbl.hash], found by a
   deterministic search. *)
let hash_twins () =
  let seen = Hashtbl.create 65536 in
  let rec go i =
    let s = Printf.sprintf "line %d\n" i in
    match Hashtbl.find_opt seen (Hashtbl.hash s) with
    | Some t -> (t, s)
    | None ->
      Hashtbl.add seen (Hashtbl.hash s) s;
      go (i + 1)
  in
  go 0

(* Entries are compared by content: inputs that share a hash keep their
   own digests and so key different profiles. *)
let test_memo_hash_twins () =
  let a, b = hash_twins () in
  Alcotest.(check bool) "twins differ, hashes agree" true
    (a <> b && Hashtbl.hash a = Hashtbl.hash b);
  Alcotest.(check bool) "and share the memo's bucket hash" true
    (Digest_memo.hash a = Digest_memo.hash b);
  let cache = Cache.create (tmp_dir ()) in
  let obs = Obs.create (Sink.discard ()) in
  Alcotest.(check string) "first twin" (Digest.to_hex (Digest.string a))
    (Digest.to_hex (Cache.digest cache obs a));
  Alcotest.(check string) "second twin" (Digest.to_hex (Digest.string b))
    (Digest.to_hex (Cache.digest cache obs b));
  Alcotest.(check int) "both digested" (String.length a + String.length b)
    (counter obs "cache.key_bytes");
  let with_input s = { (inv_bench inv_source) with Benchmark.inputs = (fun () -> [ s ]) } in
  ignore (Pipeline.run ~cache (with_input a));
  let obs = Obs.create (Sink.memory ()) in
  ignore (Pipeline.run ~obs ~cache (with_input b));
  check_stages obs
    [ ("front", 1, 0); ("profile", 0, 2); ("classify", 2, 0); ("inline", 1, 0) ]

(* A long input and 100 twins, each with one byte flipped at its own
   position, spread across it.  The bucket hash reads a bounded sample,
   so nearly all twins share the input's bucket; each still gets its
   own MD5, and two of them key different profiles. *)
let test_memo_long_twins () =
  let n = 120_000 in
  let original = String.init n (fun i -> Char.chr (97 + (i * 7 mod 26))) in
  let twin k =
    let b = Bytes.of_string original in
    let p = (k * n / 100) + 7 in
    Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor 1));
    Bytes.to_string b
  in
  let twins = List.init 100 twin in
  let shared =
    List.length
      (List.filter (fun t -> Digest_memo.hash t = Digest_memo.hash original) twins)
  in
  Alcotest.(check bool)
    (Printf.sprintf "nearly all twins share the bucket (%d of 100)" shared)
    true (shared >= 90);
  let cache = Cache.create (tmp_dir ()) in
  let obs = Obs.create (Sink.discard ()) in
  let exact label s =
    Alcotest.(check string) label (Digest.to_hex (Digest.string s))
      (Digest.to_hex (Cache.digest cache obs s))
  in
  exact "the original" original;
  List.iteri (fun k t -> exact (Printf.sprintf "twin %d" k) t) twins;
  exact "the original keeps its own" original;
  List.iteri (fun k t -> exact (Printf.sprintf "twin %d again" k) t) twins;
  Alcotest.(check bool) "within budget" true
    (Digest_memo.bytes (Cache.memo cache) <= Digest_memo.budget);
  let with_input s = { (inv_bench inv_source) with Benchmark.inputs = (fun () -> [ s ]) } in
  ignore (Pipeline.run ~cache (with_input (List.nth twins 10)));
  let obs = Obs.create (Sink.memory ()) in
  ignore (Pipeline.run ~obs ~cache (with_input (List.nth twins 11)));
  check_stages obs
    [ ("front", 1, 0); ("profile", 0, 2); ("classify", 2, 0); ("inline", 1, 0) ]

(* Random inputs on both sides of the whole-hash threshold (128 bytes),
   a few larger than a quarter of the budget, and single-byte mutants of
   them, added and looked up in random order.  A model memo (a list of
   inputs, most recently used first, trimmed from the back to the
   budget) says what each lookup must find: [find] is exactly the MD5
   of an equal input the model holds, and [None] otherwise, and the
   memo holds the model's bytes. *)
let prop_memo_model =
  let open QCheck.Gen in
  let length =
    frequency
      [
        (6, int_bound 300);
        (1, int_range (Digest_memo.budget / 4) (Digest_memo.budget / 2));
      ]
  in
  let gen =
    triple
      (list_size (int_range 1 6) (pair length nat))
      (list_size (int_bound 8) (triple nat nat (int_range 1 255)))
      (list_size (int_range 1 40) (pair bool nat))
  in
  let print (bases, mutants, ops) =
    Printf.sprintf "bases %s, mutants %s, ops %s"
      (QCheck.Print.(list (pair int int)) bases)
      (QCheck.Print.(list (triple int int int)) mutants)
      (QCheck.Print.(list (pair bool int)) ops)
  in
  QCheck.Test.make ~count:100 ~name:"memo: exact digests against a model memo"
    (QCheck.make ~print gen)
    (fun (bases, mutants, ops) ->
      let bases =
        List.map
          (fun (len, seed) ->
            String.init len (fun i -> Char.chr ((seed + (i * 131) + (i lsr 7)) land 255)))
          bases
      in
      let nb = List.length bases in
      let mutant (b, pos, x) =
        let s = List.nth bases (b mod nb) in
        if s = "" then s
        else begin
          let bytes = Bytes.of_string s in
          let p = pos mod String.length s in
          Bytes.set bytes p (Char.chr (Char.code (Bytes.get bytes p) lxor x));
          Bytes.to_string bytes
        end
      in
      let pool = Array.of_list (bases @ List.map mutant mutants) in
      let sums = Array.map Digest.string pool in
      let m = Digest_memo.create () in
      let model = ref [] in
      let model_bytes () = List.fold_left (fun n s -> n + String.length s) 0 !model in
      let holds s = List.exists (String.equal s) !model in
      let rec trim () =
        if model_bytes () > Digest_memo.budget then begin
          model := List.filteri (fun i _ -> i < List.length !model - 1) !model;
          trim ()
        end
      in
      List.for_all
        (fun (add, i) ->
          let i = i mod Array.length pool in
          let s = pool.(i) in
          (if add then begin
             if String.length s <= Digest_memo.budget && not (holds s) then begin
               model := s :: !model;
               trim ()
             end;
             Digest.equal sums.(i) (Digest_memo.add m s)
           end
           else begin
             let expected =
               if holds s then begin
                 model := s :: List.filter (fun t -> not (String.equal s t)) !model;
                 Some sums.(i)
               end
               else None
             in
             Digest_memo.find m s = expected
           end)
          && Digest_memo.bytes m = model_bytes ()
          && Digest_memo.bytes m <= Digest_memo.budget)
        ops)

(* The memo holds at most its budget, drops the least recently used
   input first, and never keeps an input larger than the budget. *)
let test_memo_budget () =
  let cache = Cache.create (tmp_dir ()) in
  let obs = Obs.create (Sink.discard ()) in
  let digested s =
    let before = counter obs "cache.key_bytes" in
    Alcotest.(check bool) "exact MD5" true
      (Digest.equal (Digest.string s) (Cache.digest cache obs s));
    Alcotest.(check bool) "within budget" true
      (Digest_memo.bytes (Cache.memo cache) <= Digest_memo.budget);
    counter obs "cache.key_bytes" - before
  in
  (* Two of these fit the budget, three do not. *)
  let third = (Digest_memo.budget / 3) + 1 in
  let input c = String.make third c in
  let a = input 'a' and b = input 'b' in
  let first = digested a in
  Alcotest.(check (pair int int)) "a, then b, digested" (third, third)
    (first, digested b);
  Alcotest.(check int) "an equal copy of a is remembered" 0 (digested (input 'a'));
  Alcotest.(check int) "c digested" third (digested (input 'c'));
  Alcotest.(check int) "a, used after b, survives c" 0 (digested a);
  Alcotest.(check int) "b, least recently used, was dropped" third (digested b);
  let held = Digest_memo.bytes (Cache.memo cache) in
  let big = String.make (Digest_memo.budget + 1) 'x' in
  let first = digested big in
  Alcotest.(check (pair int int)) "a larger input is digested every time"
    (String.length big, String.length big)
    (first, digested big);
  Alcotest.(check int) "and neither kept nor evicting" held
    (Digest_memo.bytes (Cache.memo cache))

(* A lookup by digest finds only an input the memo digested itself, and
   returns the memo's own string; an evicted input is found no more. *)
let test_memo_by_digest () =
  let m = Digest_memo.create () in
  let s = String.make 100 'a' in
  let d = Digest.string s in
  let own label =
    match Digest_memo.find_digest m d with
    | Some held -> Alcotest.(check bool) label true (held == s)
    | None -> Alcotest.failf "%s: not found" label
  in
  Alcotest.(check (option string)) "nothing held yet" None (Digest_memo.find_digest m d);
  Alcotest.(check string) "add is the MD5" (Digest.to_hex d)
    (Digest.to_hex (Digest_memo.add m s));
  own "the memo's own string";
  ignore (Digest_memo.add m (String.make 100 'a'));
  own "an equal copy leaves the first in place";
  let third = (Digest_memo.budget / 3) + 1 in
  List.iter (fun c -> ignore (Digest_memo.add m (String.make third c))) [ 'x'; 'y'; 'z' ];
  Alcotest.(check (option string)) "evicted" None (Digest_memo.find_digest m d);
  Alcotest.(check bool) "within budget" true (Digest_memo.bytes m <= Digest_memo.budget)

(* Two domains keying the same inputs through one handle, in opposite
   orders, with more inputs than the budget holds, each get exact
   MD5s for originals and for equal copies alike. *)
let test_memo_two_domains () =
  let cache = Cache.create (tmp_dir ()) in
  let inputs =
    List.init 24 (fun i ->
        String.init (100_000 + i) (fun j -> Char.chr (((i * 31) + j) land 255)))
  in
  let expected = List.map Digest.string inputs in
  let worker order () =
    let bad = ref 0 in
    for r = 0 to 9 do
      List.iter2
        (fun s d ->
          let s = if r mod 2 = 0 then s else Bytes.to_string (Bytes.of_string s) in
          if not (Digest.equal d (Cache.digest cache Obs.null s)) then incr bad)
        (order inputs) (order expected)
    done;
    !bad
  in
  let other = Domain.spawn (worker List.rev) in
  let here = worker Fun.id () in
  Alcotest.(check (pair int int)) "no wrong digest on either domain" (0, 0)
    (here, Domain.join other);
  Alcotest.(check bool) "within budget" true
    (Digest_memo.bytes (Cache.memo cache) <= Digest_memo.budget)

(* ------------------------------------------------------------------ *)
(* On-disk corruption through the full pipeline                        *)
(* ------------------------------------------------------------------ *)

let test_pipeline_survives_corruption () =
  let dir = tmp_dir () in
  let bench = Suite.find "cmp" in
  let cold = Pipeline.run ~cache:(Cache.create dir) bench in
  (* Flip one payload byte in every cached entry. *)
  List.iter
    (fun f ->
      clobber (Filename.concat dir f) (fun c ->
          let b = Bytes.of_string c in
          let i = Bytes.length b - 1 in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
          Bytes.to_string b))
    (entry_files dir);
  (* Even under Strict, a fully corrupt cache is only a slow cache. *)
  let obs = Obs.create (Sink.memory ()) in
  let cache = Cache.create dir in
  let warm = Pipeline.run ~obs ~policy:Pipeline.Strict ~cache bench in
  Alcotest.(check string) "result unaffected" (fingerprint cold)
    (fingerprint warm);
  Alcotest.(check int) "every entry detected as corrupt" 6
    (counter obs "cache.corrupt");
  Alcotest.(check bool) "degradation-free" true
    (warm.Pipeline.degradations = []);
  (* And the run repaired the store: the next one is all hits. *)
  let obs = Obs.create (Sink.memory ()) in
  let again = Pipeline.run ~obs ~policy:Pipeline.Strict ~cache bench in
  Alcotest.(check string) "repaired result identical" (fingerprint cold)
    (fingerprint again);
  Alcotest.(check int) "repaired store hits everything" 6
    (counter obs "cache.hit")

(* ------------------------------------------------------------------ *)
(* Concurrent warm hits (the PR 7 lock-scope fix)                      *)
(* ------------------------------------------------------------------ *)

let test_concurrent_warm_hits () =
  (* Hammer one store from several domains: every warm hit must return
     the byte-identical payload (reads now happen outside the store
     mutex, so this exercises genuinely concurrent file I/O), and the
     stats must account for exactly every lookup. *)
  let dir = tmp_dir () in
  let store = Cstore.create dir in
  let nkeys = 8 in
  let payload i = Printf.sprintf "payload-%d-%s" i (String.make (1024 * i) 'p') in
  for i = 0 to nkeys - 1 do
    Cstore.store store ~stage:"hammer" ~key:(Printf.sprintf "k%d" i) (payload i)
  done;
  let ndomains = 4 and rounds = 50 in
  let bad = Atomic.make 0 in
  let worker d =
    for r = 0 to rounds - 1 do
      let i = (d + r) mod nkeys in
      match Cstore.find store ~stage:"hammer" ~key:(Printf.sprintf "k%d" i) with
      | Cstore.Hit p -> if p <> payload i then Atomic.incr bad
      | Cstore.Miss | Cstore.Corrupt _ -> Atomic.incr bad
    done
  in
  let domains = List.init ndomains (fun d -> Domain.spawn (fun () -> worker d)) in
  List.iter Domain.join domains;
  Alcotest.(check int) "every concurrent warm hit byte-identical" 0
    (Atomic.get bad);
  let s = Cstore.stats store in
  Alcotest.(check int) "every lookup accounted as a hit"
    (ndomains * rounds) s.Cstore.hits;
  Alcotest.(check int) "no misses" 0 s.Cstore.misses;
  Alcotest.(check int) "no corruption" 0 s.Cstore.corrupt;
  (* Mixed readers and writers: two writers storing the same fresh keys,
     in opposite orders, must not perturb concurrent warm hits on
     existing entries, nor each other's stores and journal appends. *)
  let bad2 = Atomic.make 0 in
  let reader d =
    for r = 0 to rounds - 1 do
      let i = (d + r) mod nkeys in
      match Cstore.find store ~stage:"hammer" ~key:(Printf.sprintf "k%d" i) with
      | Cstore.Hit p -> if p <> payload i then Atomic.incr bad2
      | Cstore.Miss | Cstore.Corrupt _ -> Atomic.incr bad2
    done
  in
  let wpayload r = Printf.sprintf "written-%d-%s" r (String.make (17 * r) 'w') in
  let writer w () =
    for n = 0 to rounds - 1 do
      let r = if w = 0 then n else rounds - 1 - n in
      Cstore.store store ~stage:"hammer" ~key:(Printf.sprintf "w%d" r) (wpayload r)
    done
  in
  let nreaders = ndomains - 1 in
  let ds =
    Domain.spawn (writer 0) :: Domain.spawn (writer 1)
    :: List.init nreaders (fun d -> Domain.spawn (fun () -> reader d))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "hits stay byte-identical under concurrent stores" 0
    (Atomic.get bad2);
  Alcotest.(check int) "every lookup a hit" ((ndomains + nreaders) * rounds) s.Cstore.hits;
  Alcotest.(check (list int)) "no misses, corruption or failed stores" [ 0; 0; 0 ]
    [ s.Cstore.misses; s.Cstore.corrupt; s.Cstore.store_failures ];
  Alcotest.(check int) "every store counted" (nkeys + (2 * rounds)) s.Cstore.stores;
  (* Every [k] entry was stored once and every [w] entry twice. *)
  let size key = file_size (Filename.concat dir ("hammer-" ^ key ^ ".ice")) in
  let sum n f = List.fold_left ( + ) 0 (List.init n f) in
  Alcotest.(check int) "entry bytes written counted exactly"
    (sum nkeys (fun i -> size (Printf.sprintf "k%d" i))
    + (2 * sum rounds (fun r -> size (Printf.sprintf "w%d" r))))
    s.Cstore.bytes_written;
  (* A fresh handle replays the journal the writers appended to without
     compacting it, and hits every entry byte-identically. *)
  let fresh = Cstore.create dir in
  Alcotest.(check (list string)) "journal lines name only entries" (entry_files dir)
    (List.sort_uniq compare (index_files dir));
  Alcotest.(check int) "reopen writes no index" 0
    (Cstore.stats fresh).Cstore.index_bytes_written;
  let check_hit key expected =
    match Cstore.find fresh ~stage:"hammer" ~key with
    | Cstore.Hit p -> Alcotest.(check bool) ("reopened " ^ key) true (p = expected)
    | Cstore.Miss | Cstore.Corrupt _ -> Alcotest.failf "reopened %s missing" key
  in
  List.iter (fun i -> check_hit (Printf.sprintf "k%d" i) (payload i)) (List.init nkeys Fun.id);
  List.iter (fun r -> check_hit (Printf.sprintf "w%d" r) (wpayload r)) (List.init rounds Fun.id);
  Alcotest.(check int) "fresh handle: every lookup a hit" (nkeys + rounds)
    (Cstore.stats fresh).Cstore.hits

let tests =
  [
    Alcotest.test_case "store roundtrip and persistence" `Quick test_roundtrip;
    Alcotest.test_case "concurrent warm hits are lock-free and consistent"
      `Quick test_concurrent_warm_hits;
    Alcotest.test_case "corrupt entries are typed misses" `Quick
      test_corruption_is_a_miss;
    Alcotest.test_case "LRU eviction under a byte budget" `Quick test_eviction;
    Alcotest.test_case "a store appends one journal line per entry" `Quick
      test_store_appends_one_line;
    Alcotest.test_case "warm rerun is byte-identical, all hits" `Quick
      test_warm_run_identical;
    Alcotest.test_case "stage keys rebuild from their parts" `Quick
      test_stage_keys_pinned;
    Alcotest.test_case "warm suite rerun skips all stage work" `Quick
      test_warm_suite_report;
    Alcotest.test_case "invalidation is stage-precise" `Quick
      test_invalidation_precision;
    Alcotest.test_case "pipeline survives a fully corrupt cache" `Quick
      test_pipeline_survives_corruption;
    Alcotest.test_case "memo: a second suite pass digests no input" `Quick
      test_memo_second_pass;
    Alcotest.test_case "memo: inputs with equal hashes keep their digests" `Quick
      test_memo_hash_twins;
    Alcotest.test_case "memo: bounded, least recently used first" `Quick
      test_memo_budget;
    Alcotest.test_case "memo: a digest finds only bytes it digested" `Quick
      test_memo_by_digest;
    Alcotest.test_case "memo: two domains get exact digests" `Quick
      test_memo_two_domains;
    Alcotest.test_case "memo: long twins in one bucket keep their digests" `Quick
      test_memo_long_twins;
    QCheck_alcotest.to_alcotest ~speed_level:`Quick
      ~rand:(Random.State.make [| 0x6d656d6f |])
      prop_memo_model;
    QCheck_alcotest.to_alcotest prop_keys;
    Alcotest.test_case "cache spans match the cache counters" `Quick
      test_cache_spans_match_counters;
  ]
