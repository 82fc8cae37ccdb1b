(* The pipeline's stage cache: typed (Marshal) payloads over the
   content-addressed {!Impact_support.Cstore}, with hit/miss/store
   counters flowing through the observability context.

   Key discipline: every key mixes in [format_salt] — a format ordinal
   bumped whenever a marshalled type changes shape, plus the compiler
   version (Marshal's wire format is compiler-bound) — so entries
   written by an incompatible build can never match.  Payload bytes are
   digest-verified by the store before Marshal ever sees them; the
   Marshal guard below is a second floor, not the defence. *)

module Cstore = Impact_support.Cstore
module Obs = Impact_obs.Obs
module Digest_memo = Impact_support.Digest_memo

type t = { store : Cstore.t; memo : Digest_memo.t }

(* fmt2: Profile.t grew the value-profile component (vsites), changing
   its Marshal shape.  fmt3: the front, profile and inline payloads
   became (artifact, checksum) pairs; Marshal decodes an older payload
   as a pair without raising, so older entries must never match. *)
let format_salt = "impact-stage-cache fmt3 " ^ Sys.ocaml_version

let create ?max_bytes dir =
  { store = Cstore.create ?max_bytes dir; memo = Digest_memo.create () }

let cstore t = t.store

let memo t = t.memo

let salt_digest = Digest.string format_salt

let key_of_digests digests = Cstore.key_of_digests (salt_digest :: digests)

let key parts = key_of_digests (List.map Digest.string parts)

let digest_part obs s =
  Obs.incr obs ~by:(String.length s) "cache.key_bytes";
  Digest.string s

(* The profiling inputs are the same bytes on every warm rerun, so a
   handle remembers the MD5 of each input it has keyed. *)
let digest t obs s =
  match Digest_memo.find t.memo s with
  | Some sum -> sum
  | None ->
    Obs.incr obs ~by:(String.length s) "cache.key_bytes";
    Digest_memo.add t.memo s

let count obs outcome stage =
  Obs.incr obs ("cache." ^ outcome);
  Obs.incr obs ("cache." ^ outcome ^ "." ^ stage)

let find t obs ~stage ~key =
  match Cstore.find t.store ~stage ~key with
  | Cstore.Hit payload -> (
    match
      Obs.span obs "cache.decode"
        ~attrs:[ ("stage", Impact_obs.Sink.String stage) ]
        (fun () -> Marshal.from_string payload 0)
    with
    | v ->
      count obs "hit" stage;
      Obs.instant obs ~kind:"cache"
        ~attrs:
          [
            ("stage", Impact_obs.Sink.String stage);
            ("key", Impact_obs.Sink.String key);
          ]
        "cache.reuse";
      Some v
    | exception _ ->
      count obs "corrupt" stage;
      None)
  | Cstore.Miss ->
    count obs "miss" stage;
    None
  | Cstore.Corrupt _ ->
    (* The store already dropped the entry and remembers the typed
       reason; to the pipeline this is just a miss. *)
    count obs "corrupt" stage;
    None

let put t obs ~stage ~key v =
  Cstore.store t.store ~stage ~key (Marshal.to_string v []);
  count obs "store" stage

(* End-of-run snapshot of store-level state the per-lookup counters
   cannot see (evictions happen inside the store). *)
let publish t obs =
  let s = Cstore.stats t.store in
  Obs.gauge_int obs "cache.evictions" s.Cstore.evictions;
  Obs.gauge_int obs "cache.store_failures" s.Cstore.store_failures;
  Obs.gauge_int obs "cache.entries" (Cstore.entry_count t.store);
  Obs.gauge_int obs "cache.bytes" (Cstore.total_bytes t.store);
  Obs.gauge_int obs "cache.bytes_written" s.Cstore.bytes_written;
  Obs.gauge_int obs "cstore.index_bytes_written" s.Cstore.index_bytes_written
