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

(* The digest memo: the profiling inputs are the same bytes on every
   warm rerun, so a handle remembers the MD5 of each input it has keyed.
   An entry keeps its input, so a lookup compares content, never a
   weaker hash.  Entries sit in a ring, most recently used first behind
   the sentinel [ring]; the least recently used go once the bytes held
   pass [memo_budget], so each entry is evicted at most once and every
   operation is O(1) amortized.  [mu] covers the table and the ring,
   never an MD5. *)
module Inputs = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type entry = {
  input : string;
  sum : Digest.t;
  mutable prev : entry;
  mutable next : entry;
}

type memo = {
  mu : Mutex.t;
  table : entry Inputs.t;
  ring : entry;
  mutable held : int;
}

type t = { store : Cstore.t; memo : memo }

(* The suite's 1,534,711 input bytes fit. *)
let memo_budget = 2 * 1024 * 1024

(* fmt2: Profile.t grew the value-profile component (vsites), changing
   its Marshal shape.  fmt3: the front, profile and inline payloads
   became (artifact, checksum) pairs; Marshal decodes an older payload
   as a pair without raising, so older entries must never match. *)
let format_salt = "impact-stage-cache fmt3 " ^ Sys.ocaml_version

let create ?max_bytes dir =
  let rec ring = { input = ""; sum = ""; prev = ring; next = ring } in
  {
    store = Cstore.create ?max_bytes dir;
    memo = { mu = Mutex.create (); table = Inputs.create 64; ring; held = 0 };
  }

let cstore t = t.store

let salt_digest = Digest.string format_salt

let key_of_digests digests = Cstore.key_of_digests (salt_digest :: digests)

let key parts = key_of_digests (List.map Digest.string parts)

let unlink e =
  e.prev.next <- e.next;
  e.next.prev <- e.prev

let push_front m e =
  e.prev <- m.ring;
  e.next <- m.ring.next;
  m.ring.next.prev <- e;
  m.ring.next <- e

let remembered m s =
  Mutex.protect m.mu (fun () ->
      match Inputs.find_opt m.table s with
      | Some e ->
        unlink e;
        push_front m e;
        Some e.sum
      | None -> None)

let remember m s sum =
  Mutex.protect m.mu (fun () ->
      if not (Inputs.mem m.table s) then begin
        let rec e = { input = s; sum; prev = e; next = e } in
        Inputs.replace m.table s e;
        push_front m e;
        m.held <- m.held + String.length s;
        (* [e] alone fits, and it is the last candidate. *)
        while m.held > memo_budget do
          let old = m.ring.prev in
          unlink old;
          Inputs.remove m.table old.input;
          m.held <- m.held - String.length old.input
        done
      end)

let digest_part obs s =
  Obs.incr obs ~by:(String.length s) "cache.key_bytes";
  Digest.string s

let digest t obs s =
  match remembered t.memo s with
  | Some sum -> sum
  | None ->
    let sum = digest_part obs s in
    if String.length s <= memo_budget then remember t.memo s sum;
    sum

let memo_bytes t = Mutex.protect t.memo.mu (fun () -> t.memo.held)

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
