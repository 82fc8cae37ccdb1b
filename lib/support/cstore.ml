(* Content-addressed artifact store.

   Each entry is one file in [dir], named [<stage>-<key>.ice], where the
   key is a digest the caller derives from everything that determines
   the payload (stage tag, config fingerprint, input checksums).  The
   file carries a versioned header, like the v2 profile format:

     impact-cache v1 <stage> <key> <md5-of-payload> <payload-length>
     <payload bytes>

   so a truncated, bit-flipped, or foreign file is detected before a
   single payload byte is trusted — corruption surfaces as a typed
   {!Impact_support.Ierr.t} carried by a [Corrupt] lookup (a miss with a
   reason), never as a crash, and the bad entry is dropped so the next
   store repairs it.  Writes go through {!Atomic_io} (temp + rename):
   either the complete entry lands or nothing does.

   Recency is tracked by a monotonic in-process tick per entry and
   persisted to INDEX, an append-only journal of "<tick> <file>" lines:
   each store appends, in one write, the line of the entry it wrote and
   of every entry hit since the previous append.  Replaying the journal
   (a later line for a file wins) gives every entry its latest persisted
   tick.  Eviction does not touch the journal; its stale lines go at the
   next compaction, one whole rewrite, which [create] runs when INDEX is
   missing, has a bad header or a torn last line, and which runs
   whenever the journal holds more than twice as many lines as there are
   live entries, so it stays bounded in a long-lived process.  When the
   payload bytes in the store exceed [max_bytes], least-recently-used
   entries are evicted (never the one just stored).

   Index and recency bookkeeping take the store mutex, and so does a
   store's entry write plus its append; warm-path payload I/O and
   verification run outside it (entries are immutable, writes are
   atomic renames), so concurrent warm lookups proceed in parallel and
   one store may be shared by parallel suite runs ({!Pool} domains) or
   a serving daemon's worker domains.  Sharing one *directory* between
   processes is not coordinated beyond the atomicity of individual
   writes.

   The store never raises: a failed write (disk full, an injected
   {!Fault.Cache_write}) is counted and remembered in [last_error], and
   the caller simply recomputes — the cache is transparent by
   construction. *)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable corrupt : int;  (* entries present but failing verification *)
  mutable stores : int;
  mutable store_failures : int;
  mutable evictions : int;
  mutable bytes_written : int;  (* entry files, headers included *)
  mutable index_bytes_written : int;  (* journal appends and compactions *)
}

type entry = {
  e_file : string;        (* basename inside [dir] *)
  mutable e_tick : int;   (* last-access ordinal, for LRU *)
  e_bytes : int;          (* whole-file size, counted against the budget *)
  mutable e_pending : bool;  (* hit since the last append: its line is owed *)
}

type t = {
  dir : string;
  max_bytes : int;
  mu : Mutex.t;
  mutable tick : int;
  entries : (string, entry) Hashtbl.t;
  mutable total_bytes : int;
  mutable pending : entry list;  (* hit since the last append, newest first *)
  mutable index_lines : int;  (* lines after the INDEX header *)
  stats : stats;
  mutable last_error : Ierr.t option;
}

type lookup =
  | Hit of string
  | Miss
  | Corrupt of Ierr.t

let magic = "impact-cache v1"

let index_file = "INDEX"

let suffix = ".ice"

let entry_file ~stage ~key = stage ^ "-" ^ key ^ suffix

(* A key is the MD5 over the concatenated 16-byte MD5s of its ordered
   parts.  Fixed-width digests cannot run into one another, so
   ("ab","c") and ("a","bc") cannot collide without length prefixes;
   the parts may hold arbitrary bytes (program sources, stdin data),
   and a part shared by several keys can be digested once. *)
let key_of_digests digests = Digest.to_hex (Digest.string (String.concat "" digests))

let digest_key parts = key_of_digests (List.map Digest.string parts)

let cache_error fmt =
  Printf.ksprintf
    (fun msg ->
      Ierr.make ~severity:Ierr.Skippable ~recovery:Ierr.Retry_once Ierr.Cache msg)
    fmt

let typed_of_exn = function
  | Ierr.Error e -> e
  | Fault.Injected p -> cache_error "injected fault at %s" (Fault.point_name p)
  | e -> cache_error "%s" (Printexc.to_string e)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let file_size path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> in_channel_length ic)

(* ------------------------------------------------------------------ *)
(* The INDEX journal                                                   *)
(* ------------------------------------------------------------------ *)

(* INDEX is "impact-cache-index v1", then "<tick> <file>" lines.  It is
   advisory: a missing, stale or damaged journal only degrades the LRU
   ordering (entries it does not name start at tick 0), never
   correctness, since every entry file self-verifies. *)

let index_magic = "impact-cache-index v1"

let index_path t = Filename.concat t.dir index_file

let add_line buf e =
  Buffer.add_string buf (string_of_int e.e_tick);
  Buffer.add_char buf ' ';
  Buffer.add_string buf e.e_file;
  Buffer.add_char buf '\n'

(* Past this, stale lines (evicted entries, superseded ticks) would make
   up more than half of the journal. *)
let overgrown t = t.index_lines > 2 * Hashtbl.length t.entries

(* The only full writer: every live entry's line, in tick order, which
   also settles the lines owed to entries hit since the last append. *)
let save_index_locked t =
  let live =
    Hashtbl.fold (fun _ e acc -> e :: acc) t.entries []
    |> List.sort (fun a b -> compare (a.e_tick, a.e_file) (b.e_tick, b.e_file))
  in
  let buf = Buffer.create (64 * (List.length live + 1)) in
  Buffer.add_string buf index_magic;
  Buffer.add_char buf '\n';
  List.iter (add_line buf) live;
  List.iter (fun e -> e.e_pending <- false) t.pending;
  t.pending <- [];
  t.index_lines <- List.length live;
  match Atomic_io.write_string (index_path t) (Buffer.contents buf) with
  | () -> t.stats.index_bytes_written <- t.stats.index_bytes_written + Buffer.length buf
  | exception e -> t.last_error <- Some (typed_of_exn e)

(* Appends, with one [Unix.write_substring], the line of [stored] after
   those of the entries hit since the previous append that are still
   live.  A failed append may leave a torn line, so it falls back to a
   compaction. *)
let append_locked t stored =
  let buf = Buffer.create 256 in
  let lines = ref 0 in
  let owe e =
    incr lines;
    add_line buf e
  in
  List.iter
    (fun e ->
      e.e_pending <- false;
      match Hashtbl.find_opt t.entries e.e_file with
      | Some cur when cur == e -> owe e
      | Some _ | None -> ())
    (List.rev t.pending);
  t.pending <- [];
  owe stored;
  match
    let fd = Unix.openfile (index_path t) [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CLOEXEC ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> ignore (Unix.write_substring fd (Buffer.contents buf) 0 (Buffer.length buf)))
  with
  | () ->
    t.stats.index_bytes_written <- t.stats.index_bytes_written + Buffer.length buf;
    t.index_lines <- t.index_lines + !lines;
    if overgrown t then save_index_locked t
  | exception e ->
    t.last_error <- Some (typed_of_exn e);
    save_index_locked t

type journal = {
  ticks : (string, int) Hashtbl.t;  (* file -> tick of its last line *)
  lines : int;
  sound : bool;  (* present, with its header and no torn last line *)
}

(* Malformed lines are counted but skipped; a torn last line (no final
   newline) is neither. *)
let replay dir =
  let ticks = Hashtbl.create 64 in
  let record line =
    match String.index_opt line ' ' with
    | Some i when i + 1 < String.length line -> (
      match int_of_string_opt (String.sub line 0 i) with
      | Some tick when tick >= 0 ->
        Hashtbl.replace ticks (String.sub line (i + 1) (String.length line - i - 1)) tick
      | Some _ | None -> ())
    | Some _ | None -> ()
  in
  let rec go lines = function
    | line :: (_ :: _ as more) ->
      record line;
      go (lines + 1) more
    | [ tail ] -> { ticks; lines; sound = tail = "" }
    | [] -> { ticks; lines; sound = false }
  in
  match read_file (Filename.concat dir index_file) with
  | exception _ -> { ticks; lines = 0; sound = false }
  | s -> (
    match String.split_on_char '\n' s with
    | magic :: rest when magic = index_magic -> go 0 rest
    | _ -> { ticks; lines = 0; sound = false })

let create ?(max_bytes = 256 * 1024 * 1024) dir =
  mkdir_p dir;
  let t =
    {
      dir;
      max_bytes;
      mu = Mutex.create ();
      tick = 0;
      entries = Hashtbl.create 64;
      total_bytes = 0;
      pending = [];
      index_lines = 0;
      stats =
        {
          hits = 0;
          misses = 0;
          corrupt = 0;
          stores = 0;
          store_failures = 0;
          evictions = 0;
          bytes_written = 0;
          index_bytes_written = 0;
        };
      last_error = None;
    }
  in
  let journal = replay dir in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f suffix)
    |> List.sort compare
  in
  List.iter
    (fun file ->
      match file_size (Filename.concat dir file) with
      | exception _ -> ()
      | bytes ->
        let tick = Option.value ~default:0 (Hashtbl.find_opt journal.ticks file) in
        Hashtbl.replace t.entries file
          { e_file = file; e_tick = tick; e_bytes = bytes; e_pending = false };
        t.total_bytes <- t.total_bytes + bytes;
        if tick >= t.tick then t.tick <- tick + 1)
    files;
  t.index_lines <- journal.lines;
  if not journal.sound || overgrown t then save_index_locked t;
  t

(* ------------------------------------------------------------------ *)
(* Lookup                                                              *)
(* ------------------------------------------------------------------ *)

let remove_entry_locked t e =
  (try Sys.remove (Filename.concat t.dir e.e_file) with Sys_error _ -> ());
  Hashtbl.remove t.entries e.e_file;
  t.total_bytes <- t.total_bytes - e.e_bytes

(* Header-then-payload verification; raises (a typed error) on any
   mismatch, converted to [Corrupt] by the caller. *)
let read_verified t ~stage ~key file =
  Fault.hit Fault.Cache_read;
  let s = read_file (Filename.concat t.dir file) in
  let header_end =
    match String.index_opt s '\n' with
    | Some i -> i
    | None -> raise (Ierr.Error (cache_error "%s: entry has no header" file))
  in
  (match
     String.split_on_char ' ' (String.sub s 0 header_end)
     |> List.filter (fun f -> f <> "")
   with
  | [ "impact-cache"; "v1"; h_stage; h_key; h_digest; h_len ] ->
    if h_stage <> stage || h_key <> key then
      raise
        (Ierr.Error
           (cache_error "%s: entry is keyed %s/%s, expected %s/%s" file h_stage
              h_key stage key));
    let payload_len = String.length s - header_end - 1 in
    (match int_of_string_opt h_len with
    | Some n when n = payload_len -> ()
    | Some n ->
      raise
        (Ierr.Error
           (cache_error "%s: truncated entry (%d of %d payload bytes)" file
              payload_len n))
    | None -> raise (Ierr.Error (cache_error "%s: bad length field %S" file h_len)));
    let payload = String.sub s (header_end + 1) payload_len in
    if Digest.to_hex (Digest.string payload) <> h_digest then
      raise (Ierr.Error (cache_error "%s: payload digest mismatch" file));
    payload
  | _ ->
    raise (Ierr.Error (cache_error "%s: missing %S header" file magic)))

(* The warm path deliberately does NOT hold the store mutex across the
   payload read: entries are immutable once written and land by atomic
   rename, so an unlocked read observes either a complete entry or (after
   a concurrent eviction of the same file) a vanished one — never a torn
   write.  Serializing the read + MD5 verification under the single
   mutex made every concurrent warm lookup queue behind whichever one
   was doing file I/O, which flattened multi-domain warm reruns to
   sequential speed.  The lock now covers only index and recency
   bookkeeping, on both sides of the I/O. *)
let find t ~stage ~key =
  let file = entry_file ~stage ~key in
  (* Locked phase 1: index lookup only. *)
  let entry =
    Mutex.protect t.mu (fun () ->
        match Hashtbl.find_opt t.entries file with
        | None ->
          t.stats.misses <- t.stats.misses + 1;
          None
        | Some e -> Some e)
  in
  match entry with
  | None -> Miss
  | Some e -> (
    (* Unlocked phase 2: payload read + digest verification. *)
    match read_verified t ~stage ~key file with
    | payload ->
      (* Locked phase 3: recency + counters. *)
      Mutex.protect t.mu (fun () ->
          t.tick <- t.tick + 1;
          e.e_tick <- t.tick;
          if not e.e_pending then begin
            e.e_pending <- true;
            t.pending <- e :: t.pending
          end;
          t.stats.hits <- t.stats.hits + 1);
      Hit payload
    | exception exn ->
      (* Corrupt, truncated, unreadable, fault-injected — or evicted by
         a racing store between phases: a typed miss.  Drop the entry so
         the recomputed artifact can be stored cleanly, but only while
         the index still maps the file to the very record phase 1 read;
         a concurrent store may have replaced the entry since, and that
         fresh entry must survive. *)
      let err = typed_of_exn exn in
      Mutex.protect t.mu (fun () ->
          t.stats.corrupt <- t.stats.corrupt + 1;
          t.last_error <- Some err;
          match Hashtbl.find_opt t.entries file with
          | Some cur when cur == e -> remove_entry_locked t e
          | Some _ | None -> ());
      Corrupt err)

(* ------------------------------------------------------------------ *)
(* Store and eviction                                                  *)
(* ------------------------------------------------------------------ *)

let rec evict_locked t ~keep =
  if t.total_bytes > t.max_bytes then begin
    let victim =
      Hashtbl.fold
        (fun _ e best ->
          if e.e_file = keep then best
          else
            match best with
            | Some b when b.e_tick <= e.e_tick -> best
            | _ -> Some e)
        t.entries None
    in
    match victim with
    | Some e ->
      remove_entry_locked t e;
      t.stats.evictions <- t.stats.evictions + 1;
      evict_locked t ~keep
    | None -> ()
  end

(* Best-effort: a failed store (disk full, injected fault) is counted
   and remembered, never raised — the caller computed the artifact
   anyway and loses only reuse, not work.  The digest and header are
   computed before taking the lock, which then covers the entry write
   and one journal append. *)
let store t ~stage ~key payload =
  let file = entry_file ~stage ~key in
  let header =
    Printf.sprintf "%s %s %s %s %d\n" magic stage key
      (Digest.to_hex (Digest.string payload))
      (String.length payload)
  in
  Mutex.protect t.mu (fun () ->
      match
        Fault.hit Fault.Cache_write;
        Atomic_io.with_file (Filename.concat t.dir file) (fun oc ->
            output_string oc header;
            output_string oc payload)
      with
      | exception e ->
        t.stats.store_failures <- t.stats.store_failures + 1;
        t.last_error <- Some (typed_of_exn e)
      | () ->
        (* Replacing an entry first retires the old size. *)
        (match Hashtbl.find_opt t.entries file with
        | Some old -> t.total_bytes <- t.total_bytes - old.e_bytes
        | None -> ());
        let bytes = String.length header + String.length payload in
        t.tick <- t.tick + 1;
        let e = { e_file = file; e_tick = t.tick; e_bytes = bytes; e_pending = false } in
        Hashtbl.replace t.entries file e;
        t.total_bytes <- t.total_bytes + bytes;
        t.stats.stores <- t.stats.stores + 1;
        t.stats.bytes_written <- t.stats.bytes_written + bytes;
        evict_locked t ~keep:file;
        append_locked t e)

let stats t = t.stats

let last_error t = t.last_error

let entry_count t = Mutex.protect t.mu (fun () -> Hashtbl.length t.entries)

let total_bytes t = Mutex.protect t.mu (fun () -> t.total_bytes)

let hit_rate s =
  let total = s.hits + s.misses in
  if total = 0 then 0. else float_of_int s.hits /. float_of_int total
