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

   Recency is tracked by a monotonic in-process tick per entry,
   persisted to an INDEX file on every store/evict; when the payload
   bytes in the store exceed [max_bytes], least-recently-used entries
   are evicted (never the one just stored).  Index and recency
   bookkeeping take the store mutex; warm-path payload I/O and
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
}

type entry = {
  e_file : string;        (* basename inside [dir] *)
  mutable e_tick : int;   (* last-access ordinal, for LRU *)
  e_bytes : int;          (* whole-file size, counted against the budget *)
}

type t = {
  dir : string;
  max_bytes : int;
  mu : Mutex.t;
  mutable tick : int;
  entries : (string, entry) Hashtbl.t;
  mutable total_bytes : int;
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
(* Index persistence                                                   *)
(* ------------------------------------------------------------------ *)

(* The INDEX records access order across process restarts:
   "impact-cache-index v1" then one "<tick> <file>" line per entry.
   It is advisory — a missing or stale index only degrades the LRU
   ordering (unknown entries start at tick 0), never correctness, since
   every entry file self-verifies. *)

let save_index_locked t =
  let lines =
    Hashtbl.fold (fun _ e acc -> (e.e_tick, e.e_file) :: acc) t.entries []
    |> List.sort compare
    |> List.map (fun (tick, file) -> Printf.sprintf "%d %s" tick file)
  in
  try
    Atomic_io.write_string
      (Filename.concat t.dir index_file)
      ("impact-cache-index v1\n" ^ String.concat "\n" lines ^ "\n")
  with e -> t.last_error <- Some (typed_of_exn e)

let load_index dir =
  let path = Filename.concat dir index_file in
  match read_file path with
  | exception _ -> []
  | s -> (
    match String.split_on_char '\n' s with
    | "impact-cache-index v1" :: rest ->
      List.filter_map
        (fun line ->
          match String.index_opt line ' ' with
          | Some i -> (
            let tick = String.sub line 0 i in
            let file = String.sub line (i + 1) (String.length line - i - 1) in
            match int_of_string_opt tick with
            | Some tick when file <> "" -> Some (file, tick)
            | _ -> None)
          | None -> None)
        rest
    | _ -> []
  )

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
      stats =
        {
          hits = 0;
          misses = 0;
          corrupt = 0;
          stores = 0;
          store_failures = 0;
          evictions = 0;
        };
      last_error = None;
    }
  in
  let ticks = load_index dir in
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
        let tick =
          match List.assoc_opt file ticks with Some n -> n | None -> 0
        in
        Hashtbl.replace t.entries file { e_file = file; e_tick = tick; e_bytes = bytes };
        t.total_bytes <- t.total_bytes + bytes;
        if tick >= t.tick then t.tick <- tick + 1)
    files;
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
   anyway and loses only reuse, not work. *)
let store t ~stage ~key payload =
  Mutex.protect t.mu (fun () ->
      let file = entry_file ~stage ~key in
      let content =
        Printf.sprintf "%s %s %s %s %d\n%s" magic stage key
          (Digest.to_hex (Digest.string payload))
          (String.length payload) payload
      in
      match
        Fault.hit Fault.Cache_write;
        Atomic_io.write_string (Filename.concat t.dir file) content
      with
      | exception e ->
        t.stats.store_failures <- t.stats.store_failures + 1;
        t.last_error <- Some (typed_of_exn e)
      | () ->
        (* Replacing an entry first retires the old size. *)
        (match Hashtbl.find_opt t.entries file with
        | Some old -> t.total_bytes <- t.total_bytes - old.e_bytes
        | None -> ());
        let bytes = String.length content in
        t.tick <- t.tick + 1;
        Hashtbl.replace t.entries file
          { e_file = file; e_tick = t.tick; e_bytes = bytes };
        t.total_bytes <- t.total_bytes + bytes;
        t.stats.stores <- t.stats.stores + 1;
        evict_locked t ~keep:file;
        save_index_locked t)

let stats t = t.stats

let last_error t = t.last_error

let entry_count t = Mutex.protect t.mu (fun () -> Hashtbl.length t.entries)

let total_bytes t = Mutex.protect t.mu (fun () -> t.total_bytes)

let hit_rate s =
  let total = s.hits + s.misses in
  if total = 0 then 0. else float_of_int s.hits /. float_of_int total
