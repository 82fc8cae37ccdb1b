(* Counters and histograms are sharded per domain: each domain owns a
   private shard (found through a domain-local-storage slot, registered
   with the registry on first use).  Readers — [snapshot],
   [counter_value], [histogram], [to_json] — merge every shard at query
   time.

   Soundness: a shard's writers are the systhreads of the domain it
   belongs to.  Structural changes (inserting a new counter or
   histogram name, which may resize a [Hashtbl]) and reader folds take
   the shard's mutex, so a reader never iterates a table mid-resize,
   and an insert re-checks the name under that mutex, so two threads
   racing on a fresh name both land in one ref.  Bumping an {e
   existing} counter is a plain word-sized read-add-write with no
   allocation in between, so no systhread switch or tearing can split
   it, and it takes no lock; a [Domain.join] before reading (every
   {!Impact_support.Pool} map joins its workers) makes merged totals
   exact.  Mid-run reads may observe a slightly stale count, which is
   fine for monitoring.  An observation updates several fields of a
   histogram, so it always takes the shard's mutex.

   Histograms come in two families that share names: spans (fed by
   {!Obs.span} with each span's duration) and plain values (fed by
   {!observe}).

   Gauges are last-write-wins across domains, so they keep the single
   mutex-protected table.  The disabled path stays lock-free. *)

type shard = {
  smu : Mutex.t;
  tbl : (string, int ref) Hashtbl.t;
  hists : (bool * string, Histogram.t) Hashtbl.t;  (* (is a span, name) *)
}

type t = {
  sink : Sink.t;
  mu : Mutex.t;  (* guards [shards] and [gauges] *)
  mutable shards : shard list;
  slot : shard option ref Domain.DLS.key;
  gauges : (string, Sink.json) Hashtbl.t;
}

let create sink =
  {
    sink;
    mu = Mutex.create ();
    shards = [];
    slot = Domain.DLS.new_key (fun () -> ref None);
    gauges = Hashtbl.create 32;
  }

let null = create Sink.null

let enabled t = Sink.enabled t.sink

(* This domain's shard, created and registered on first use.  The DLS
   slot is keyed per registry, so two registries on one domain keep
   separate shards. *)
let my_shard t =
  let cell = Domain.DLS.get t.slot in
  match !cell with
  | Some s -> s
  | None ->
    let s =
      { smu = Mutex.create (); tbl = Hashtbl.create 16; hists = Hashtbl.create 16 }
    in
    Mutex.protect t.mu (fun () -> t.shards <- s :: t.shards);
    cell := Some s;
    s

let incr t ?(by = 1) name =
  if enabled t then begin
    let s = my_shard t in
    match Hashtbl.find_opt s.tbl name with
    | Some r -> r := !r + by
    | None ->
      Mutex.protect s.smu (fun () ->
          match Hashtbl.find_opt s.tbl name with
          | Some r -> r := !r + by
          | None -> Hashtbl.replace s.tbl name (ref by))
  end

let observe_in t key v =
  if enabled t then begin
    let s = my_shard t in
    Mutex.protect s.smu (fun () ->
        match Hashtbl.find_opt s.hists key with
        | Some h -> Histogram.observe h v
        | None ->
          let h = Histogram.create () in
          Histogram.observe h v;
          Hashtbl.replace s.hists key h)
  end

let observe t name v = observe_in t (false, name) v

let observe_span t name ms = observe_in t (true, name) ms

let gauge t name v =
  if enabled t then
    Mutex.protect t.mu (fun () -> Hashtbl.replace t.gauges name v)

let gauge_int t name n = gauge t name (Sink.Int n)

let gauge_float t name x = gauge t name (Sink.Float x)

(* Merge every shard's counters into one name -> total table. *)
let merged_counters t =
  let shards = Mutex.protect t.mu (fun () -> t.shards) in
  let acc = Hashtbl.create 32 in
  List.iter
    (fun s ->
      Mutex.protect s.smu (fun () ->
          Hashtbl.iter
            (fun name r ->
              match Hashtbl.find_opt acc name with
              | Some total -> total := !total + !r
              | None -> Hashtbl.replace acc name (ref !r))
            s.tbl))
    shards;
  acc

let counter_value t name =
  let shards = Mutex.protect t.mu (fun () -> t.shards) in
  List.fold_left
    (fun total s ->
      Mutex.protect s.smu (fun () ->
          match Hashtbl.find_opt s.tbl name with
          | Some r -> total + !r
          | None -> total))
    0 shards

(* Every histogram of one family, merged across shards: name ->
   (snapshot, number of shards that hold it). *)
let merged_histograms t ~span =
  let shards = Mutex.protect t.mu (fun () -> t.shards) in
  let acc = Hashtbl.create 32 in
  List.iter
    (fun s ->
      Mutex.protect s.smu (fun () ->
          Hashtbl.iter
            (fun (is_span, name) h ->
              if is_span = span then
                let snap = Histogram.snapshot h in
                Hashtbl.replace acc name
                  (match Hashtbl.find_opt acc name with
                  | Some (a, n) -> (Histogram.merge a snap, n + 1)
                  | None -> (snap, 1)))
            s.hists))
    shards;
  acc

let empty = Histogram.snapshot (Histogram.create ())

let histogram ?(span = false) t name =
  Option.value ~default:(empty, 0)
    (Hashtbl.find_opt (merged_histograms t ~span) name)

let histogram_json t name = Histogram.snapshot_to_json (fst (histogram t name))

let histograms_json ?(span = false) t ~prefix =
  let n = String.length prefix in
  Hashtbl.fold
    (fun name (snap, _) acc ->
      if String.starts_with ~prefix name then
        (String.sub name n (String.length name - n), Histogram.snapshot_to_json snap)
        :: acc
      else acc)
    (merged_histograms t ~span) []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let sorted_bindings tbl value =
  Hashtbl.fold (fun k v acc -> (k, value v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let snapshot t =
  let counters = merged_counters t in
  sorted_bindings counters (fun r -> Sink.Int !r)
  @ Mutex.protect t.mu (fun () -> sorted_bindings t.gauges Fun.id)

let counters_json t =
  Sink.Obj (sorted_bindings (merged_counters t) (fun r -> Sink.Int !r))

let to_json t =
  Sink.Obj
    [
      ("counters", counters_json t);
      ( "gauges",
        Sink.Obj (Mutex.protect t.mu (fun () -> sorted_bindings t.gauges Fun.id))
      );
      ("histograms", Sink.Obj (histograms_json t ~prefix:""));
      ("spans", Sink.Obj (histograms_json ~span:true t ~prefix:""));
    ]

let flush ?trace t =
  if enabled t then begin
    let span = match trace with Some tr -> Trace.current_span tr | None -> 0 in
    List.iter
      (fun (name, v) ->
        Sink.emit t.sink
          {
            Sink.ev_ts = 0.;
            ev_kind = "metric";
            ev_name = name;
            ev_span = span;
            ev_dom = (Domain.self () :> int);
            ev_attrs = [ ("value", v) ];
          })
      (snapshot t)
  end

(* Atomic (temp + rename): an interrupted run never leaves a truncated
   metrics snapshot at [path]. *)
let write_json t path =
  Impact_support.Atomic_io.with_file path (fun oc ->
      output_string oc (Sink.json_to_string (to_json t));
      output_char oc '\n')
