(* Span ids are allocated under a mutex and the open-span stack is kept
   per thread of each domain, so runs executing on pool workers (see
   {!Impact_support.Pool}) and impactd's handler threads, which share
   domain 0, nest their own spans without corrupting each other's.
   Single-thread behaviour — ids, nesting, event order — is unchanged.
   A thread's entry goes when its stack empties, so threads that come
   and go leave nothing behind. *)

type t = {
  sink : Sink.t;
  clock : unit -> float;
  on_span : string -> float -> unit;  (* each closed span's name and dur_ms *)
  origin : float;
  mu : Mutex.t;
  mutable next_id : int;
  stacks : (int * int, int list) Hashtbl.t;
      (* (domain id, thread id) -> innermost-first *)
}

let create ?(clock = Unix.gettimeofday) ~on_span sink =
  let origin = if Sink.enabled sink then clock () else 0. in
  {
    sink;
    clock;
    on_span;
    origin;
    mu = Mutex.create ();
    next_id = 1;
    stacks = Hashtbl.create 4;
  }

let null = create ~clock:(fun () -> 0.) ~on_span:(fun _ _ -> ()) Sink.null

let sink t = t.sink

let enabled t = Sink.enabled t.sink

let me () = ((Domain.self () :> int), Thread.id (Thread.self ()))

let my_stack t =
  match Hashtbl.find_opt t.stacks (me ()) with Some s -> s | None -> []

let set_my_stack t = function
  | [] -> Hashtbl.remove t.stacks (me ())
  | s -> Hashtbl.replace t.stacks (me ()) s

let current_span t =
  Mutex.protect t.mu (fun () ->
      match my_stack t with [] -> 0 | id :: _ -> id)

let now t = t.clock () -. t.origin

let instant t ~kind ?(attrs = []) name =
  if Sink.keeps t.sink then
    Sink.emit t.sink
      {
        Sink.ev_ts = now t;
        ev_kind = kind;
        ev_name = name;
        ev_span = current_span t;
        ev_dom = (Domain.self () :> int);
        ev_attrs = attrs;
      }

let with_span t ?(attrs = []) name f =
  if not (enabled t) then f ()
  else if not (Sink.keeps t.sink) then begin
    (* No event will be kept, so no id, parent or stack is needed: the
       span only times itself. *)
    let t0 = now t in
    Fun.protect ~finally:(fun () -> t.on_span name ((now t -. t0) *. 1000.)) f
  end
  else begin
    let parent, id =
      Mutex.protect t.mu (fun () ->
          let parent = match my_stack t with [] -> 0 | p :: _ -> p in
          let id = t.next_id in
          t.next_id <- id + 1;
          set_my_stack t (id :: my_stack t);
          (parent, id))
    in
    let t0 = now t in
    Sink.emit t.sink
      {
        Sink.ev_ts = t0;
        ev_kind = "span_begin";
        ev_name = name;
        ev_span = id;
        ev_dom = (Domain.self () :> int);
        ev_attrs = ("parent", Sink.Int parent) :: attrs;
      };
    Fun.protect
      ~finally:(fun () ->
        Mutex.protect t.mu (fun () ->
            match my_stack t with
            | top :: rest when top = id -> set_my_stack t rest
            | stack -> set_my_stack t (List.filter (fun s -> s <> id) stack));
        let t1 = now t in
        let dur_ms = (t1 -. t0) *. 1000. in
        t.on_span name dur_ms;
        Sink.emit t.sink
          {
            Sink.ev_ts = t1;
            ev_kind = "span_end";
            ev_name = name;
            ev_span = id;
            ev_dom = (Domain.self () :> int);
            ev_attrs = [ ("parent", Sink.Int parent); ("dur_ms", Sink.Float dur_ms) ];
          })
      f
  end

type span = {
  id : int;
  name : string;
  parent : int;
  attrs : (string * Sink.json) list;
  dur_ms : float;
  self_ms : float;
}

let self_times (events : Sink.event list) =
  let ends = Hashtbl.create 64 in
  let last =
    List.fold_left
      (fun last (e : Sink.event) ->
        if e.Sink.ev_kind = "span_end" then
          Hashtbl.replace ends e.Sink.ev_span e.Sink.ev_ts;
        Float.max last e.Sink.ev_ts)
      0. events
  in
  let begins =
    List.filter_map
      (fun (e : Sink.event) ->
        if e.Sink.ev_kind <> "span_begin" then None
        else
          let stop =
            Option.value ~default:last (Hashtbl.find_opt ends e.Sink.ev_span)
          in
          let parent =
            match List.assoc_opt "parent" e.Sink.ev_attrs with
            | Some (Sink.Int p) -> p
            | _ -> 0
          in
          Some (e, parent, 1000. *. (stop -. e.Sink.ev_ts)))
      events
  in
  let covered = Hashtbl.create 64 in
  List.iter
    (fun (_, parent, dur) ->
      let c = Option.value ~default:0. (Hashtbl.find_opt covered parent) in
      Hashtbl.replace covered parent (c +. dur))
    begins;
  List.map
    (fun ((e : Sink.event), parent, dur_ms) ->
      let id = e.Sink.ev_span in
      {
        id;
        name = e.Sink.ev_name;
        parent;
        attrs = List.remove_assoc "parent" e.Sink.ev_attrs;
        dur_ms;
        self_ms =
          dur_ms -. Option.value ~default:0. (Hashtbl.find_opt covered id);
      })
    begins
