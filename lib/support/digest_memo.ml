(* A bounded memo of inputs and their MD5s.  An entry keeps its input,
   so a lookup by content compares content, never a weaker hash, and a
   lookup by digest can only return bytes this memo digested itself.
   Entries sit in a ring, most recently used first behind the sentinel
   [ring]; the least recently used go once the bytes held pass
   [budget], so each entry is evicted at most once and every operation
   is O(1) amortized.  [mu] covers both tables and the ring, never an
   MD5. *)

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

type t = {
  mu : Mutex.t;
  table : entry Inputs.t;
  sums : (Digest.t, entry) Hashtbl.t;
  ring : entry;
  mutable held : int;
}

(* The suite's 1,534,711 input bytes fit. *)
let budget = 2 * 1024 * 1024

let create () =
  let rec ring = { input = ""; sum = ""; prev = ring; next = ring } in
  {
    mu = Mutex.create ();
    table = Inputs.create 64;
    sums = Hashtbl.create 64;
    ring;
    held = 0;
  }

let unlink e =
  e.prev.next <- e.next;
  e.next.prev <- e.prev

let push_front m e =
  e.prev <- m.ring;
  e.next <- m.ring.next;
  m.ring.next.prev <- e;
  m.ring.next <- e

let touch m e =
  unlink e;
  push_front m e

let find m s =
  Mutex.protect m.mu (fun () ->
      match Inputs.find_opt m.table s with
      | Some e ->
        touch m e;
        Some e.sum
      | None -> None)

let find_digest m sum =
  Mutex.protect m.mu (fun () ->
      match Hashtbl.find_opt m.sums sum with
      | Some e ->
        touch m e;
        Some e.input
      | None -> None)

let add m s =
  let sum = Digest.string s in
  if String.length s <= budget then
    Mutex.protect m.mu (fun () ->
        if not (Inputs.mem m.table s) then begin
          let rec e = { input = s; sum; prev = e; next = e } in
          Inputs.replace m.table s e;
          Hashtbl.replace m.sums sum e;
          push_front m e;
          m.held <- m.held + String.length s;
          (* [e] alone fits, and it is the last candidate. *)
          while m.held > budget do
            let old = m.ring.prev in
            unlink old;
            Inputs.remove m.table old.input;
            (* Two inputs with one MD5 share the digest's slot; only the
               entry the slot names leaves it. *)
            (match Hashtbl.find_opt m.sums old.sum with
            | Some e when e == old -> Hashtbl.remove m.sums old.sum
            | _ -> ());
            m.held <- m.held - String.length old.input
          done
        end);
  sum

let bytes m = Mutex.protect m.mu (fun () -> m.held)
