type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

(* The first byte of [s] at or after [i] that JSON writes escaped, or
   [String.length s].  This runs once per byte written, and comparisons
   compile to a faster loop here than a [match] over byte ranges. *)
let rec next_escaped s i =
  if i < String.length s then
    let c = String.unsafe_get s i in
    if c >= ' ' && c <> '"' && c <> '\\' then next_escaped s (i + 1) else i
  else i

let hex_digits = "0123456789abcdef"

let escape_string buf s =
  Buffer.add_char buf '"';
  let rec run i =
    let j = next_escaped s i in
    Buffer.add_substring buf s i (j - i);
    if j < String.length s then begin
      (match String.unsafe_get s j with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c ->
        Buffer.add_string buf "\\u00";
        Buffer.add_char buf hex_digits.[Char.code c lsr 4];
        Buffer.add_char buf hex_digits.[Char.code c land 0xf]);
      run (j + 1)
    end
  in
  run 0;
  Buffer.add_char buf '"'

(* JSON has no spelling for a non-finite number; [null] keeps the line
   parseable. *)
let float_to_string x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let rec json_to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float x -> Buffer.add_string buf (float_to_string x)
  | String s -> escape_string buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        json_to_buffer buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_string buf k;
        Buffer.add_char buf ':';
        json_to_buffer buf v)
      fields;
    Buffer.add_char buf '}'

let json_to_string j =
  let buf = Buffer.create 256 in
  json_to_buffer buf j;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Parse_error msg)) fmt

type parser_state = { src : string; mutable pos : int }

let peek p = if p.pos < String.length p.src then Some p.src.[p.pos] else None

let advance p = p.pos <- p.pos + 1

let rec skip_ws p =
  match peek p with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance p;
    skip_ws p
  | _ -> ()

let expect p c =
  match peek p with
  | Some c' when c' = c -> advance p
  | Some c' -> fail "expected '%c' at %d, found '%c'" c p.pos c'
  | None -> fail "expected '%c' at %d, found end of input" c p.pos

let parse_literal p word value =
  let n = String.length word in
  if p.pos + n <= String.length p.src && String.sub p.src p.pos n = word then begin
    p.pos <- p.pos + n;
    value
  end
  else fail "invalid literal at %d" p.pos

let hex_value = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> -1

let unescape = function
  | 'n' -> '\n'
  | 'r' -> '\r'
  | 't' -> '\t'
  | 'b' -> '\b'
  | 'f' -> '\012'
  | c -> c

(* The first quote or backslash in [s] at or after [i] and below [stop],
   or [stop]. *)
let rec next_special s stop i =
  if i < stop then
    let c = String.unsafe_get s i in
    if c <> '"' && c <> '\\' then next_special s stop (i + 1) else i
  else stop

(* A literal with escapes, whose first backslash is at [first].  Its raw
   text ends at the first quote no escape takes, or at the end of input;
   no escape decodes longer than it is written, so that extent sizes the
   result.  Decoding then goes left to right like a byte-at-a-time
   reader, so the first malformed escape is the one reported, at the
   same position. *)
let parse_escaped p start first =
  let src = p.src in
  let n = String.length src in
  let rec extent i =
    let j = next_special src n i in
    if j < n && String.unsafe_get src j = '\\' then extent (j + 2) else j
  in
  let stop = extent first in
  let out = Bytes.create (stop - start) in
  (* Below [stop], every quote belongs to an escape, so a run ends at a
     backslash or at [stop]. *)
  let rec run i o =
    let j = next_special src stop i in
    Bytes.blit_string src i out o (j - i);
    let o = o + (j - i) in
    if j < stop then escape j o
    else begin
      if stop = n then fail "unterminated string at %d" n;
      p.pos <- stop + 1;
      Bytes.sub_string out 0 o
    end
  and escape i o =
    let e = i + 1 in
    match if e < n then String.unsafe_get src e else '\000' with
    | ('"' | '\\' | '/' | 'n' | 'r' | 't' | 'b' | 'f') as c ->
      Bytes.unsafe_set out o (unescape c);
      run (e + 1) (o + 1)
    | 'u' ->
      let h = e + 1 in
      if h + 4 > n then fail "bad \\u escape at %d" h;
      let d0 = hex_value src.[h] and d1 = hex_value src.[h + 1]
      and d2 = hex_value src.[h + 2] and d3 = hex_value src.[h + 3] in
      if d0 lor d1 lor d2 lor d3 < 0 then fail "bad \\u escape at %d" h;
      let code = (d0 lsl 12) lor (d1 lsl 8) lor (d2 lsl 4) lor d3 in
      (* The emitter only escapes control characters this way; decode
         the basic plane as UTF-8 so foreign traces still load. *)
      let set k c = Bytes.unsafe_set out (o + k) (Char.unsafe_chr c) in
      if code < 0x80 then begin
        set 0 code;
        run (h + 4) (o + 1)
      end
      else if code < 0x800 then begin
        set 0 (0xc0 lor (code lsr 6));
        set 1 (0x80 lor (code land 0x3f));
        run (h + 4) (o + 2)
      end
      else begin
        set 0 (0xe0 lor (code lsr 12));
        set 1 (0x80 lor ((code lsr 6) land 0x3f));
        set 2 (0x80 lor (code land 0x3f));
        run (h + 4) (o + 3)
      end
    | _ -> fail "bad escape at %d" e
  in
  Bytes.blit_string src start out 0 (first - start);
  escape first (first - start)

(* A literal without escapes, the common case, is one [String.sub]. *)
let parse_string p =
  expect p '"';
  let src = p.src and start = p.pos in
  let n = String.length src in
  let i = next_special src n start in
  if i = n then fail "unterminated string at %d" n
  else if String.unsafe_get src i = '"' then begin
    p.pos <- i + 1;
    String.sub src start (i - start)
  end
  else parse_escaped p start i

let parse_number p =
  let start = p.pos in
  let is_float = ref false in
  let rec loop () =
    match peek p with
    | Some ('0' .. '9' | '-' | '+') ->
      advance p;
      loop ()
    | Some ('.' | 'e' | 'E') ->
      is_float := true;
      advance p;
      loop ()
    | _ -> ()
  in
  loop ();
  let s = String.sub p.src start (p.pos - start) in
  if !is_float then
    match float_of_string_opt s with
    | Some x -> Float x
    | None -> fail "bad number '%s' at %d" s start
  else
    match int_of_string_opt s with
    | Some n -> Int n
    | None -> (
      match float_of_string_opt s with
      | Some x -> Float x
      | None -> fail "bad number '%s' at %d" s start)

let rec parse_value p =
  skip_ws p;
  match peek p with
  | None -> fail "unexpected end of input"
  | Some '{' ->
    advance p;
    skip_ws p;
    if peek p = Some '}' then begin
      advance p;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec fields_loop () =
        skip_ws p;
        let key = parse_string p in
        skip_ws p;
        expect p ':';
        let v = parse_value p in
        fields := (key, v) :: !fields;
        skip_ws p;
        match peek p with
        | Some ',' ->
          advance p;
          fields_loop ()
        | Some '}' -> advance p
        | _ -> fail "expected ',' or '}' at %d" p.pos
      in
      fields_loop ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    advance p;
    skip_ws p;
    if peek p = Some ']' then begin
      advance p;
      List []
    end
    else begin
      let items = ref [] in
      let rec items_loop () =
        let v = parse_value p in
        items := v :: !items;
        skip_ws p;
        match peek p with
        | Some ',' ->
          advance p;
          items_loop ()
        | Some ']' -> advance p
        | _ -> fail "expected ',' or ']' at %d" p.pos
      in
      items_loop ();
      List (List.rev !items)
    end
  | Some '"' -> String (parse_string p)
  | Some 't' -> parse_literal p "true" (Bool true)
  | Some 'f' -> parse_literal p "false" (Bool false)
  | Some 'n' -> parse_literal p "null" Null
  | Some ('-' | '0' .. '9') -> parse_number p
  | Some c -> fail "unexpected character '%c' at %d" c p.pos

let json_of_string s =
  let p = { src = s; pos = 0 } in
  let v = parse_value p in
  skip_ws p;
  if p.pos <> String.length s then fail "trailing garbage at %d" p.pos;
  v

let mem key = function
  | Obj fields -> ( match List.assoc_opt key fields with Some v -> v | None -> Null)
  | _ -> Null

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

type event = {
  ev_ts : float;
  ev_kind : string;
  ev_name : string;
  ev_span : int;
  ev_dom : int;
  ev_attrs : (string * json) list;
}

let event_to_json ev =
  Obj
    [
      ("ts", Float ev.ev_ts);
      ("kind", String ev.ev_kind);
      ("name", String ev.ev_name);
      ("span", Int ev.ev_span);
      ("dom", Int ev.ev_dom);
      ("attrs", Obj ev.ev_attrs);
    ]

let event_of_json j =
  let str key = match mem key j with String s -> s | _ -> fail "event lacks %s" key in
  let ts = match mem "ts" j with Float x -> x | Int n -> float_of_int n | _ -> fail "event lacks ts" in
  let span = match mem "span" j with Int n -> n | _ -> fail "event lacks span" in
  (* [dom] arrived with PR 6; traces written before then simply lack it,
     and re-parse with every event on domain 0. *)
  let dom = match mem "dom" j with Int n -> n | _ -> 0 in
  let attrs = match mem "attrs" j with Obj fields -> fields | Null -> [] | _ -> fail "bad attrs" in
  {
    ev_ts = ts;
    ev_kind = str "kind";
    ev_name = str "name";
    ev_span = span;
    ev_dom = dom;
    ev_attrs = attrs;
  }

let event_of_line s = event_of_json (json_of_string s)

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

(* Every buffering sink carries a mutex: parallel profiling (see
   {!Impact_support.Pool}) funnels events from several domains into one
   sink, and interleaved JSONL lines or a torn event list must not be
   possible.  The null sink stays lock-free — the [enabled] check keeps
   the disabled path at zero cost — and so does the discard sink, which
   keeps nothing and so has nothing to tear. *)
(* Sinks fail open: a write that raises (disk full, closed channel, an
   injected {!Impact_support.Fault.Sink_write} fault) records the first
   error and stops emitting instead of unwinding whatever pipeline stage
   happened to emit the event — observability must never take the
   computation down.  Drivers decide severity afterwards via {!broken}:
   a strict run turns a broken sink into a typed artifact error, a
   degraded run reports it and keeps the result. *)
type t =
  | S_null
  | S_discard
  | S_memory of { mu : Mutex.t; mutable events : event list; mutable err : exn option }
  | S_jsonl of { mu : Mutex.t; oc : out_channel; mutable err : exn option }

let null = S_null

let discard () = S_discard

let memory () = S_memory { mu = Mutex.create (); events = []; err = None }

let jsonl oc = S_jsonl { mu = Mutex.create (); oc; err = None }

let enabled = function S_null -> false | _ -> true

let keeps = function S_memory _ | S_jsonl _ -> true | S_null | S_discard -> false

let emit t ev =
  match t with
  | S_null | S_discard -> ()
  | S_memory m -> (
    try
      Impact_support.Fault.hit Impact_support.Fault.Sink_write;
      Mutex.protect m.mu (fun () -> m.events <- ev :: m.events)
    with e -> Mutex.protect m.mu (fun () -> if m.err = None then m.err <- Some e))
  | S_jsonl j -> (
    try
      Impact_support.Fault.hit Impact_support.Fault.Sink_write;
      let line = json_to_string (event_to_json ev) in
      Mutex.protect j.mu (fun () ->
          output_string j.oc line;
          output_char j.oc '\n')
    with e -> Mutex.protect j.mu (fun () -> if j.err = None then j.err <- Some e))

let events = function
  | S_memory m -> Mutex.protect m.mu (fun () -> List.rev m.events)
  | S_null | S_discard | S_jsonl _ -> []

let broken = function
  | S_null | S_discard -> None
  | S_memory m -> Mutex.protect m.mu (fun () -> m.err)
  | S_jsonl j -> Mutex.protect j.mu (fun () -> j.err)

let close = function
  | S_jsonl j -> (
    try Mutex.protect j.mu (fun () -> flush j.oc)
    with e -> Mutex.protect j.mu (fun () -> if j.err = None then j.err <- Some e))
  | S_null | S_discard | S_memory _ -> ()
