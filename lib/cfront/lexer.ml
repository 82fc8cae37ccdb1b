exception Lex_error of string * Srcloc.t

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (* position of the beginning of the current line *)
}

let loc st = Srcloc.make ~line:st.line ~col:(st.pos - st.bol + 1)

let error st msg = raise (Lex_error (msg, loc st))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek2 st =
  if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

let advance st =
  (if st.pos < String.length st.src && st.src.[st.pos] = '\n' then begin
     st.line <- st.line + 1;
     st.bol <- st.pos + 1
   end);
  st.pos <- st.pos + 1

let is_digit c = c >= '0' && c <= '9'
let is_hex_digit c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\r' | '\n') ->
    advance st;
    skip_ws st
  | Some '/' when peek2 st = Some '/' ->
    let rec to_eol () =
      match peek st with
      | Some '\n' | None -> ()
      | Some _ ->
        advance st;
        to_eol ()
    in
    to_eol ();
    skip_ws st
  | Some '/' when peek2 st = Some '*' ->
    advance st;
    advance st;
    let rec to_close () =
      match (peek st, peek2 st) with
      | Some '*', Some '/' ->
        advance st;
        advance st
      | None, _ -> error st "unterminated comment"
      | Some _, _ ->
        advance st;
        to_close ()
    in
    to_close ();
    skip_ws st
  | Some _ | None -> ()

let hex_value c =
  if is_digit c then Char.code c - Char.code '0'
  else if c >= 'a' && c <= 'f' then Char.code c - Char.code 'a' + 10
  else Char.code c - Char.code 'A' + 10

(* A literal is an IL immediate, an OCaml native int, so one above
   [max_int] is out of range: a typed error at the literal's own
   location, never a wrapped value. *)
let lex_number st =
  let start = st.pos and start_loc = loc st in
  let v = ref 0 in
  let add base d =
    if !v > (max_int - d) / base then
      raise (Lex_error ("integer literal out of range", start_loc));
    v := (!v * base) + d
  in
  if peek st = Some '0' && (peek2 st = Some 'x' || peek2 st = Some 'X') then begin
    advance st;
    advance st;
    let rec loop () =
      match peek st with
      | Some c when is_hex_digit c ->
        add 16 (hex_value c);
        advance st;
        loop ()
      | Some _ | None -> ()
    in
    loop ();
    if st.pos - start = 2 then error st "malformed hexadecimal literal"
  end
  else begin
    let rec loop () =
      match peek st with
      | Some c when is_digit c ->
        advance st;
        loop ()
      | Some _ | None -> ()
    in
    loop ();
    let text = String.sub st.src start (st.pos - start) in
    (* A leading 0 means octal, as in C. *)
    let base = if String.length text > 1 && text.[0] = '0' then 8 else 10 in
    String.iter
      (fun c ->
        if c > '7' && base = 8 then error st "malformed octal literal";
        add base (Char.code c - Char.code '0'))
      text
  end;
  Token.Int_lit !v

let lex_escape st =
  (* Called just after the backslash has been consumed. *)
  match peek st with
  | None -> error st "unterminated escape sequence"
  | Some c ->
    advance st;
    (match c with
    | 'n' -> '\n'
    | 't' -> '\t'
    | 'r' -> '\r'
    | '0' -> '\000'
    | '\\' -> '\\'
    | '\'' -> '\''
    | '"' -> '"'
    | c -> error st (Printf.sprintf "unknown escape '\\%c'" c))

let lex_char st =
  advance st;
  (* opening quote *)
  let c =
    match peek st with
    | None -> error st "unterminated character literal"
    | Some '\\' ->
      advance st;
      lex_escape st
    | Some c ->
      advance st;
      c
  in
  (match peek st with
  | Some '\'' -> advance st
  | Some _ | None -> error st "unterminated character literal");
  Token.Char_lit c

let lex_string st =
  advance st;
  (* opening quote *)
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> error st "unterminated string literal"
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      Buffer.add_char buf (lex_escape st);
      loop ()
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      loop ()
  in
  loop ();
  Token.Str_lit (Buffer.contents buf)

let lex_ident st =
  let start = st.pos in
  let rec loop () =
    match peek st with
    | Some c when is_ident_char c ->
      advance st;
      loop ()
    | Some _ | None -> ()
  in
  loop ();
  let text = String.sub st.src start (st.pos - start) in
  match Token.keyword_of_string text with
  | Some kw -> kw
  | None -> Token.Ident text

(* Multi-character operators are matched longest-first. *)
let lex_operator st c =
  let two = peek2 st in
  let three =
    if st.pos + 2 < String.length st.src then Some st.src.[st.pos + 2] else None
  in
  let consume n tok =
    for _ = 1 to n do
      advance st
    done;
    tok
  in
  match (c, two, three) with
  | '<', Some '<', Some '=' -> consume 3 Token.Shl_assign
  | '>', Some '>', Some '=' -> consume 3 Token.Shr_assign
  | '<', Some '<', _ -> consume 2 Token.Shl_op
  | '>', Some '>', _ -> consume 2 Token.Shr_op
  | '<', Some '=', _ -> consume 2 Token.Le_op
  | '>', Some '=', _ -> consume 2 Token.Ge_op
  | '=', Some '=', _ -> consume 2 Token.Eq_op
  | '!', Some '=', _ -> consume 2 Token.Ne_op
  | '&', Some '&', _ -> consume 2 Token.Andand
  | '|', Some '|', _ -> consume 2 Token.Oror
  | '+', Some '+', _ -> consume 2 Token.Plusplus
  | '-', Some '-', _ -> consume 2 Token.Minusminus
  | '-', Some '>', _ -> consume 2 Token.Arrow
  | '+', Some '=', _ -> consume 2 Token.Plus_assign
  | '-', Some '=', _ -> consume 2 Token.Minus_assign
  | '*', Some '=', _ -> consume 2 Token.Star_assign
  | '/', Some '=', _ -> consume 2 Token.Slash_assign
  | '%', Some '=', _ -> consume 2 Token.Percent_assign
  | '&', Some '=', _ -> consume 2 Token.Amp_assign
  | '|', Some '=', _ -> consume 2 Token.Pipe_assign
  | '^', Some '=', _ -> consume 2 Token.Caret_assign
  | '(', _, _ -> consume 1 Token.Lparen
  | ')', _, _ -> consume 1 Token.Rparen
  | '{', _, _ -> consume 1 Token.Lbrace
  | '}', _, _ -> consume 1 Token.Rbrace
  | '[', _, _ -> consume 1 Token.Lbracket
  | ']', _, _ -> consume 1 Token.Rbracket
  | ';', _, _ -> consume 1 Token.Semi
  | ',', _, _ -> consume 1 Token.Comma
  | '.', _, _ -> consume 1 Token.Dot
  | '?', _, _ -> consume 1 Token.Question
  | ':', _, _ -> consume 1 Token.Colon
  | '+', _, _ -> consume 1 Token.Plus
  | '-', _, _ -> consume 1 Token.Minus
  | '*', _, _ -> consume 1 Token.Star
  | '/', _, _ -> consume 1 Token.Slash
  | '%', _, _ -> consume 1 Token.Percent
  | '&', _, _ -> consume 1 Token.Amp
  | '|', _, _ -> consume 1 Token.Pipe
  | '^', _, _ -> consume 1 Token.Caret
  | '~', _, _ -> consume 1 Token.Tilde
  | '!', _, _ -> consume 1 Token.Bang
  | '<', _, _ -> consume 1 Token.Lt_op
  | '>', _, _ -> consume 1 Token.Gt_op
  | '=', _, _ -> consume 1 Token.Assign
  | c, _, _ -> error st (Printf.sprintf "unexpected character %C" c)

let tokenize src =
  let st = { src; pos = 0; line = 1; bol = 0 } in
  let toks = ref [] in
  let rec loop () =
    skip_ws st;
    let where = loc st in
    match peek st with
    | None -> toks := (Token.Eof, where) :: !toks
    | Some c ->
      let tok =
        if is_digit c then lex_number st
        else if is_ident_start c then lex_ident st
        else if c = '\'' then lex_char st
        else if c = '"' then lex_string st
        else lex_operator st c
      in
      toks := (tok, where) :: !toks;
      loop ()
  in
  loop ();
  List.rev !toks
