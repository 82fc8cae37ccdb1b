(** Hand-written lexer for the C subset.

    Supports decimal, hexadecimal ([0x...]) and octal ([0...]) integer
    literals up to [max_int] (the IL's immediates are native ints; a
    larger one is a [Lex_error] at the literal), character literals
    with the usual escapes, string literals, [//] and [/* */] comments,
    and all tokens of {!Token}. *)

(** Raised on malformed input; carries a message and the location. *)
exception Lex_error of string * Srcloc.t

(** [tokenize src] is the token stream of [src], each token paired with
    its start location.  The final element is always [(Token.Eof, _)].
    @raise Lex_error on malformed input. *)
val tokenize : string -> (Token.t * Srcloc.t) list
