(** Character-level lexer for the [.bench] format. *)

exception Error of { message : string; pos : Token.position }

type t

val of_string : string -> t

val next : t -> Token.t
(** Next token, skipping whitespace and ['#'] comments.  After [Eof] it keeps
    returning [Eof].  @raise Error on an unexpected character. *)

val scan : t -> Token.kind
(** {!next} without the position record: the token's position is then
    {!token_line}/{!token_column} until the next scan.  Only an identifier
    allocates (its text).  @raise Error on an unexpected character. *)

val token_line : t -> int
val token_column : t -> int

val all_tokens : string -> Token.t list
(** The full token stream including the final [Eof].  @raise Error. *)
