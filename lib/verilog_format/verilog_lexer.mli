(** Lexer for the structural Verilog subset: identifiers (plus escaped
    [\identifiers]), punctuation; skips [//], [/* */] and [(* *)]
    comments. *)

type position = { line : int; column : int }

type token_kind =
  | Ident of string
  | Lparen
  | Rparen
  | Semicolon
  | Comma
  | Eof

type token = { kind : token_kind; pos : position }

exception Error of { message : string; pos : position }

val kind_to_string : token_kind -> string

type t

val of_string : string -> t

val next : t -> token
(** @raise Error on an unexpected character or unterminated comment. *)

val all_tokens : string -> token list
(** Full stream including the final [Eof].  @raise Error. *)
