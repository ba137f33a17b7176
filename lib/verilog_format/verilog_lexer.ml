(* Lexer for the structural Verilog subset: identifiers (including escaped
   \identifiers ), punctuation, and all three comment styles. *)

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

let kind_to_string = function
  | Ident s -> Printf.sprintf "identifier %S" s
  | Lparen -> "'('"
  | Rparen -> "')'"
  | Semicolon -> "';'"
  | Comma -> "','"
  | Eof -> "end of input"

type t = {
  source : string;
  mutable offset : int;
  mutable line : int;
  mutable column : int;
}

let of_string source = { source; offset = 0; line = 1; column = 1 }

let position lx = { line = lx.line; column = lx.column }

let at_eof lx = lx.offset >= String.length lx.source

let peek lx = if at_eof lx then None else Some lx.source.[lx.offset]

let peek2 lx =
  if lx.offset + 1 >= String.length lx.source then None else Some lx.source.[lx.offset + 1]

let advance lx =
  (match peek lx with
  | Some '\n' ->
    lx.line <- lx.line + 1;
    lx.column <- 1
  | Some _ -> lx.column <- lx.column + 1
  | None -> ());
  lx.offset <- lx.offset + 1

let is_space = function
  | ' ' | '\t' | '\r' | '\n' -> true
  | _ -> false

let is_ident_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | '\\' -> true
  | _ -> false

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' | '.' | '[' | ']' -> true
  | _ -> false

let rec skip_blanks lx =
  match (peek lx, peek2 lx) with
  | Some c, _ when is_space c ->
    advance lx;
    skip_blanks lx
  | Some '/', Some '/' ->
    let rec to_eol () =
      match peek lx with
      | Some '\n' | None -> ()
      | Some _ ->
        advance lx;
        to_eol ()
    in
    to_eol ();
    skip_blanks lx
  | Some '/', Some '*' ->
    let start = position lx in
    advance lx;
    advance lx;
    let rec to_close () =
      match (peek lx, peek2 lx) with
      | Some '*', Some '/' ->
        advance lx;
        advance lx
      | None, _ -> raise (Error { message = "unterminated /* comment"; pos = start })
      | Some _, _ ->
        advance lx;
        to_close ()
    in
    to_close ();
    skip_blanks lx
  | Some '(', Some '*' ->
    (* attribute: skip to the matching star-rparen *)
    let start = position lx in
    advance lx;
    advance lx;
    let rec to_close () =
      match (peek lx, peek2 lx) with
      | Some '*', Some ')' ->
        advance lx;
        advance lx
      | None, _ -> raise (Error { message = "unterminated (* attribute"; pos = start })
      | Some _, _ ->
        advance lx;
        to_close ()
    in
    to_close ();
    skip_blanks lx
  | _, _ -> ()

let lex_escaped_ident lx pos =
  (* \identifier : runs to the next whitespace. *)
  advance lx;
  let start = lx.offset in
  while (not (at_eof lx)) && not (is_space lx.source.[lx.offset]) do
    advance lx
  done;
  if lx.offset = start then raise (Error { message = "empty escaped identifier"; pos })
  else { kind = Ident (String.sub lx.source start (lx.offset - start)); pos }

let next lx =
  skip_blanks lx;
  let pos = position lx in
  match peek lx with
  | None -> { kind = Eof; pos }
  | Some '(' ->
    advance lx;
    { kind = Lparen; pos }
  | Some ')' ->
    advance lx;
    { kind = Rparen; pos }
  | Some ';' ->
    advance lx;
    { kind = Semicolon; pos }
  | Some ',' ->
    advance lx;
    { kind = Comma; pos }
  | Some '\\' -> lex_escaped_ident lx pos
  | Some c when is_ident_start c ->
    let start = lx.offset in
    advance lx;
    while (not (at_eof lx)) && is_ident_char lx.source.[lx.offset] do
      advance lx
    done;
    { kind = Ident (String.sub lx.source start (lx.offset - start)); pos }
  | Some c -> raise (Error { message = Printf.sprintf "unexpected character %C" c; pos })

let all_tokens source =
  let lx = of_string source in
  let rec loop acc =
    let tok = next lx in
    match tok.kind with
    | Eof -> List.rev (tok :: acc)
    | Ident _ | Lparen | Rparen | Semicolon | Comma -> loop (tok :: acc)
  in
  loop []
