(* Hand-written lexer for the .bench format.

   The format is simple enough that a character-level scanner beats pulling
   in a generator: identifiers are any run of characters that are not
   whitespace or punctuation ('=', '(', ')', ','); '#' starts a comment that
   runs to end of line.

   The scanner walks the source by index and keeps only the offset where
   the current line starts: a token's column is its offset past that
   point, so nothing is counted or allocated per character.  [scan] returns
   a token's kind alone (only an identifier allocates, for its text); the
   parser reads positions from [token_line]/[token_column] and builds a
   {!Token.position} only for an error. *)

exception Error of { message : string; pos : Token.position }

type t = {
  source : string;
  mutable offset : int;
  mutable line : int;
  mutable line_start : int; (* offset of the current line's first character *)
  (* the position of the token [scan] last returned *)
  mutable token_line : int;
  mutable token_column : int;
}

let of_string source =
  { source; offset = 0; line = 1; line_start = 0; token_line = 1; token_column = 1 }

let token_line lx = lx.token_line
let token_column lx = lx.token_column
let token_position lx = { Token.line = lx.token_line; column = lx.token_column }

let is_ident_char = function
  | ' ' | '\t' | '\r' | '\n' | '=' | '(' | ')' | ',' | '#' -> false
  | _ -> true

(* Past whitespace and comments; counts the newlines it crosses. *)
let skip_blanks lx =
  let src = lx.source in
  let len = String.length src in
  let i = ref lx.offset in
  let blank = ref true in
  while !blank && !i < len do
    match String.unsafe_get src !i with
    | ' ' | '\t' | '\r' -> incr i
    | '\n' ->
      incr i;
      lx.line <- lx.line + 1;
      lx.line_start <- !i
    | '#' ->
      while !i < len && String.unsafe_get src !i <> '\n' do
        incr i
      done
    | _ -> blank := false
  done;
  lx.offset <- !i

let scan lx =
  skip_blanks lx;
  let src = lx.source and i = lx.offset in
  lx.token_line <- lx.line;
  lx.token_column <- i - lx.line_start + 1;
  if i >= String.length src then Token.Eof
  else
    match String.unsafe_get src i with
    | '=' ->
      lx.offset <- i + 1;
      Token.Equal
    | '(' ->
      lx.offset <- i + 1;
      Token.Lparen
    | ')' ->
      lx.offset <- i + 1;
      Token.Rparen
    | ',' ->
      lx.offset <- i + 1;
      Token.Comma
    | c when is_ident_char c ->
      let j = ref (i + 1) in
      while !j < String.length src && is_ident_char (String.unsafe_get src !j) do
        incr j
      done;
      lx.offset <- !j;
      Token.Ident (String.sub src i (!j - i))
    | c ->
      raise
        (Error { message = Printf.sprintf "unexpected character %C" c; pos = token_position lx })

let next lx =
  let kind = scan lx in
  { Token.kind; pos = token_position lx }

let all_tokens source =
  let lx = of_string source in
  let rec loop acc =
    let tok = next lx in
    match tok.Token.kind with
    | Eof -> List.rev (tok :: acc)
    | Ident _ | Equal | Lparen | Rparen | Comma -> loop (tok :: acc)
  in
  loop []
