(* Recursive-descent parser for the .bench format.

   Grammar (line breaks are not significant once tokenized):

     file      ::= statement* EOF
     statement ::= "INPUT" "(" ident ")"
                 | "OUTPUT" "(" ident ")"
                 | ident "=" ident "(" ident-list ")"
     ident-list ::= ident ("," ident)*

   The identifier after "=" is a gate kind ("AND", "NOT", ...; see
   Netlist.Gate.of_string for accepted aliases) or "DFF".

   Each statement goes to a sink as soon as it is parsed: [parse_string]'s
   sink is the netlist builder, so no statement list is ever held, and
   [parse_ast]'s collects the AST.  Syntax errors take precedence over
   netlist errors wherever they are: once the builder rejects a statement,
   the rest of the file is still parsed (into a sink that drops it) before
   the builder's error is raised. *)

exception Error of { message : string; pos : Token.position }

let fail pos fmt = Fmt.kstr (fun message -> raise (Error { message; pos })) fmt

type sink = {
  input : string -> unit;
  output : string -> unit;
  dff : string -> string -> unit;
  gate : string -> Netlist.Gate.kind -> string list -> unit;
}

(* The lookahead token is the one the lexer scanned last: its kind is
   [lookahead], its position the lexer's token position. *)
type state = { lexer : Lexer.t; mutable lookahead : Token.kind }

let of_string source =
  let lexer = Lexer.of_string source in
  { lexer; lookahead = Lexer.scan lexer }

let position st = { Token.line = Lexer.token_line st.lexer; column = Lexer.token_column st.lexer }

let advance st = st.lookahead <- Lexer.scan st.lexer

let expect st (expected : Token.kind) =
  match (expected, st.lookahead) with
  | Equal, Equal | Lparen, Lparen | Rparen, Rparen | Comma, Comma | Eof, Eof -> advance st
  | _ ->
    fail (position st) "expected %s, found %s"
      (Token.kind_to_string expected)
      (Token.kind_to_string st.lookahead)

let expect_ident st =
  match st.lookahead with
  | Ident s ->
    advance st;
    s
  | (Equal | Lparen | Rparen | Comma | Eof) as kind ->
    fail (position st) "expected an identifier, found %s" (Token.kind_to_string kind)

(* [s] is [keyword] up to ASCII case (keywords are upper case). *)
let rec same_from s keyword i =
  i = String.length s
  || (Char.uppercase_ascii (String.unsafe_get s i) = String.unsafe_get keyword i
     && same_from s keyword (i + 1))

let is_keyword s keyword = String.length s = String.length keyword && same_from s keyword 0

let parse_paren_ident st =
  expect st Token.Lparen;
  let s = expect_ident st in
  expect st Token.Rparen;
  s

let rec parse_ident_list st =
  let s = expect_ident st in
  match st.lookahead with
  | Comma ->
    advance st;
    s :: parse_ident_list st
  | Ident _ | Equal | Lparen | Rparen | Eof -> [ s ]

let parse_assignment st sink ~output =
  expect st Token.Equal;
  let line = Lexer.token_line st.lexer and column = Lexer.token_column st.lexer in
  let func = expect_ident st in
  expect st Token.Lparen;
  let fanins = parse_ident_list st in
  expect st Token.Rparen;
  if is_keyword func "DFF" then
    match fanins with
    | [ d ] -> sink.dff output d
    | _ :: _ :: _ | [] ->
      fail { Token.line; column } "DFF takes exactly one input, got %d" (List.length fanins)
  else
    match Netlist.Gate.of_string func with
    | Some kind -> sink.gate output kind fanins
    | None -> fail { Token.line; column } "unknown gate kind %S" func

let parse_statement st sink =
  match st.lookahead with
  | Ident s -> (
    let line = Lexer.token_line st.lexer and column = Lexer.token_column st.lexer in
    advance st;
    (* INPUT/OUTPUT are only keywords when followed by '('; a signal that
       happens to be named "input" can still appear on the left of '='. *)
    match st.lookahead with
    | Lparen when is_keyword s "INPUT" -> sink.input (parse_paren_ident st)
    | Lparen when is_keyword s "OUTPUT" -> sink.output (parse_paren_ident st)
    | Equal -> parse_assignment st sink ~output:s
    | Ident _ | Lparen | Rparen | Comma | Eof ->
      fail { Token.line; column } "expected '=' after signal %S (or INPUT(..)/OUTPUT(..))" s)
  | (Equal | Lparen | Rparen | Comma) as kind ->
    fail (position st) "expected a statement, found %s" (Token.kind_to_string kind)
  | Eof -> assert false

let rec parse_statements st sink =
  match st.lookahead with
  | Eof -> ()
  | Ident _ | Equal | Lparen | Rparen | Comma ->
    parse_statement st sink;
    parse_statements st sink

let parse_ast ?(name = "bench") source =
  let st = of_string source in
  let statements = ref [] in
  let push s = statements := s :: !statements in
  parse_statements st
    {
      input = (fun s -> push (Ast.Input s));
      output = (fun s -> push (Ast.Output s));
      dff = (fun q d -> push (Ast.Dff { q; d }));
      gate = (fun output kind fanins -> push (Ast.Gate { output; kind; fanins }));
    };
  { Ast.name; statements = List.rev !statements }

let discard = { input = ignore; output = ignore; dff = (fun _ _ -> ()); gate = (fun _ _ _ -> ()) }

let parse_string ?(name = "bench") source =
  let st = of_string source in
  let b = Netlist.Builder.create ~name () in
  let sink =
    {
      input = Netlist.Builder.add_input b;
      output = Netlist.Builder.add_output b;
      dff = (fun q d -> Netlist.Builder.add_dff b ~q ~d);
      gate = (fun output kind fanins -> Netlist.Builder.add_gate b ~output ~kind fanins);
    }
  in
  match parse_statements st sink with
  | () -> Netlist.Builder.freeze b
  | exception (Netlist.Builder.Error _ as netlist_error) ->
    parse_statements st discard;
    raise netlist_error

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let basename_without_extension path =
  let base = Filename.basename path in
  match Filename.chop_suffix_opt ~suffix:".bench" base with
  | Some stem -> stem
  | None -> Filename.remove_extension base

let parse_file path =
  let name = basename_without_extension path in
  parse_string ~name (read_file path)
