(* Tests for the .bench lexer, parser and printer: token positions, all
   statement forms, error reporting, and round-trip guarantees. *)

open Helpers

(* --- lexer ----------------------------------------------------------------- *)

let kinds source = List.map (fun t -> t.Bench_format.Token.kind) (Bench_format.Lexer.all_tokens source)

let test_lexer_simple () =
  match kinds "y = AND(a, b)" with
  | [ Ident "y"; Equal; Ident "AND"; Lparen; Ident "a"; Comma; Ident "b"; Rparen; Eof ] -> ()
  | _ -> Alcotest.fail "unexpected token stream"

let test_lexer_comments_and_blanks () =
  match kinds "# a comment\n  \t x # trailing\n(" with
  | [ Ident "x"; Lparen; Eof ] -> ()
  | _ -> Alcotest.fail "comments not skipped"

let test_lexer_positions () =
  let toks = Bench_format.Lexer.all_tokens "ab\n  cd" in
  match toks with
  | [ { kind = Ident "ab"; pos = p1 }; { kind = Ident "cd"; pos = p2 }; _eof ] ->
    check_int "line 1" 1 p1.Bench_format.Token.line;
    check_int "col 1" 1 p1.Bench_format.Token.column;
    check_int "line 2" 2 p2.Bench_format.Token.line;
    check_int "col 3" 3 p2.Bench_format.Token.column
  | _ -> Alcotest.fail "unexpected tokens"

let test_lexer_identifier_charset () =
  (* ISCAS names can contain digits, dots, brackets, dashes. *)
  match kinds "n_1.x[3]-q" with
  | [ Ident "n_1.x[3]-q"; Eof ] -> ()
  | _ -> Alcotest.fail "identifier split incorrectly"

let test_lexer_empty () =
  match kinds "" with
  | [ Eof ] -> ()
  | _ -> Alcotest.fail "empty input should give Eof only"

(* --- parser ---------------------------------------------------------------- *)

let parse = Bench_format.Parser.parse_ast ~name:"test"

let test_parse_statements () =
  let ast = parse "INPUT(a)\nOUTPUT(y)\nq = DFF(d)\ny = NAND(a, q)\nd = NOT(a)" in
  match ast.Bench_format.Ast.statements with
  | [ Input "a"; Output "y"; Dff { q = "q"; d = "d" };
      Gate { output = "y"; kind = Netlist.Gate.Nand; fanins = [ "a"; "q" ] };
      Gate { output = "d"; kind = Netlist.Gate.Not; fanins = [ "a" ] } ] -> ()
  | _ -> Alcotest.fail "unexpected AST"

let test_parse_case_insensitive_keywords () =
  let ast = parse "input(a)\noutput(a)" in
  check_int "two statements" 2 (List.length ast.Bench_format.Ast.statements)

let test_parse_gate_aliases () =
  let ast = parse "INPUT(a)\ny = INVERT(a)\nz = BUFF(y)" in
  match ast.Bench_format.Ast.statements with
  | [ _; Gate { kind = Netlist.Gate.Not; _ }; Gate { kind = Netlist.Gate.Buf; _ } ] -> ()
  | _ -> Alcotest.fail "aliases not resolved"

let expect_parse_error ?check_pos source =
  match parse source with
  | _ -> Alcotest.fail "expected parse error"
  | exception Bench_format.Parser.Error { pos; _ } -> (
    match check_pos with
    | None -> ()
    | Some (line, column) ->
      check_int "error line" line pos.Bench_format.Token.line;
      check_int "error column" column pos.Bench_format.Token.column)

let test_parse_error_unknown_gate () = expect_parse_error "INPUT(a)\ny = FROB(a)" ~check_pos:(2, 5)

let test_parse_error_dff_arity () = expect_parse_error "q = DFF(a, b)"

let test_parse_error_missing_paren () = expect_parse_error "INPUT a"

let test_parse_error_dangling_equal () = expect_parse_error "y ="

let test_parse_error_stray_punct () = expect_parse_error "(x)"

let test_parse_empty_is_empty_circuit () =
  let ast = parse "" in
  check_int "no statements" 0 (List.length ast.Bench_format.Ast.statements)

let test_parse_builds_circuit () =
  let c =
    Bench_format.Parser.parse_string ~name:"t"
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)"
  in
  check_int "gates" 1 (Netlist.Circuit.gate_count c);
  check_string "name" "t" (Netlist.Circuit.name c)

let test_parse_semantic_error_surfaces () =
  Alcotest.check_raises "undefined signal"
    (Netlist.Builder.Error
       (Netlist.Builder.Undefined_signal { referenced_by = "y"; missing = "ghost" }))
    (fun () ->
      ignore (Bench_format.Parser.parse_string "INPUT(a)\nOUTPUT(y)\ny = NOT(ghost)"))

(* --- printer and round-trips ----------------------------------------------- *)

let test_print_statement_forms () =
  let open Bench_format.Ast in
  check_string "input" "INPUT(a)" (Bench_format.Printer.statement_to_string (Input "a"));
  check_string "dff" "q = DFF(d)"
    (Bench_format.Printer.statement_to_string (Dff { q = "q"; d = "d" }));
  check_string "gate" "y = NAND(a, b)"
    (Bench_format.Printer.statement_to_string
       (Gate { output = "y"; kind = Netlist.Gate.Nand; fanins = [ "a"; "b" ] }))

let test_ast_roundtrip_exact () =
  let source = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nq = DFF(y)\ny = XNOR(a, b)\n" in
  let ast = parse source in
  let printed = Bench_format.Printer.ast_to_string ast in
  let ast2 = parse printed in
  check_bool "statements identical" true
    (ast.Bench_format.Ast.statements = ast2.Bench_format.Ast.statements)

let circuit_equal_by_behaviour c1 c2 =
  (* Same-named inputs get the same random words; outputs must agree. *)
  let cs1 = Logic_sim.Sim.compile c1 and cs2 = Logic_sim.Sim.compile c2 in
  let rng = Rng.create ~seed:99 in
  let draws = Hashtbl.create 16 in
  let assign c v =
    let name = Netlist.Circuit.node_name c v in
    match Hashtbl.find_opt draws name with
    | Some w -> w
    | None ->
      let w = Rng.word rng in
      Hashtbl.replace draws name w;
      w
  in
  let v1 = Logic_sim.Sim.eval_words cs1 ~assign:(assign c1) in
  let v2 = Logic_sim.Sim.eval_words cs2 ~assign:(assign c2) in
  List.for_all2
    (fun o1 o2 -> v1.(o1) = v2.(o2))
    (Netlist.Circuit.outputs c1) (Netlist.Circuit.outputs c2)

let test_circuit_roundtrip_s27 () =
  let c = Circuit_gen.Embedded.s27 () in
  let c2 =
    Bench_format.Parser.parse_string ~name:"s27" (Bench_format.Printer.circuit_to_string c)
  in
  check_int "nodes" (Netlist.Circuit.node_count c) (Netlist.Circuit.node_count c2);
  check_int "gates" (Netlist.Circuit.gate_count c) (Netlist.Circuit.gate_count c2);
  check_int "ffs" (Netlist.Circuit.ff_count c) (Netlist.Circuit.ff_count c2);
  check_bool "same behaviour" true (circuit_equal_by_behaviour c c2)

let prop_circuit_roundtrip_random =
  qtest ~count:30 ~name:"print/parse round-trip preserves generated circuits" seed_arbitrary
    (fun seed ->
      let c = random_small_dag ~seed in
      let printed = Bench_format.Printer.circuit_to_string c in
      let c2 = Bench_format.Parser.parse_string ~name:(Netlist.Circuit.name c) printed in
      Netlist.Circuit.node_count c = Netlist.Circuit.node_count c2
      && Netlist.Circuit.gate_count c = Netlist.Circuit.gate_count c2
      && circuit_equal_by_behaviour c c2)

let prop_printed_ast_reparses_exactly =
  qtest ~count:30 ~name:"ast_to_string/parse_ast is the identity" seed_arbitrary (fun seed ->
      let c = random_small_dag ~seed in
      let ast = Bench_format.Printer.ast_of_circuit c in
      let ast2 = parse (Bench_format.Printer.ast_to_string ast) in
      ast.Bench_format.Ast.statements = ast2.Bench_format.Ast.statements)

let test_file_io () =
  let c = Circuit_gen.Embedded.c17 () in
  let path = Filename.temp_file "serprop" ".bench" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Bench_format.Printer.write_file path c;
      let c2 = Bench_format.Parser.parse_file path in
      check_string "name from basename"
        (Filename.remove_extension (Filename.basename path))
        (Netlist.Circuit.name c2);
      check_bool "same behaviour" true (circuit_equal_by_behaviour c c2))

let test_parse_file_missing () =
  match Bench_format.Parser.parse_file "/nonexistent/nope.bench" with
  | _ -> Alcotest.fail "expected Sys_error"
  | exception Sys_error _ -> ()

(* --- token positions against the scanner the lexer replaced ----------------- *)

(* The character-by-character lexer the index-based one replaced, written
   out: it counts lines and columns as it advances over every character.
   Positions must not move. *)
module Reference_lexer = struct
  open Bench_format

  type t = { source : string; mutable offset : int; mutable line : int; mutable column : int }

  let peek lx = if lx.offset >= String.length lx.source then None else Some lx.source.[lx.offset]

  let advance lx =
    (match peek lx with
    | Some '\n' ->
      lx.line <- lx.line + 1;
      lx.column <- 1
    | Some _ -> lx.column <- lx.column + 1
    | None -> ());
    lx.offset <- lx.offset + 1

  let is_space = function ' ' | '\t' | '\r' | '\n' -> true | _ -> false
  let is_punct = function '=' | '(' | ')' | ',' | '#' -> true | _ -> false

  let rec skip_blanks lx =
    match peek lx with
    | Some c when is_space c ->
      advance lx;
      skip_blanks lx
    | Some '#' ->
      while match peek lx with Some '\n' | None -> false | Some _ -> true do
        advance lx
      done;
      skip_blanks lx
    | Some _ | None -> ()

  let next lx =
    skip_blanks lx;
    let pos = { Token.line = lx.line; column = lx.column } in
    let punct kind =
      advance lx;
      { Token.kind; pos }
    in
    match peek lx with
    | None -> { Token.kind = Eof; pos }
    | Some '=' -> punct Equal
    | Some '(' -> punct Lparen
    | Some ')' -> punct Rparen
    | Some ',' -> punct Comma
    | Some _ ->
      let start = lx.offset in
      while
        match peek lx with Some c -> (not (is_space c)) && not (is_punct c) | None -> false
      do
        advance lx
      done;
      { Token.kind = Ident (String.sub lx.source start (lx.offset - start)); pos }

  let all_tokens source =
    let lx = { source; offset = 0; line = 1; column = 1 } in
    let rec loop acc =
      let tok = next lx in
      match tok.Token.kind with
      | Eof -> List.rev (tok :: acc)
      | Ident _ | Equal | Lparen | Rparen | Comma -> loop (tok :: acc)
    in
    loop []
end

let same_tokens source = Bench_format.Lexer.all_tokens source = Reference_lexer.all_tokens source

let test_lexer_positions_reference () =
  List.iter
    (fun source -> check_bool (String.escaped source) true (same_tokens source))
    [
      "ab\n  cd";
      "y = AND(a, b)";
      "# a comment\n  \t x # trailing\n(";
      "INPUT(a)\r\nOUTPUT(y)\r\ny = NOT(a)\r\n";
      "# header only\n\n   # indented comment\nINPUT(a) # trailing\n#last";
      "#\n#\n\n";
      "\r\r\nx\r";
    ]

let test_lexer_crlf_and_comment_lines () =
  let positions source =
    List.map
      (fun t -> (t.Bench_format.Token.pos.line, t.Bench_format.Token.pos.column))
      (Bench_format.Lexer.all_tokens source)
  in
  (* CRLF: the '\r' is a column of its line, the '\n' starts the next. *)
  Alcotest.(check (list (pair int int)))
    "CRLF"
    [ (1, 1); (1, 6); (1, 7); (1, 8); (2, 1); (2, 3); (2, 5); (2, 8); (2, 9); (2, 10); (3, 1) ]
    (positions "INPUT(a)\r\ny = NOT(a)\r\n");
  (* Comment-only and blank lines still count. *)
  Alcotest.(check (list (pair int int)))
    "comment lines" [ (4, 1); (4, 6); (4, 7); (4, 8); (5, 6) ]
    (positions "# header only\n\n   # indented\nINPUT(a) # trailing\n#last")

let lexer_chars = " \t\r\n#=(),abZ19._[]-"

let prop_lexer_positions_random =
  qtest ~count:300 ~name:"positions match the per-character reference" seed_arbitrary (fun seed ->
      let st = Random.State.make [| seed |] in
      let source =
        String.init (Random.State.int st 120) (fun _ ->
            lexer_chars.[Random.State.int st (String.length lexer_chars)])
      in
      same_tokens source)

(* --- printed bytes ------------------------------------------------------------ *)

(* What the printer wrote when it rendered each statement with [Fmt.str]:
   [Ast.pp_statement] stays the reference for every byte. *)
let reference_ast_to_string (ast : Bench_format.Ast.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("# " ^ ast.name ^ "\n");
  List.iter
    (fun stmt ->
      Buffer.add_string buf (Fmt.str "%a" Bench_format.Ast.pp_statement stmt);
      Buffer.add_char buf '\n')
    ast.statements;
  Buffer.contents buf

let name_chars = "abcXYZ019_.[]-#\"\\ \n"

let random_name st =
  String.init (1 + Random.State.int st 8) (fun _ ->
      name_chars.[Random.State.int st (String.length name_chars)])

let random_statement st =
  let open Bench_format.Ast in
  match Random.State.int st 4 with
  | 0 -> Input (random_name st)
  | 1 -> Output (random_name st)
  | 2 -> Dff { q = random_name st; d = random_name st }
  | _ ->
    let kind = List.nth Netlist.Gate.all (Random.State.int st (List.length Netlist.Gate.all)) in
    let arity =
      if Netlist.Gate.is_constant kind then 0
      else if Netlist.Gate.is_unary kind then 1
      else 1 + Random.State.int st 4
    in
    Gate { output = random_name st; kind; fanins = List.init arity (fun _ -> random_name st) }

(* Zero-fanin constants, a one-input AND and a DFF, whatever the seed. *)
let fixed_statements =
  let open Bench_format.Ast in
  [
    Gate { output = "zero"; kind = Netlist.Gate.Const0; fanins = [] };
    Gate { output = "one"; kind = Netlist.Gate.Const1; fanins = [] };
    Gate { output = "buf"; kind = Netlist.Gate.And; fanins = [ "a" ] };
    Dff { q = "q"; d = "d" };
  ]

let prop_ast_to_string_reference =
  qtest ~count:200 ~name:"ast_to_string = pp_statement rendering" seed_arbitrary (fun seed ->
      let st = Random.State.make [| seed |] in
      let statements = List.init (Random.State.int st 12) (fun _ -> random_statement st) in
      let ast = { Bench_format.Ast.name = random_name st; statements = fixed_statements @ statements } in
      Bench_format.Printer.ast_to_string ast = reference_ast_to_string ast
      && List.for_all
           (fun stmt ->
             Bench_format.Printer.statement_to_string stmt
             = Fmt.str "%a" Bench_format.Ast.pp_statement stmt)
           ast.statements)

(* MD5 of [Printer.circuit_to_string], recorded while the printer still
   formatted each statement with Fmt and the generators built through the
   three-table builder: every printed byte must stay. *)
let printed_pins =
  [
    ("s27", (fun () -> Circuit_gen.Embedded.s27 ()), "65802b522d3d27348b022c33bc2ad98e");
    ("c17", (fun () -> Circuit_gen.Embedded.c17 ()), "8221905695d7eb453640d5dd53aba8de");
    ("add8", (fun () -> Circuit_gen.Structured.ripple_adder ~width:8 ()), "581988ea46b7952dbce28f1cb5695286");
    ("mul4", (fun () -> Circuit_gen.Structured.array_multiplier ~width:4 ()), "a715f08ee7a069a4ba8510d195eb9a7b");
    ("parity16", (fun () -> Circuit_gen.Structured.parity_tree ~width:16 ()), "42d2a384d633c94a13e38563c4d7595a");
    ("mux4", (fun () -> Circuit_gen.Structured.mux_tree ~select_bits:4 ()), "c9eb147797b5f315182e103eb82a31a4");
    ("acc8", (fun () -> Circuit_gen.Structured.alu_accumulator ~width:8 ()), "6e952071137ca97d324eb8a624aa5f13");
    ("parity65536", (fun () -> Circuit_gen.Structured.parity_tree ~width:65536 ()), "03f5c1b8397de37bc4472f0c46e3e60b");
    ("mux14", (fun () -> Circuit_gen.Structured.mux_tree ~select_bits:14 ()), "ca0651476cd96c261c2e1a3ab169a665");
    ( "s13207:1",
      (fun () -> Circuit_gen.Random_dag.generate ~seed:1 Circuit_gen.Profiles.s13207),
      "6f9e6b780c875b469c40571a26957778" );
  ]

let test_printed_bytes_pinned () =
  List.iter
    (fun (label, make, md5) ->
      check_string label md5
        (Digest.to_hex (Digest.string (Bench_format.Printer.circuit_to_string (make ())))))
    printed_pins

(* --- elaboration ---------------------------------------------------------------- *)

(* The elaboration before one-pass construction, written out: a definition
   table by name, the definition order, a second name -> id table built at
   freeze, fanins and OUTPUTs resolved through it, and the cycle check.
   Gives the expected node arrays, or the error it would raise. *)
module Reference_elaboration = struct
  open Netlist

  type definition = Def_input | Def_ff of string | Def_gate of Gate.kind * string list

  exception Rejected of Builder.error

  type parts = {
    names : string array;
    nodes : Circuit.node array;
    inputs : int list;
    outputs : int list;
    ffs : int list;
  }

  let run (statements : Bench_format.Ast.statement list) =
    let defs = Hashtbl.create 16 and order = ref [] and outputs = ref [] in
    let define name def =
      if Hashtbl.mem defs name then raise (Rejected (Builder.Duplicate_definition name));
      Hashtbl.replace defs name def;
      order := name :: !order
    in
    let statement = function
      | Bench_format.Ast.Input s -> define s Def_input
      | Output s ->
        if List.mem s !outputs then raise (Rejected (Builder.Duplicate_output s));
        outputs := s :: !outputs
      | Dff { q; d } -> define q (Def_ff d)
      | Gate { output; kind; fanins } ->
        let got = List.length fanins in
        if not (Gate.arity_ok kind got) then
          raise (Rejected (Builder.Arity { gate = output; kind; got }));
        define output (Def_gate (kind, fanins))
    in
    let freeze () =
      let names = Array.of_list (List.rev !order) in
      let id_of = Hashtbl.create 16 in
      Array.iteri (fun v s -> Hashtbl.replace id_of s v) names;
      let resolve ~referenced_by s =
        match Hashtbl.find_opt id_of s with
        | Some v -> v
        | None -> raise (Rejected (Builder.Undefined_signal { referenced_by; missing = s }))
      in
      let nodes =
        Array.map
          (fun s ->
            match Hashtbl.find defs s with
            | Def_input -> Circuit.Input
            | Def_ff d -> Circuit.Ff { data = resolve ~referenced_by:s d }
            | Def_gate (kind, fanins) ->
              Circuit.Gate
                { kind; fanins = Array.of_list (List.map (resolve ~referenced_by:s) fanins) })
          names
      in
      let select keep = List.filter (fun v -> keep nodes.(v)) (List.init (Array.length nodes) Fun.id) in
      let inputs = select (function Circuit.Input -> true | Circuit.Ff _ | Circuit.Gate _ -> false) in
      let ffs = select (function Circuit.Ff _ -> true | Circuit.Input | Circuit.Gate _ -> false) in
      let outputs = List.map (resolve ~referenced_by:"OUTPUT declaration") (List.rev !outputs) in
      let c =
        Circuit.make ~name:"reference" ~nodes ~names ~inputs:(Array.of_list inputs)
          ~outputs:(Array.of_list outputs) ~ffs:(Array.of_list ffs)
      in
      match Topo.sort_array (Circuit.graph c) with
      | _ -> { names; nodes; inputs; outputs; ffs }
      | exception Topo.Cycle _ ->
        raise
          (Rejected
             (Builder.Combinational_cycle
                (List.map (List.map (fun v -> names.(v))) (Scc.nontrivial (Circuit.graph c)))))
    in
    match
      List.iter statement statements;
      freeze ()
    with
    | parts -> Ok parts
    | exception Rejected e -> Error e
end

(* Node for node: ids, names, kinds, fanin arrays, the interface, and
   [find_opt] on every name. *)
let same_as_reference (r : Reference_elaboration.parts) c =
  let open Netlist in
  Circuit.node_count c = Array.length r.nodes
  && Array.for_all Fun.id
       (Array.mapi
          (fun v node ->
            Circuit.node c v = node
            && Circuit.node_name c v = r.names.(v)
            && Circuit.find_opt c r.names.(v) = Some v)
          r.nodes)
  && Circuit.inputs c = r.inputs
  && Circuit.outputs c = r.outputs
  && Circuit.ffs c = r.ffs
  && Circuit.find_opt c "no such signal" = None

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* A random sequential DAG printed with its statements shuffled, so
   OUTPUTs, DFF data nets and fanins come before their definitions.  One
   case in three carries a fault: a statement dropped or repeated, a
   fanin renamed to an undefined net, or a fanin rewired to another gate's
   output (which may close a loop). *)
let shuffled_statements ~seed =
  let open Bench_format.Ast in
  let st = Random.State.make [| seed |] in
  let profile =
    Circuit_gen.Profiles.make ~name:"shuffle"
      ~inputs:(2 + Random.State.int st 4)
      ~outputs:(1 + Random.State.int st 3)
      ~ffs:(Random.State.int st 4)
      ~gates:(5 + Random.State.int st 25)
  in
  let c = Circuit_gen.Random_dag.generate ~seed profile in
  let statements = Array.of_list (Bench_format.Printer.ast_of_circuit c).statements in
  shuffle st statements;
  let n = Array.length statements in
  let pick () = Random.State.int st n in
  let gates () =
    List.filter_map
      (function Gate { output; _ } -> Some output | Input _ | Output _ | Dff _ -> None)
      (Array.to_list statements)
  in
  let rewire_one target =
    let i = pick () in
    match statements.(i) with
    | Gate ({ fanins = _ :: rest; _ } as g) -> statements.(i) <- Gate { g with fanins = target :: rest }
    | Gate _ | Input _ | Output _ | Dff _ -> ()
  in
  let listed = Array.to_list statements in
  match Random.State.int st 12 with
  | 0 -> List.filteri (fun i _ -> i <> pick ()) listed
  | 1 ->
    let i = pick () and j = pick () in
    List.concat (List.mapi (fun k s -> if k = j then [ s; statements.(i) ] else [ s ]) listed)
  | 2 ->
    rewire_one "ghost";
    Array.to_list statements
  | 3 -> (
    match gates () with
    | [] -> listed
    | gs ->
      rewire_one (List.nth gs (Random.State.int st (List.length gs)));
      Array.to_list statements)
  | _ -> listed

let prop_elaboration_matches_reference =
  qtest ~count:300 ~name:"shuffled .bench = reference elaboration" seed_arbitrary (fun seed ->
      let statements = shuffled_statements ~seed in
      let text = Bench_format.Printer.ast_to_string { Bench_format.Ast.name = "shuffle"; statements } in
      (* the text reparses to the same statements, so both sides see one input *)
      let statements = (Bench_format.Parser.parse_ast text).Bench_format.Ast.statements in
      let expected = Reference_elaboration.run statements in
      match Bench_format.Parser.parse_string ~name:"shuffle" text with
      | c -> ( match expected with Ok parts -> same_as_reference parts c | Error _ -> false)
      | exception Netlist.Builder.Error e -> expected = Error e)

(* Structure digests (ids, kinds, fanins, names, interface) recorded before
   one-pass construction. *)
let structure_digest c =
  let open Netlist in
  let b = Buffer.create 4096 in
  let add_int i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b ','
  in
  Buffer.add_string b (Circuit.name c);
  Buffer.add_char b '\n';
  for v = 0 to Circuit.node_count c - 1 do
    (match Circuit.node c v with
    | Circuit.Input -> Buffer.add_char b 'i'
    | Circuit.Ff { data } ->
      Buffer.add_char b 'f';
      add_int data
    | Circuit.Gate { kind; fanins } ->
      Buffer.add_string b (Gate.to_string kind);
      Buffer.add_char b ':';
      Array.iter add_int fanins);
    Buffer.add_char b ' ';
    Buffer.add_string b (String.escaped (Circuit.node_name c v));
    Buffer.add_char b '\n'
  done;
  List.iter add_int (Circuit.inputs c);
  Buffer.add_char b '|';
  List.iter add_int (Circuit.outputs c);
  Buffer.add_char b '|';
  List.iter add_int (Circuit.ffs c);
  Digest.to_hex (Digest.string (Buffer.contents b))

let structure_pins =
  let s27 = Circuit_gen.Embedded.s27 in
  [
    ("s27", s27, "a30818b1aabe21f7703dd895280d221e");
    ("c17", Circuit_gen.Embedded.c17, "ab6638e6f87f0af62fd87daed361a76c");
    ("add8", (fun () -> Circuit_gen.Structured.ripple_adder ~width:8 ()), "62e9cd2ffa2fc0ffd5d597e0beb1b918");
    ("mul4", (fun () -> Circuit_gen.Structured.array_multiplier ~width:4 ()), "1d469788b04fda41dfef4069d693a08d");
    ("parity16", (fun () -> Circuit_gen.Structured.parity_tree ~width:16 ()), "b1fa5e755625486c5d7f2c4d4565370d");
    ("mux4", (fun () -> Circuit_gen.Structured.mux_tree ~select_bits:4 ()), "46d762529bd0e8b65b69aed9db867df1");
    ("acc8", (fun () -> Circuit_gen.Structured.alu_accumulator ~width:8 ()), "8c813979378d47f07e2dcf1423b479d6");
    ("parity65536", (fun () -> Circuit_gen.Structured.parity_tree ~width:65536 ()), "3b7ff3e88928294eef7e8317d533994f");
    ("mux14", (fun () -> Circuit_gen.Structured.mux_tree ~select_bits:14 ()), "a5a5fe1804237857e2aa4b8dd2910d01");
    ( "s13207:1",
      (fun () -> Circuit_gen.Random_dag.generate ~seed:1 Circuit_gen.Profiles.s13207),
      "69bee20e70d9bda0d2b1660a7822b4ba" );
    ( "s1196:3",
      (fun () -> Circuit_gen.Random_dag.generate ~seed:3 Circuit_gen.Profiles.s1196),
      "e4f1c87e8f974a265029432e41f2b207" );
    ( "optimize mul4",
      (fun () -> Netlist.Transform.optimize (Circuit_gen.Structured.array_multiplier ~width:4 ())),
      "424b3da834dbbf1be2f03ffeab52bbc1" );
    ( "triplicate s27",
      (fun () -> Netlist.Transform.triplicate (s27 ()) ~nodes:[ 10; 12; 14 ]),
      "edb82c8a38da01a0d01538243a72f51b" );
    ( "parse s27 text",
      (fun () ->
        Bench_format.Parser.parse_string ~name:"s27" (Bench_format.Printer.circuit_to_string (s27 ()))),
      "a30818b1aabe21f7703dd895280d221e" );
  ]

let test_generators_pinned () =
  List.iter
    (fun (label, make, md5) ->
      let c = make () in
      check_string label md5 (structure_digest c);
      for v = 0 to Netlist.Circuit.node_count c - 1 do
        if Netlist.Circuit.find_opt c (Netlist.Circuit.node_name c v) <> Some v then
          Alcotest.failf "%s: find_opt %S" label (Netlist.Circuit.node_name c v)
      done)
    structure_pins

(* --- errors and their precedence ---------------------------------------------- *)

let netlist_error source =
  match Bench_format.Parser.parse_string ~name:"t" source with
  | _ -> Alcotest.failf "expected a netlist error on %S" source
  | exception Netlist.Builder.Error e -> e

let check_error label expected source =
  check_string label (Netlist.Builder.error_to_string expected)
    (Netlist.Builder.error_to_string (netlist_error source));
  (* and the elaboration it replaced agreed *)
  match Reference_elaboration.run (parse source).Bench_format.Ast.statements with
  | Error e -> check_bool (label ^ " (reference)") true (e = expected)
  | Ok _ -> Alcotest.failf "%s: the reference accepts it" label

let test_syntax_error_beats_netlist_error () =
  (* the duplicate definition on line 2 is seen first, the syntax error
     on line 4 still wins *)
  List.iter
    (fun (source, line) ->
      match Bench_format.Parser.parse_string source with
      | _ -> Alcotest.fail "expected a parse error"
      | exception Bench_format.Parser.Error { pos; _ } ->
        check_int "error line" line pos.Bench_format.Token.line)
    [
      ("INPUT(a)\nINPUT(a)\nOUTPUT(y)\ny = NOT(a", 4);
      ("INPUT(a)\ny = NOT(a, a)\nOUTPUT(y)\nOUTPUT(y)\n)", 5);
      ("OUTPUT(y)\nOUTPUT(y)\nz = FROB(a)", 3);
    ]

let test_first_undefined_in_definition_order () =
  let undefined referenced_by missing = Netlist.Builder.Undefined_signal { referenced_by; missing } in
  check_error "definition order" (undefined "q" "ghost_d")
    "OUTPUT(ghost_out)\nq = DFF(ghost_d)\ny = AND(a, ghost_y)\nINPUT(a)";
  check_error "a gate before an earlier OUTPUT" (undefined "y" "ghost_y")
    "OUTPUT(ghost_out)\nINPUT(a)\ny = AND(a, ghost_y)";
  check_error "fanins in order" (undefined "y" "ghost1") "INPUT(a)\ny = AND(a, ghost1, ghost2)";
  check_error "then OUTPUTs in order" (undefined "OUTPUT declaration" "ghost1")
    "OUTPUT(ghost1)\nINPUT(a)\nOUTPUT(ghost2)"

let test_netlist_errors_as_before () =
  let open Netlist.Builder in
  check_error "duplicate output" (Duplicate_output "a") "INPUT(a)\nOUTPUT(a)\nOUTPUT(a)";
  check_error "arity" (Arity { gate = "y"; kind = Netlist.Gate.Not; got = 2 }) "INPUT(a)\ny = NOT(a, a)";
  check_error "constant arity" (Arity { gate = "k"; kind = Netlist.Gate.Const1; got = 1 })
    "INPUT(a)\nk = VDD(a)";
  check_error "duplicate definition" (Duplicate_definition "a") "INPUT(a)\na = NOT(a)";
  (* a statement's rejection comes before any unresolved reference *)
  check_error "rejection first" (Duplicate_definition "a")
    "OUTPUT(y)\ny = NOT(ghost)\nINPUT(a)\nINPUT(a)";
  let cyclic = "INPUT(a)\np = AND(a, q)\nq = AND(a, p)\nr = NOT(r)\nOUTPUT(q)\nOUTPUT(r)" in
  match netlist_error cyclic with
  | Combinational_cycle loops ->
    check_int "two loops" 2 (List.length loops);
    check_error "cycles" (Combinational_cycle loops) cyclic
  | e -> Alcotest.failf "expected a cycle, got %s" (error_to_string e)

let test_rejected_statement_leaves_no_name () =
  let open Netlist in
  let b = Builder.create () in
  Builder.add_input b "a";
  Builder.add_gate b ~output:"y" ~kind:Gate.Not [ "a" ];
  let rejected f =
    match f () with
    | () -> Alcotest.fail "expected a rejection"
    | exception Builder.Error _ -> ()
  in
  rejected (fun () -> Builder.add_gate b ~output:"a" ~kind:Gate.And [ "phantom1" ]);
  rejected (fun () -> Builder.add_gate b ~output:"z" ~kind:Gate.Not [ "a"; "phantom2" ]);
  rejected (fun () -> Builder.add_dff b ~q:"y" ~d:"phantom3");
  rejected (fun () -> Builder.add_input b "y");
  Builder.add_output b "y";
  rejected (fun () -> Builder.add_output b "y");
  check_bool "z never defined" false (Builder.is_defined b "z");
  let c = Builder.freeze b in
  check_int "two nodes" 2 (Circuit.node_count c);
  List.iter
    (fun name -> check_bool name true (Circuit.find_opt c name = None))
    [ "phantom1"; "phantom2"; "phantom3"; "z" ];
  check_bool "y indexed" true (Circuit.find_opt c "y" = Some 1);
  (* freeze consumed the builder *)
  match Builder.add_input b "late" with
  | () -> Alcotest.fail "a frozen builder took a definition"
  | exception Invalid_argument _ -> ()

(* --- allocation ceilings ---------------------------------------------------------- *)

(* Bytes a warm call allocates ([Helpers.allocated_words]). *)
let allocated_bytes f = allocated_words f *. float (Sys.word_size / 8)

(* parity-16384, warm.  Before one-pass elaboration, parsing allocated 82
   bytes a source byte and printing 68 an output byte; now 29 and 8.8 (the
   printer builds the AST, then grows one buffer).  The ceilings leave
   about a quarter of headroom, so a statement list, a per-character
   option or a Format call brought back fails here. *)
let parse_ceiling = 36.0
let print_ceiling = 11.0

let test_allocation_ceilings () =
  let c = Circuit_gen.Structured.parity_tree ~width:16384 () in
  let text = Bench_format.Printer.circuit_to_string c in
  let per_byte bytes = bytes /. float (String.length text) in
  let parse = per_byte (allocated_bytes (fun () -> Bench_format.Parser.parse_string ~name:"p" text)) in
  let print = per_byte (allocated_bytes (fun () -> Bench_format.Printer.circuit_to_string c)) in
  check_bool (Printf.sprintf "parse allocates %.1f B/B <= %.1f" parse parse_ceiling) true
    (parse <= parse_ceiling);
  check_bool (Printf.sprintf "print allocates %.2f B/B <= %.2f" print print_ceiling) true
    (print <= print_ceiling)

(* Circuit.make on parity-16384 (32,767 edges), warm, and what a fresh
   circuit retains.  When a circuit kept successor and predecessor lists
   beside a CSR copy, construction allocated 36.0 words an edge (12.0 of
   them the name table) and the circuit retained 710,948 words; the packed
   graph is 4 words an edge (forward and reverse offsets and targets).  A
   list graph or a second copy of the adjacency brought back fails here. *)
let make_ceiling = 24.0
let retained_ceiling = 0.8 *. 710_948.0

let test_circuit_ceilings () =
  let open Netlist in
  let c = Circuit_gen.Structured.parity_tree ~width:16384 () in
  let n = Circuit.node_count c in
  let nodes = Array.init n (Circuit.node c) and names = Array.init n (Circuit.node_name c) in
  let inputs = Array.of_list (Circuit.inputs c) and outputs = Array.of_list (Circuit.outputs c) in
  let ffs = Array.of_list (Circuit.ffs c) in
  let words =
    allocated_bytes (fun () -> Circuit.make ~name:"p" ~nodes ~names ~inputs ~outputs ~ffs)
    /. float (Sys.word_size / 8)
  in
  let per_edge = words /. float (Array.length (Digraph.targets (Circuit.graph c))) in
  check_bool
    (Printf.sprintf "Circuit.make allocates %.1f words an edge <= %.1f" per_edge make_ceiling)
    true (per_edge <= make_ceiling);
  let retained = float (Obj.reachable_words (Obj.repr c)) in
  check_bool
    (Printf.sprintf "a circuit retains %.0f words <= %.0f" retained retained_ceiling)
    true (retained <= retained_ceiling)

let () =
  Alcotest.run "bench_format"
    [
      ( "lexer",
        [
          Alcotest.test_case "token stream" `Quick test_lexer_simple;
          Alcotest.test_case "comments and blanks" `Quick test_lexer_comments_and_blanks;
          Alcotest.test_case "positions" `Quick test_lexer_positions;
          Alcotest.test_case "identifier charset" `Quick test_lexer_identifier_charset;
          Alcotest.test_case "empty input" `Quick test_lexer_empty;
          Alcotest.test_case "positions as the per-character scan" `Quick
            test_lexer_positions_reference;
          Alcotest.test_case "CRLF and comment-only lines" `Quick test_lexer_crlf_and_comment_lines;
          prop_lexer_positions_random;
        ] );
      ( "parser",
        [
          Alcotest.test_case "all statement forms" `Quick test_parse_statements;
          Alcotest.test_case "case-insensitive keywords" `Quick
            test_parse_case_insensitive_keywords;
          Alcotest.test_case "gate aliases" `Quick test_parse_gate_aliases;
          Alcotest.test_case "unknown gate error + position" `Quick test_parse_error_unknown_gate;
          Alcotest.test_case "DFF arity error" `Quick test_parse_error_dff_arity;
          Alcotest.test_case "missing paren" `Quick test_parse_error_missing_paren;
          Alcotest.test_case "dangling equal" `Quick test_parse_error_dangling_equal;
          Alcotest.test_case "stray punctuation" `Quick test_parse_error_stray_punct;
          Alcotest.test_case "empty file" `Quick test_parse_empty_is_empty_circuit;
          Alcotest.test_case "builds a circuit" `Quick test_parse_builds_circuit;
          Alcotest.test_case "semantic errors surface" `Quick test_parse_semantic_error_surfaces;
        ] );
      ( "printer",
        [
          Alcotest.test_case "statement forms" `Quick test_print_statement_forms;
          Alcotest.test_case "ast round-trip" `Quick test_ast_roundtrip_exact;
          Alcotest.test_case "s27 circuit round-trip" `Quick test_circuit_roundtrip_s27;
          prop_circuit_roundtrip_random;
          prop_printed_ast_reparses_exactly;
          Alcotest.test_case "file IO" `Quick test_file_io;
          Alcotest.test_case "missing file" `Quick test_parse_file_missing;
          prop_ast_to_string_reference;
          Alcotest.test_case "printed bytes pinned" `Quick test_printed_bytes_pinned;
        ] );
      ( "netlist",
        [
          prop_elaboration_matches_reference;
          Alcotest.test_case "generators pinned" `Quick test_generators_pinned;
        ] );
      ( "errors",
        [
          Alcotest.test_case "syntax error beats netlist error" `Quick
            test_syntax_error_beats_netlist_error;
          Alcotest.test_case "first undefined in definition order" `Quick
            test_first_undefined_in_definition_order;
          Alcotest.test_case "netlist errors as before" `Quick test_netlist_errors_as_before;
          Alcotest.test_case "rejected statement leaves no name" `Quick
            test_rejected_statement_leaves_no_name;
        ] );
      ( "cost",
        [
          Alcotest.test_case "allocation ceilings" `Quick test_allocation_ceilings;
          Alcotest.test_case "circuit graph ceilings" `Quick test_circuit_ceilings;
        ] );
    ]
