(* Robustness fuzzing of the three netlist parsers: arbitrary and mutated
   inputs must either parse or raise one of the *documented* exceptions —
   never Stack_overflow, Out_of_memory surprises, Invalid_argument from
   String internals, assertion failures, or uncaught Not_found. *)

open Helpers

type outcome = Parsed | Rejected

let classify_bench source =
  match Bench_format.Parser.parse_string ~name:"fuzz" source with
  | _ -> Parsed
  | exception Bench_format.Parser.Error _ -> Rejected
  | exception Bench_format.Lexer.Error _ -> Rejected
  | exception Netlist.Builder.Error _ -> Rejected
  | exception Netlist.Gate.Arity_error _ -> Rejected

let classify_verilog source =
  match Verilog_format.Verilog_parser.parse_string source with
  | _ -> Parsed
  | exception Verilog_format.Verilog_parser.Error _ -> Rejected
  | exception Verilog_format.Verilog_lexer.Error _ -> Rejected
  | exception Verilog_format.Verilog_parser.Elaboration_error _ -> Rejected
  | exception Netlist.Builder.Error _ -> Rejected
  | exception Netlist.Gate.Arity_error _ -> Rejected

let classify_blif source =
  match Blif_format.Blif_parser.parse_string source with
  | _ -> Parsed
  | exception Blif_format.Blif_parser.Error _ -> Rejected
  | exception Blif_format.Blif_parser.Elaboration_error _ -> Rejected
  | exception Netlist.Builder.Error _ -> Rejected
  | exception Netlist.Gate.Arity_error _ -> Rejected

let alphabet =
  "abGn01 _().,=;#\\\n\t-*/.modelinputsoutputnames latch dff AND NAND XOR NOT end"

let random_garbage rng ~length =
  String.init length (fun _ -> alphabet.[Rng.int rng ~bound:(String.length alphabet)])

(* A valid source with random single-character mutations. *)
let mutated rng source ~mutations =
  let b = Bytes.of_string source in
  for _ = 1 to mutations do
    let i = Rng.int rng ~bound:(Bytes.length b) in
    Bytes.set b i alphabet.[Rng.int rng ~bound:(String.length alphabet)]
  done;
  Bytes.to_string b

let seed_sources () =
  let c = Circuit_gen.Embedded.s27 () in
  [ Bench_format.Printer.circuit_to_string c;
    Verilog_format.Verilog_printer.circuit_to_string c;
    Blif_format.Blif_printer.circuit_to_string c ]

let never_crashes name classify source =
  match classify source with
  | Parsed | Rejected -> true
  | exception e ->
    Printf.eprintf "%s crashed with %s on input:\n%s\n" name (Printexc.to_string e)
      (String.sub source 0 (min 200 (String.length source)));
    false

let prop_garbage name classify =
  qtest ~count:300 ~name:(name ^ " survives random garbage") seed_arbitrary (fun seed ->
      let rng = Rng.create ~seed in
      let source = random_garbage rng ~length:(Rng.int rng ~bound:400) in
      never_crashes name classify source)

let prop_mutations name classify pick =
  qtest ~count:300 ~name:(name ^ " survives mutated valid inputs") seed_arbitrary
    (fun seed ->
      let rng = Rng.create ~seed in
      let sources = seed_sources () in
      let base = List.nth sources (pick mod List.length sources) in
      let source = mutated rng base ~mutations:(1 + Rng.int rng ~bound:6) in
      never_crashes name classify source)

let test_empty_and_edge_inputs () =
  List.iter
    (fun source ->
      List.iter
        (fun (name, classify) ->
          match never_crashes name classify source with
          | true -> ()
          | false -> Alcotest.failf "%s crashed on edge input %S" name source)
        [ ("bench", classify_bench); ("verilog", classify_verilog); ("blif", classify_blif) ])
    [ ""; "\n"; "#"; "\\"; "("; ".";
      String.make 10_000 'a';
      String.concat "\n" (List.init 200 (fun _ -> ".inputs x"));
      "INPUT(" ^ String.make 5000 'x' ^ ")" ]

let test_deep_nesting_no_stack_overflow () =
  (* A very long gate chain must not blow the stack anywhere in the
     pipeline (parse, validate, topo sort, simulate). *)
  let buf = Buffer.create (1 lsl 20) in
  Buffer.add_string buf "INPUT(n0)\n";
  let depth = 30_000 in
  for i = 1 to depth do
    Buffer.add_string buf (Printf.sprintf "n%d = NOT(n%d)\n" i (i - 1))
  done;
  Buffer.add_string buf (Printf.sprintf "OUTPUT(n%d)\n" depth);
  let c = Bench_format.Parser.parse_string ~name:"chain" (Buffer.contents buf) in
  check_int "all gates" depth (Netlist.Circuit.gate_count c);
  check_int "depth" depth (Netlist.Analysis.depth (Netlist.Analysis.get c));
  (* and the engines survive it too *)
  let sp = Sigprob.Sp_topological.compute c in
  check_float_eps 1e-9 "inverter chain SP" 0.5 (Sigprob.Sp.get_name sp (Printf.sprintf "n%d" depth));
  let engine = Epp.Epp_engine.create ~sp c in
  let r = Epp.Epp_engine.analyze_site engine (Netlist.Circuit.find c "n0") in
  check_float "full propagation" 1.0 r.Epp.Epp_engine.p_sensitized

let () =
  Alcotest.run "parser_robustness"
    [
      ( "fuzz",
        [
          prop_garbage "bench" classify_bench;
          prop_garbage "verilog" classify_verilog;
          prop_garbage "blif" classify_blif;
          prop_mutations "bench" classify_bench 0;
          prop_mutations "verilog" classify_verilog 1;
          prop_mutations "blif" classify_blif 2;
          Alcotest.test_case "edge inputs" `Quick test_empty_and_edge_inputs;
          Alcotest.test_case "30k-deep chain, no stack overflow" `Quick
            test_deep_nesting_no_stack_overflow;
        ] );
    ]
