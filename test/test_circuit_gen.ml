(* Tests for the synthetic circuit generator, the ISCAS profiles, and the
   embedded real netlists. *)

open Helpers
open Netlist

(* --- profiles ----------------------------------------------------------------- *)

let test_profiles_table2_order () =
  let names = List.map (fun p -> p.Circuit_gen.Profiles.name) Circuit_gen.Profiles.table2 in
  Alcotest.(check (list string)) "paper row order"
    [ "s953"; "s1196"; "s1238"; "s1423"; "s1488"; "s1494"; "s9234"; "s15850"; "s35932";
      "s38584"; "s38417" ]
    names

let test_profiles_find () =
  (match Circuit_gen.Profiles.find "s1196" with
  | Some p ->
    check_int "inputs" 14 p.Circuit_gen.Profiles.inputs;
    check_int "gates" 529 p.Circuit_gen.Profiles.gates
  | None -> Alcotest.fail "s1196 missing");
  check_bool "unknown" true (Circuit_gen.Profiles.find "s999999" = None)

let test_profiles_node_count () =
  let p = Circuit_gen.Profiles.s27 in
  check_int "4 + 3 + 10" 17 (Circuit_gen.Profiles.node_count p)

(* --- generator ------------------------------------------------------------------ *)

let generated_matches_profile (p : Circuit_gen.Profiles.t) seed =
  let c = Circuit_gen.Random_dag.generate ~seed p in
  Circuit.input_count c = p.Circuit_gen.Profiles.inputs
  && Circuit.output_count c = p.Circuit_gen.Profiles.outputs
  && Circuit.ff_count c = p.Circuit_gen.Profiles.ffs
  && Circuit.gate_count c = p.Circuit_gen.Profiles.gates

let test_generator_matches_profiles () =
  List.iter
    (fun p ->
      check_bool p.Circuit_gen.Profiles.name true (generated_matches_profile p 7))
    [ Circuit_gen.Profiles.s27; Circuit_gen.Profiles.s298; Circuit_gen.Profiles.s953;
      Circuit_gen.Profiles.s1196 ]

let prop_generator_matches_any_seed =
  qtest ~count:25 ~name:"generated circuit always matches its profile" seed_arbitrary
    (fun seed -> generated_matches_profile Circuit_gen.Profiles.s344 seed)

let test_generator_deterministic () =
  let gen () =
    Bench_format.Printer.circuit_to_string
      (Circuit_gen.Random_dag.generate ~seed:123 Circuit_gen.Profiles.s298)
  in
  check_string "same seed, same netlist" (gen ()) (gen ())

let test_generator_seed_changes_netlist () =
  let gen seed =
    Bench_format.Printer.circuit_to_string
      (Circuit_gen.Random_dag.generate ~seed Circuit_gen.Profiles.s298)
  in
  check_bool "different seed, different netlist" true (gen 1 <> gen 2)

let test_generator_has_depth () =
  let c = Circuit_gen.Random_dag.generate ~seed:5 Circuit_gen.Profiles.s953 in
  check_bool "nontrivial logic depth" true (Analysis.depth (Analysis.get c) >= 5)

let test_generator_has_reconvergence () =
  (* The whole point of the generator: exercise the paper's hard case. *)
  let c = Circuit_gen.Random_dag.generate ~seed:5 Circuit_gen.Profiles.s344 in
  check_bool "some reconvergent sites" true (Stats.reconvergent_site_count c > 0)

let test_generator_few_dangling_gates () =
  let c = Circuit_gen.Random_dag.generate ~seed:5 Circuit_gen.Profiles.s953 in
  let dangling = ref 0 in
  for v = 0 to Circuit.node_count c - 1 do
    if Circuit.is_gate c v && Circuit.fanouts c v = [] then begin
      let observed =
        List.exists (fun o -> Circuit.observation_net c o = v) (Circuit.observations c)
      in
      if not observed then incr dangling
    end
  done;
  (* Sinks are preferred as observation points; allow a small remainder. *)
  check_bool
    (Printf.sprintf "%d dangling of %d gates" !dangling (Circuit.gate_count c))
    true
    (float_of_int !dangling < 0.12 *. float_of_int (Circuit.gate_count c))

let test_generator_validates_config () =
  Alcotest.check_raises "max_fanin too small"
    (Invalid_argument "Random_dag.generate: max_fanin must be >= 2") (fun () ->
      ignore
        (Circuit_gen.Random_dag.generate
           ~config:{ Circuit_gen.Random_dag.default_config with Circuit_gen.Random_dag.max_fanin = 1 }
           ~seed:1 Circuit_gen.Profiles.s27))

let test_generator_respects_max_fanin () =
  let c =
    Circuit_gen.Random_dag.generate
      ~config:{ Circuit_gen.Random_dag.default_config with Circuit_gen.Random_dag.max_fanin = 2 }
      ~seed:9 Circuit_gen.Profiles.s344
  in
  for v = 0 to Circuit.node_count c - 1 do
    if Array.length (Circuit.fanins c v) > 2 then
      Alcotest.failf "fanin cap violated at %s" (Circuit.node_name c v)
  done

let test_generate_profile_wrapper () =
  let c =
    Circuit_gen.Random_dag.generate_profile ~seed:3 ~name:"adhoc" ~inputs:4 ~outputs:2 ~ffs:1
      ~gates:20 ()
  in
  check_string "name" "adhoc" (Circuit.name c);
  check_int "gates" 20 (Circuit.gate_count c)

(* --- embedded netlists ------------------------------------------------------------ *)

let test_s27_structure () =
  let c = Circuit_gen.Embedded.s27 () in
  check_string "name" "s27" (Circuit.name c);
  check_int "inputs" 4 (Circuit.input_count c);
  check_int "outputs" 1 (Circuit.output_count c);
  check_int "ffs" 3 (Circuit.ff_count c);
  check_int "gates" 10 (Circuit.gate_count c);
  check_int "nodes" 17 (Circuit.node_count c)

let test_s27_behaviour () =
  (* Hand-evaluated vector: all PIs 0, all FFs 0.
     G14 = NOT(G0) = 1; G12 = NOR(G1, G7) = 1; G8 = AND(G14, G6) = 0;
     G15 = OR(G12, G8) = 1; G16 = OR(G3, G8) = 0; G9 = NAND(G16, G15) = 1;
     G10 = NOR(G14, G11) = 0 where G11 = NOR(G5, G9) = 0; G13 = NOR(G2, G12) = 0;
     G17 = NOT(G11) = 1. *)
  let c = Circuit_gen.Embedded.s27 () in
  let cs = Logic_sim.Sim.compile c in
  let v = Logic_sim.Sim.eval_bool cs ~assign:(fun _ -> false) in
  let value name = v.(Circuit.find c name) in
  check_bool "G14" true (value "G14");
  check_bool "G12" true (value "G12");
  check_bool "G8" false (value "G8");
  check_bool "G15" true (value "G15");
  check_bool "G16" false (value "G16");
  check_bool "G9" true (value "G9");
  check_bool "G11" false (value "G11");
  check_bool "G10" false (value "G10");
  check_bool "G13" false (value "G13");
  check_bool "G17 (the PO)" true (value "G17")

let test_c17_structure () =
  let c = Circuit_gen.Embedded.c17 () in
  check_int "inputs" 5 (Circuit.input_count c);
  check_int "outputs" 2 (Circuit.output_count c);
  check_int "ffs" 0 (Circuit.ff_count c);
  check_int "gates (all NAND)" 6 (Circuit.gate_count c);
  for v = 0 to Circuit.node_count c - 1 do
    match Circuit.kind_of c v with
    | Some k -> check_bool "every gate is NAND" true (k = Gate.Nand)
    | None -> ()
  done

let test_c17_truth () =
  (* c17: G22 = NAND(G10, G16), with all inputs 1:
     G10 = NAND(1,1) = 0, G11 = 0, G16 = NAND(1,0) = 1, G19 = NAND(0,1) = 1,
     G22 = NAND(0,1) = 1, G23 = NAND(1,1) = 0. *)
  let c = Circuit_gen.Embedded.c17 () in
  let cs = Logic_sim.Sim.compile c in
  let v = Logic_sim.Sim.eval_bool cs ~assign:(fun _ -> true) in
  check_bool "G22" true v.(Circuit.find c "G22");
  check_bool "G23" false v.(Circuit.find c "G23")

let test_embedded_registry () =
  check_int "two embedded circuits" 2 (List.length Circuit_gen.Embedded.all);
  check_bool "find s27" true (Circuit_gen.Embedded.find "s27" <> None);
  check_bool "find unknown" true (Circuit_gen.Embedded.find "s38417" = None)

let () =
  Alcotest.run "circuit_gen"
    [
      ( "profiles",
        [
          Alcotest.test_case "table2 row order" `Quick test_profiles_table2_order;
          Alcotest.test_case "find" `Quick test_profiles_find;
          Alcotest.test_case "node count" `Quick test_profiles_node_count;
        ] );
      ( "generator",
        [
          Alcotest.test_case "matches profiles" `Quick test_generator_matches_profiles;
          prop_generator_matches_any_seed;
          Alcotest.test_case "deterministic from seed" `Quick test_generator_deterministic;
          Alcotest.test_case "seed changes netlist" `Quick test_generator_seed_changes_netlist;
          Alcotest.test_case "nontrivial depth" `Quick test_generator_has_depth;
          Alcotest.test_case "reconvergent fanout present" `Quick test_generator_has_reconvergence;
          Alcotest.test_case "few dangling gates" `Quick test_generator_few_dangling_gates;
          Alcotest.test_case "config validation" `Quick test_generator_validates_config;
          Alcotest.test_case "max fanin respected" `Quick test_generator_respects_max_fanin;
          Alcotest.test_case "generate_profile wrapper" `Quick test_generate_profile_wrapper;
        ] );
      ( "embedded",
        [
          Alcotest.test_case "s27 structure" `Quick test_s27_structure;
          Alcotest.test_case "s27 hand-evaluated vector" `Quick test_s27_behaviour;
          Alcotest.test_case "c17 structure" `Quick test_c17_structure;
          Alcotest.test_case "c17 truth" `Quick test_c17_truth;
          Alcotest.test_case "registry" `Quick test_embedded_registry;
        ] );
    ]
