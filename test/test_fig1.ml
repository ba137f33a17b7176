(* Golden test: the paper's Fig. 1 worked example, end to end.

   The paper computes, for an SEU at gate A with SP_B = 0.2, SP_C = 0.3,
   SP_F = 0.7:

     P(E) = 1(ā)
     P(G) = 0.7(ā) + 0.3(0)
     P(D) = 0.2(a) + 0.8(0)
     P(H) = 0.042(a) + 0.392(ā) + 0.168(0) + 0.398(1)

   so P_sensitized(A) = Pa(H) + Pā(H) = 0.434.  We reproduce every
   intermediate value through the public rules, the engine result, and
   cross-check against the exhaustive oracle. *)

open Helpers
open Netlist

let vectors () =
  (* Walk the cone by hand with the public API. *)
  let a = Epp.Prob4.error_site in
  let e = Epp.Rules.propagate Gate.Not [| a |] in
  let g = Epp.Rules.propagate Gate.And [| e; Epp.Prob4.of_sp 0.7 |] in
  let d = Epp.Rules.propagate Gate.And [| a; Epp.Prob4.of_sp 0.2 |] in
  let h = Epp.Rules.propagate Gate.Or [| Epp.Prob4.of_sp 0.3; d; g |] in
  (a, e, g, d, h)

let test_intermediate_e () =
  let _, e, _, _, _ = vectors () in
  check_float "Pā(E) = 1" 1.0 e.Epp.Prob4.pa_bar

let test_intermediate_g () =
  let _, _, g, _, _ = vectors () in
  check_float_eps 1e-12 "Pā(G)" 0.7 g.Epp.Prob4.pa_bar;
  check_float_eps 1e-12 "P0(G)" 0.3 g.Epp.Prob4.p0;
  check_float_eps 1e-12 "Pa(G)" 0.0 g.Epp.Prob4.pa;
  check_float_eps 1e-12 "P1(G)" 0.0 g.Epp.Prob4.p1

let test_intermediate_d () =
  let _, _, _, d, _ = vectors () in
  check_float_eps 1e-12 "Pa(D)" 0.2 d.Epp.Prob4.pa;
  check_float_eps 1e-12 "P0(D)" 0.8 d.Epp.Prob4.p0

let test_published_h () =
  let _, _, _, _, h = vectors () in
  check_float_eps 1e-9 "Pa(H)" 0.042 h.Epp.Prob4.pa;
  check_float_eps 1e-9 "Pā(H)" 0.392 h.Epp.Prob4.pa_bar;
  check_float_eps 1e-9 "P0(H)" 0.168 h.Epp.Prob4.p0;
  check_float_eps 1e-9 "P1(H)" 0.398 h.Epp.Prob4.p1

let engine_result () =
  let c = fig1 () in
  let sp = Sigprob.Sp_topological.compute ~spec:(fig1_spec c) c in
  let engine = Epp.Epp_engine.create ~sp c in
  (c, Epp.Epp_engine.analyze_site engine (Circuit.find c "A"))

let test_engine_p_sensitized () =
  let _, r = engine_result () in
  check_float_eps 1e-9 "P_sens = Pa + Pā = 0.434" 0.434 r.Epp.Epp_engine.p_sensitized

let test_engine_cone () =
  let _, r = engine_result () in
  (* on-path signals: A, E, G, D, H *)
  check_int "cone size" 5 r.Epp.Epp_engine.cone_size;
  check_int "one reachable output" 1 r.Epp.Epp_engine.reached_outputs

let test_engine_per_observation () =
  let c, r = engine_result () in
  match r.Epp.Epp_engine.per_observation with
  | [ (obs, p) ] ->
    check_string "observation is H" "H" (Circuit.observation_name c obs);
    check_float_eps 1e-9 "Pa + Pā at H" 0.434 p
  | _ -> Alcotest.fail "expected exactly one observation"

let test_against_exhaustive_oracle () =
  let c = fig1 () in
  let site = Circuit.find c "A" in
  let exact = Fault_sim.Epp_exact.compute ~input_sp:(fig1_input_sp c) c site in
  (* This example reconverges (A -> D and A -> E -> G meet at H), yet the
     polarity-tracked EPP is exact here — the cancellation bookkeeping the
     paper's Table 1 was designed for. *)
  check_float_eps 1e-9 "analytical equals exact" 0.434 exact.Fault_sim.Epp_exact.p_sensitized

let test_against_random_simulation () =
  let c = fig1 () in
  let site = Circuit.find c "A" in
  let ctx =
    Fault_sim.Epp_sim.create
      ~config:{ Fault_sim.Epp_sim.vectors = 100_000; input_sp = fig1_input_sp c }
      c
  in
  let est = Fault_sim.Epp_sim.estimate_site ctx ~rng:(Rng.create ~seed:2024) site in
  check_float_eps 0.01 "simulation agrees" 0.434 est.Fault_sim.Epp_sim.p_sensitized

let test_site_analysis_vocabulary () =
  let c = fig1 () in
  let sa = Epp.Site_analysis.analyze c (Circuit.find c "A") in
  let names vs = List.sort compare (List.map (Circuit.node_name c) vs) in
  Alcotest.(check (list string)) "on-path gates" [ "D"; "E"; "G"; "H" ]
    (names (Epp.Site_analysis.on_path_gates sa));
  (* Off-path signals of Fig. 1: B, C, F. *)
  Alcotest.(check (list string)) "off-path signals" [ "B"; "C"; "F" ]
    (names (Epp.Site_analysis.off_path c sa));
  check_int "on-path signal count" 5 (Epp.Site_analysis.on_path_signal_count sa);
  (* The on-path signals are the cone in topological order: the site, then
     the on-path gates. *)
  Alcotest.(check (list string)) "on-path signals, site first"
    [ "A"; "E"; "D"; "G"; "H" ]
    (List.map (Circuit.node_name c) (Array.to_list sa.Epp.Site_analysis.on_path));
  check_bool "reaches the PO" true (Epp.Site_analysis.reaches_any_output sa)

let () =
  Alcotest.run "fig1"
    [
      ( "intermediate vectors",
        [
          Alcotest.test_case "P(E) = 1(a-bar)" `Quick test_intermediate_e;
          Alcotest.test_case "P(G) = 0.7(a-bar) + 0.3(0)" `Quick test_intermediate_g;
          Alcotest.test_case "P(D) = 0.2(a) + 0.8(0)" `Quick test_intermediate_d;
          Alcotest.test_case "published P(H) components" `Quick test_published_h;
        ] );
      ( "engine",
        [
          Alcotest.test_case "P_sensitized(A) = 0.434" `Quick test_engine_p_sensitized;
          Alcotest.test_case "cone shape" `Quick test_engine_cone;
          Alcotest.test_case "per-observation detail" `Quick test_engine_per_observation;
          Alcotest.test_case "paper vocabulary (on/off-path)" `Quick
            test_site_analysis_vocabulary;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "exhaustive enumeration" `Quick test_against_exhaustive_oracle;
          Alcotest.test_case "random simulation" `Slow test_against_random_simulation;
        ] );
    ]
