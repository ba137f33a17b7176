(* Tests for the multi-cycle error propagation extension. *)

open Helpers
open Netlist

let engine c = Epp.Epp_engine.create c

(* A pipeline where the error needs several cycles to surface:
   si -> q0 -> q1 -> q2 -> PO (buffer chain through FFs). *)
let pipeline () =
  let b = Builder.create ~name:"pipe3" () in
  Builder.add_input b "si";
  Builder.add_dff b ~q:"q0" ~d:"si";
  Builder.add_gate b ~output:"w0" ~kind:Gate.Buf [ "q0" ];
  Builder.add_dff b ~q:"q1" ~d:"w0";
  Builder.add_gate b ~output:"w1" ~kind:Gate.Buf [ "q1" ];
  Builder.add_dff b ~q:"q2" ~d:"w1";
  Builder.add_gate b ~output:"po" ~kind:Gate.Buf [ "q2" ];
  Builder.add_output b "po";
  Builder.freeze b

let perfect_latching =
  (* window probability 1: captures are certain, so the pipeline walk is
     deterministic and the arithmetic is checkable by hand. *)
  { Epp.Multi_cycle.default_config with
    Epp.Multi_cycle.latching =
      { Seu_model.Latching.default with
        Seu_model.Latching.pulse_width = 1.0e-9;
        setup_time = 0.0;
        hold_time = 0.0;
      }
  }

let test_pipeline_deterministic_walk () =
  let c = pipeline () in
  let r = Epp.Multi_cycle.analyze ~config:perfect_latching (engine c) (Circuit.find c "si") in
  (* cycle 0: error at si reaches only q0.D (no PO); captured surely.
     cycle 1: q0 -> w0 -> q1.D; cycle 2: q1 -> q2.D; cycle 3: q2 -> po. *)
  let detections = List.map (fun cr -> cr.Epp.Multi_cycle.detection) r.Epp.Multi_cycle.cycles in
  (match detections with
  | [ d0; d1; d2; d3 ] ->
    check_float "cycle 0 no PO" 0.0 d0;
    check_float "cycle 1 no PO" 0.0 d1;
    check_float "cycle 2 no PO" 0.0 d2;
    check_float "cycle 3 detects surely" 1.0 d3
  | _ -> Alcotest.failf "expected 4 cycle reports, got %d" (List.length detections));
  check_float "cumulative = 1" 1.0 r.Epp.Multi_cycle.cumulative_detection;
  check_float "nothing residual" 0.0 r.Epp.Multi_cycle.residual_mass;
  (* The single-cycle P_sens is 1 too (captured by q0), but for a different
     reason — the FF capture, not a PO detection. *)
  check_float "paper quantity" 1.0 r.Epp.Multi_cycle.single_cycle_p_sensitized

let test_pipeline_window_scales_mass () =
  (* Only the transient's first capture pays the window probability w: once
     latched, the error is a stable value and marches deterministically.
     Detection at cycle 3 is therefore exactly w. *)
  let c = pipeline () in
  let w = Seu_model.Latching.p_latched_ff Seu_model.Latching.default in
  let r = Epp.Multi_cycle.analyze (engine c) (Circuit.find c "si") in
  let d3 =
    match List.filter (fun cr -> cr.Epp.Multi_cycle.cycle = 3) r.Epp.Multi_cycle.cycles with
    | [ cr ] -> cr.Epp.Multi_cycle.detection
    | _ -> Alcotest.fail "no cycle 3"
  in
  check_float_eps 1e-9 "w (window paid once)" w d3;
  check_float_eps 1e-9 "cumulative equals the only detection" d3
    r.Epp.Multi_cycle.cumulative_detection

let test_combinational_site_detects_in_cycle_0 () =
  let c = fig1 () in
  let r = Epp.Multi_cycle.analyze (engine c) (Circuit.find c "A") in
  (* No FFs at all: everything resolves in cycle 0 and matches the paper's
     quantity (PO capture is 1 by default). *)
  check_int "one cycle" 1 (List.length r.Epp.Multi_cycle.cycles);
  check_float_eps 1e-9 "matches single-cycle" r.Epp.Multi_cycle.single_cycle_p_sensitized
    r.Epp.Multi_cycle.cumulative_detection;
  check_float "no residual" 0.0 r.Epp.Multi_cycle.residual_mass

let test_shift_register_tap_detection () =
  (* shift3: tap = XOR(q0, q2) -> PO.  An error in si is seen at the tap
     once it sits in q0 (cycle 1) and again from q2 (cycle 3) — with
     perfect windows both detections are certain. *)
  let c = shift_register () in
  let r = Epp.Multi_cycle.analyze ~config:perfect_latching (engine c) (Circuit.find c "si") in
  let detection k =
    match List.filter (fun cr -> cr.Epp.Multi_cycle.cycle = k) r.Epp.Multi_cycle.cycles with
    | [ cr ] -> cr.Epp.Multi_cycle.detection
    | _ -> 0.0
  in
  check_float "cycle 1 via q0" 1.0 (detection 1);
  check_float "cumulative" 1.0 r.Epp.Multi_cycle.cumulative_detection

let test_horizon_reports_residual () =
  (* Cutting the pipeline walk short must leave residual mass. *)
  let c = pipeline () in
  let config = { perfect_latching with Epp.Multi_cycle.max_cycles = 2 } in
  let r = Epp.Multi_cycle.analyze ~config (engine c) (Circuit.find c "si") in
  check_float "not yet detected" 0.0 r.Epp.Multi_cycle.cumulative_detection;
  check_float "full mass still latched" 1.0 r.Epp.Multi_cycle.residual_mass

let test_epsilon_terminates_decay () =
  (* The transient capture leaves mass w = 0.2 circulating; an epsilon above
     that kills the walk right after cycle 0. *)
  let c = pipeline () in
  let config = { Epp.Multi_cycle.default_config with Epp.Multi_cycle.epsilon = 0.3 } in
  let r = Epp.Multi_cycle.analyze ~config (engine c) (Circuit.find c "si") in
  check_int "stopped after cycle 0" 1 (List.length r.Epp.Multi_cycle.cycles);
  check_float_eps 1e-9 "nothing detected" 0.0 r.Epp.Multi_cycle.cumulative_detection

let test_config_validation () =
  let c = pipeline () in
  let e = engine c in
  Alcotest.check_raises "max_cycles" (Invalid_argument "Multi_cycle.analyze: max_cycles must be >= 1")
    (fun () ->
      ignore
        (Epp.Multi_cycle.analyze
           ~config:{ Epp.Multi_cycle.default_config with Epp.Multi_cycle.max_cycles = 0 }
           e 0));
  Alcotest.check_raises "epsilon" (Invalid_argument "Multi_cycle.analyze: epsilon must be positive")
    (fun () ->
      ignore
        (Epp.Multi_cycle.analyze
           ~config:{ Epp.Multi_cycle.default_config with Epp.Multi_cycle.epsilon = 0.0 }
           e 0))

let prop_cumulative_is_probability =
  qtest ~count:15 ~name:"cumulative detection within [single-cycle-PO, 1]" seed_arbitrary
    (fun seed ->
      let profile =
        Circuit_gen.Profiles.make
          ~name:(Printf.sprintf "mc%d" seed)
          ~inputs:4 ~outputs:2 ~ffs:3 ~gates:12
      in
      let c = Circuit_gen.Random_dag.generate ~seed profile in
      let e = engine c in
      List.for_all
        (fun site ->
          let r = Epp.Multi_cycle.analyze e site in
          r.Epp.Multi_cycle.cumulative_detection >= -.1e-9
          && r.Epp.Multi_cycle.cumulative_detection <= 1.0 +. 1e-9
          && r.Epp.Multi_cycle.residual_mass >= -.1e-9)
        (List.init (Circuit.node_count c) Fun.id))

let () =
  Alcotest.run "multi_cycle"
    [
      ( "pipeline",
        [
          Alcotest.test_case "deterministic walk" `Quick test_pipeline_deterministic_walk;
          Alcotest.test_case "window scales mass" `Quick test_pipeline_window_scales_mass;
          Alcotest.test_case "combinational resolves in cycle 0" `Quick
            test_combinational_site_detects_in_cycle_0;
          Alcotest.test_case "shift register tap" `Quick test_shift_register_tap_detection;
          Alcotest.test_case "horizon leaves residual" `Quick test_horizon_reports_residual;
          Alcotest.test_case "epsilon terminates decay" `Quick test_epsilon_terminates_decay;
        ] );
      ( "api",
        [
          Alcotest.test_case "config validation" `Quick test_config_validation;
          prop_cumulative_is_probability;
        ] );
    ]
