(* Tests for the electrical-masking (pulse attenuation) model and its
   integration with the SER estimator. *)

open Helpers
open Netlist

let model ~w0 ~att ~floor =
  { Seu_model.Electrical.initial_pulse_width = w0; attenuation_per_level = att;
    minimum_width = floor }

let test_surviving_width_linear () =
  let m = model ~w0:100e-12 ~att:10e-12 ~floor:20e-12 in
  check_float_eps 1e-15 "depth 0" 100e-12 (Seu_model.Electrical.surviving_width m ~levels:0);
  check_float_eps 1e-15 "depth 3" 70e-12 (Seu_model.Electrical.surviving_width m ~levels:3);
  check_float_eps 1e-15 "depth 8" 20e-12 (Seu_model.Electrical.surviving_width m ~levels:8)

let test_filtering_threshold () =
  let m = model ~w0:100e-12 ~att:10e-12 ~floor:20e-12 in
  check_bool "alive at 8" false (Seu_model.Electrical.filtered m ~levels:8);
  check_bool "filtered at 9" true (Seu_model.Electrical.filtered m ~levels:9);
  check_float "filtered width is 0" 0.0 (Seu_model.Electrical.surviving_width m ~levels:9)

let test_horizon () =
  let m = model ~w0:100e-12 ~att:10e-12 ~floor:20e-12 in
  (* depth 8 still survives at exactly the floor; 9 is the first filtered *)
  check_int "horizon" 9 (Seu_model.Electrical.max_propagation_levels m);
  check_int "no attenuation = infinite horizon" max_int
    (Seu_model.Electrical.max_propagation_levels Seu_model.Electrical.no_attenuation)

let test_validation () =
  Alcotest.check_raises "zero width"
    (Invalid_argument "Electrical.check: initial_pulse_width must be positive") (fun () ->
      Seu_model.Electrical.check (model ~w0:0.0 ~att:1e-12 ~floor:0.0));
  Alcotest.check_raises "negative attenuation"
    (Invalid_argument "Electrical.check: negative attenuation_per_level") (fun () ->
      Seu_model.Electrical.check (model ~w0:1e-10 ~att:(-1e-12) ~floor:0.0));
  Alcotest.check_raises "negative depth"
    (Invalid_argument "Electrical.surviving_width: negative depth") (fun () ->
      ignore (Seu_model.Electrical.surviving_width Seu_model.Electrical.default ~levels:(-1)))

let test_p_latched_attenuates () =
  let m = model ~w0:100e-12 ~att:10e-12 ~floor:20e-12 in
  let latching = Seu_model.Latching.default in
  let c = shift_register () in
  let ffd = Circuit.Ff_data (Circuit.find c "q0") in
  let shallow = Seu_model.Electrical.p_latched m latching ~levels:0 ffd in
  let deep = Seu_model.Electrical.p_latched m latching ~levels:7 ffd in
  check_bool "deep paths latch less" true (deep < shallow);
  check_float "filtered latches never" 0.0
    (Seu_model.Electrical.p_latched m latching ~levels:20 ffd)

(* --- estimator integration ------------------------------------------------------- *)

let test_estimator_electrical_derates () =
  let c = Circuit_gen.Random_dag.generate ~seed:9 Circuit_gen.Profiles.s344 in
  (* Same pulse width at depth 0 so the comparison isolates attenuation. *)
  let latching =
    { Seu_model.Latching.default with
      Seu_model.Latching.pulse_width =
        Seu_model.Electrical.default.Seu_model.Electrical.initial_pulse_width }
  in
  let base = Epp.Ser_estimator.estimate ~latching c in
  let derated =
    Epp.Ser_estimator.estimate ~latching ~electrical:Seu_model.Electrical.default c
  in
  check_bool "electrical masking lowers total SER" true
    (derated.Epp.Ser_estimator.total_fit < base.Epp.Ser_estimator.total_fit);
  check_bool "still positive" true (derated.Epp.Ser_estimator.total_fit > 0.0)

let test_estimator_no_attenuation_noop () =
  (* The no_attenuation model must reproduce the plain estimate exactly
     (same pulse width as the default latching model). *)
  let c = fig1 () in
  let latching =
    { Seu_model.Latching.default with
      Seu_model.Latching.pulse_width =
        Seu_model.Electrical.no_attenuation.Seu_model.Electrical.initial_pulse_width }
  in
  let base = Epp.Ser_estimator.estimate ~latching c in
  let with_noop =
    Epp.Ser_estimator.estimate ~latching ~electrical:Seu_model.Electrical.no_attenuation c
  in
  check_float_eps 1e-15 "identical totals" base.Epp.Ser_estimator.total_fit
    with_noop.Epp.Ser_estimator.total_fit

let test_estimator_aggressive_filter_kills_deep_logic () =
  (* With a horizon of 0 levels, only sites driving an observation net
     directly can contribute. *)
  let c = Circuit_gen.Embedded.s27 () in
  let electrical = model ~w0:30e-12 ~att:25e-12 ~floor:20e-12 in
  (* horizon: ceil((30-20)/25) = 1 level *)
  let report = Epp.Ser_estimator.estimate ~electrical c in
  Array.iter
    (fun (n : Epp.Ser_estimator.node_report) ->
      if n.Epp.Ser_estimator.fit > 0.0 then begin
        (* every contributing node must reach an observation within 1 level *)
        let levels = Analysis.levels (Analysis.get c) in
        let close =
          List.exists
            (fun obs ->
              let net = Circuit.observation_net c obs in
              levels.(net) - levels.(n.Epp.Ser_estimator.node) <= 1)
            (Circuit.observations c)
        in
        check_bool (n.Epp.Ser_estimator.name ^ " is shallow") true close
      end)
    report.Epp.Ser_estimator.nodes

let () =
  Alcotest.run "electrical"
    [
      ( "model",
        [
          Alcotest.test_case "linear attenuation" `Quick test_surviving_width_linear;
          Alcotest.test_case "filtering threshold" `Quick test_filtering_threshold;
          Alcotest.test_case "horizon" `Quick test_horizon;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "p_latched attenuates" `Quick test_p_latched_attenuates;
        ] );
      ( "estimator",
        [
          Alcotest.test_case "derates total SER" `Quick test_estimator_electrical_derates;
          Alcotest.test_case "no-attenuation is a no-op" `Quick test_estimator_no_attenuation_noop;
          Alcotest.test_case "aggressive filter kills deep logic" `Quick
            test_estimator_aggressive_filter_kills_deep_logic;
        ] );
    ]
