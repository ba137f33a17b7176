(* Tests for the static timing analysis substrate. *)

open Helpers
open Netlist

(* a -> NOT n1 -> NOT n2 -> PO, plus a direct AND(a, n1) side output. *)
let two_path () =
  let b = Builder.create () in
  Builder.add_input b "a";
  Builder.add_gate b ~output:"n1" ~kind:Gate.Not [ "a" ];
  Builder.add_gate b ~output:"n2" ~kind:Gate.Not [ "n1" ];
  Builder.add_gate b ~output:"y" ~kind:Gate.And [ "a"; "n1" ];
  Builder.add_output b "n2";
  Builder.add_output b "y";
  Builder.freeze b

let test_unit_delay_arrival_equals_depth () =
  let c = fig1 () in
  let t = Sta.Timing.analyze ~model:Sta.Delay_model.unit_delay c in
  let levels = Analysis.levels (Analysis.get c) in
  for v = 0 to Circuit.node_count c - 1 do
    (* With unit gate delay and free wires, arrival = level exactly for a
       graph whose every path realizes the maximum (true here: arrival is
       max over paths, levels are max over paths). *)
    check_float_eps 1e-12 (Circuit.node_name c v) (float_of_int levels.(v))
      (Sta.Timing.arrival t v)
  done

let test_arrival_monotonic_along_edges () =
  let c = Circuit_gen.Embedded.s27 () in
  let t = Sta.Timing.analyze c in
  Digraph.iter_edges
    (fun u v ->
      if Sta.Timing.arrival t v <= Sta.Timing.arrival t u then
        Alcotest.failf "arrival not increasing on %s -> %s" (Circuit.node_name c u)
          (Circuit.node_name c v))
    (Circuit.graph c)

let test_earliest_at_most_latest () =
  let c = Circuit_gen.Random_dag.generate ~seed:3 Circuit_gen.Profiles.s344 in
  let t = Sta.Timing.analyze c in
  for v = 0 to Circuit.node_count c - 1 do
    check_bool "earliest <= latest" true
      (Sta.Timing.earliest_arrival t v <= Sta.Timing.arrival t v +. 1e-15)
  done

let test_two_path_earliest_vs_latest () =
  let c = two_path () in
  let t = Sta.Timing.analyze ~model:Sta.Delay_model.unit_delay c in
  let y = Circuit.find c "y" in
  (* y = AND(a, n1): latest via n1 = 2 units, earliest via a = 1 unit. *)
  check_float "latest" 2.0 (Sta.Timing.arrival t y);
  check_float "earliest" 1.0 (Sta.Timing.earliest_arrival t y)

let test_max_delay_and_min_period () =
  let c = two_path () in
  let t = Sta.Timing.analyze ~model:Sta.Delay_model.unit_delay c in
  check_float "critical is the inverter chain" 2.0 (Sta.Timing.max_delay t);
  check_float "min period with setup" 2.5 (Sta.Timing.min_clock_period ~setup:0.5 t)

let test_critical_path_endpoints () =
  let c = two_path () in
  let t = Sta.Timing.analyze ~model:Sta.Delay_model.unit_delay c in
  let path = Sta.Timing.circuit_critical_path t in
  Alcotest.(check (list string)) "a -> n1 -> n2"
    [ "a"; "n1"; "n2" ]
    (List.map (Circuit.node_name c) path)

let test_critical_path_through_worst_fanin () =
  let c = two_path () in
  let t = Sta.Timing.analyze ~model:Sta.Delay_model.unit_delay c in
  let path = Sta.Timing.critical_path t (Circuit.find c "y") in
  Alcotest.(check (list string)) "via n1" [ "a"; "n1"; "y" ]
    (List.map (Circuit.node_name c) path)

let test_slacks () =
  let c = two_path () in
  let t = Sta.Timing.analyze ~model:Sta.Delay_model.unit_delay c in
  let slack = Sta.Timing.slacks t ~clock_period:3.0 in
  (* n2 arrives at 2.0 against period 3.0 -> slack 1.0. *)
  check_float "n2" 1.0 slack.(Circuit.find c "n2");
  (* n1 feeds n2 (required 3.0 - 1 = 2.0, arrival 1.0 -> 1.0) and y
     (required 3.0 - 1 = 2.0): slack 1.0. *)
  check_float "n1" 1.0 slack.(Circuit.find c "n1");
  Alcotest.check_raises "bad period" (Invalid_argument "Timing.slacks: clock_period must be positive")
    (fun () -> ignore (Sta.Timing.slacks t ~clock_period:0.0))

let test_slack_nonnegative_at_min_period () =
  let c = Circuit_gen.Random_dag.generate ~seed:9 Circuit_gen.Profiles.s298 in
  let t = Sta.Timing.analyze c in
  let slack = Sta.Timing.slacks t ~clock_period:(Sta.Timing.max_delay t) in
  Array.iteri
    (fun v s ->
      if s <> infinity && s < -1e-12 then
        Alcotest.failf "negative slack at %s: %g" (Circuit.node_name c v) s)
    slack

let test_delay_model_ordering () =
  let m = Sta.Delay_model.generic_130nm in
  let d kind = Sta.Delay_model.gate_delay m kind ~fanin:2 in
  check_bool "inverter fastest" true (d Gate.Not < d Gate.Nand);
  check_bool "xor slowest" true (d Gate.Xor > d Gate.And);
  check_bool "wider is slower" true
    (Sta.Delay_model.gate_delay m Gate.And ~fanin:4 > Sta.Delay_model.gate_delay m Gate.And ~fanin:2);
  Alcotest.check_raises "negative fanin"
    (Invalid_argument "Delay_model.gate_delay: negative fanin") (fun () ->
      ignore (Sta.Delay_model.gate_delay m Gate.And ~fanin:(-1)))

let prop_max_delay_bounded_by_depth =
  qtest ~count:20 ~name:"critical delay bounded by depth x worst gate delay" seed_arbitrary
    (fun seed ->
      let c = random_small_dag ~seed in
      let t = Sta.Timing.analyze c in
      let worst_gate =
        Sta.Delay_model.gate_delay Sta.Delay_model.generic_130nm Gate.Xor ~fanin:4
        +. Sta.Delay_model.generic_130nm.Sta.Delay_model.wire
      in
      Sta.Timing.max_delay t <= (float_of_int (Analysis.depth (Analysis.get c)) *. worst_gate) +. 1e-15)

let () =
  Alcotest.run "sta"
    [
      ( "timing",
        [
          Alcotest.test_case "unit delay equals levels" `Quick
            test_unit_delay_arrival_equals_depth;
          Alcotest.test_case "arrival monotonic" `Quick test_arrival_monotonic_along_edges;
          Alcotest.test_case "earliest <= latest" `Quick test_earliest_at_most_latest;
          Alcotest.test_case "two-path earliest/latest" `Quick test_two_path_earliest_vs_latest;
          Alcotest.test_case "max delay and min period" `Quick test_max_delay_and_min_period;
          Alcotest.test_case "circuit critical path" `Quick test_critical_path_endpoints;
          Alcotest.test_case "critical path picks worst fanin" `Quick
            test_critical_path_through_worst_fanin;
          Alcotest.test_case "slacks" `Quick test_slacks;
          Alcotest.test_case "slack nonnegative at min period" `Quick
            test_slack_nonnegative_at_min_period;
          prop_max_delay_bounded_by_depth;
        ] );
      ( "delay model",
        [ Alcotest.test_case "ordering" `Quick test_delay_model_ordering ] );
    ]
