(* Tests for EPP site collapsing. *)

open Helpers
open Netlist

(* A chain with unary segments: a -> NOT n1 -> BUF n2 -> AND y (with m). *)
let chain () =
  let b = Builder.create () in
  Builder.add_input b "a";
  Builder.add_input b "m";
  Builder.add_gate b ~output:"n1" ~kind:Gate.Not [ "a" ];
  Builder.add_gate b ~output:"n2" ~kind:Gate.Buf [ "n1" ];
  Builder.add_gate b ~output:"y" ~kind:Gate.And [ "n2"; "m" ];
  Builder.add_output b "y";
  Builder.freeze b

let test_chain_classes () =
  let c = chain () in
  let t = Epp.Collapse.compute c in
  let rep name = Epp.Collapse.representative t (Circuit.find c name) in
  check_int "a joins n2" (Circuit.find c "n2") (rep "a");
  check_int "n1 joins n2" (Circuit.find c "n2") (rep "n1");
  check_int "n2 is its own rep" (Circuit.find c "n2") (rep "n2");
  check_int "y alone" (Circuit.find c "y") (rep "y");
  check_int "m alone (fans into non-unary)" (Circuit.find c "m") (rep "m");
  check_int "three sites saved... a, n1" 2 (Epp.Collapse.savings t)

let test_observed_net_not_collapsed () =
  (* A PO driver must stay its own class even when it feeds a unary gate. *)
  let b = Builder.create () in
  Builder.add_input b "a";
  Builder.add_gate b ~output:"mid" ~kind:Gate.Not [ "a" ];
  Builder.add_gate b ~output:"y" ~kind:Gate.Not [ "mid" ];
  Builder.add_output b "mid";
  Builder.add_output b "y";
  let c = Builder.freeze b in
  let t = Epp.Collapse.compute c in
  check_int "mid stays (observed)" (Circuit.find c "mid")
    (Epp.Collapse.representative t (Circuit.find c "mid"));
  (* a still joins mid? a feeds only 'mid' gate which is unary — but a is
     not observed, so a collapses into mid. *)
  check_int "a joins mid" (Circuit.find c "mid")
    (Epp.Collapse.representative t (Circuit.find c "a"))

let test_ff_data_not_collapsed () =
  let c = shift_register () in
  let t = Epp.Collapse.compute c in
  (* si drives q0's data: it is an observation net, so its own class. *)
  check_int "si stays" (Circuit.find c "si")
    (Epp.Collapse.representative t (Circuit.find c "si"))

let prop_collapsed_equals_plain =
  qtest ~count:20 ~name:"collapsed analyze_all equals plain analyze_all" seed_arbitrary
    (fun seed ->
      let c = random_small_dag ~seed in
      let engine = Epp.Epp_engine.create ~sp:(Sigprob.Sp_topological.compute c) c in
      let plain = Epp.Ser_estimator.analyze_all engine in
      let collapsed = Epp.Collapse.analyze_all engine in
      List.for_all2
        (fun (a : Epp.Epp_engine.site_result) (b : Epp.Epp_engine.site_result) ->
          a.Epp.Epp_engine.site = b.Epp.Epp_engine.site
          && Float.abs (a.Epp.Epp_engine.p_sensitized -. b.Epp.Epp_engine.p_sensitized) < 1e-12)
        plain collapsed)

let test_collapse_saves_on_inverter_rich () =
  let config =
    { Circuit_gen.Random_dag.default_config with
      Circuit_gen.Random_dag.inverter_fraction = 0.4 }
  in
  let c = Circuit_gen.Random_dag.generate ~config ~seed:5 Circuit_gen.Profiles.s344 in
  let t = Epp.Collapse.compute c in
  (* Collapsing needs single-fanout unary consumers, which shared fanouts
     dilute even in inverter-rich netlists; a few percent is the realistic
     yield here. *)
  check_bool "meaningful savings" true
    (Epp.Collapse.savings t > Circuit.node_count c / 20)

let () =
  Alcotest.run "collapse"
    [
      ( "classes",
        [
          Alcotest.test_case "unary chain" `Quick test_chain_classes;
          Alcotest.test_case "observed nets stay" `Quick test_observed_net_not_collapsed;
          Alcotest.test_case "FF data nets stay" `Quick test_ff_data_not_collapsed;
          prop_collapsed_equals_plain;
          Alcotest.test_case "savings on inverter-rich netlists" `Quick
            test_collapse_saves_on_inverter_rich;
        ] );
    ]
