(* Tests for witness-based test-set generation. *)

open Helpers
open Netlist

let all_covered_or_untestable circuit (t : Epp.Test_set.t) sites =
  let covered = List.concat_map snd t.Epp.Test_set.coverage in
  List.for_all
    (fun s -> List.mem s covered || List.mem s t.Epp.Test_set.untestable)
    sites
  && List.length covered + List.length t.Epp.Test_set.untestable = List.length sites
  && ignore circuit = ()

(* Re-verify every coverage claim independently. *)
let claims_hold (t : Epp.Test_set.t) =
  let circuit = t.Epp.Test_set.circuit in
  let cs = Logic_sim.Sim.compile circuit in
  let order = Analysis.order (Analysis.get circuit) in
  let obs_nets = List.map (Circuit.observation_net circuit) (Circuit.observations circuit) in
  let pseudo = Array.of_list (Circuit.pseudo_inputs circuit) in
  let vectors = Array.of_list t.Epp.Test_set.vectors in
  List.for_all
    (fun (vi, retired) ->
      let entry = vectors.(vi) in
      let values = Array.make (Circuit.node_count circuit) false in
      Array.iteri (fun i v -> values.(v) <- entry.(i)) pseudo;
      Logic_sim.Sim.run_bool cs values;
      List.for_all
        (fun site ->
          (* forced re-simulation of the whole circuit *)
          let faulty = Array.copy values in
          faulty.(site) <- not values.(site);
          Array.iter
            (fun v ->
              if v <> site then
                match Circuit.node circuit v with
                | Circuit.Gate { kind; fanins } ->
                  faulty.(v) <- Gate.eval kind (Array.map (fun u -> faulty.(u)) fanins)
                | Circuit.Input | Circuit.Ff _ -> ())
            order;
          List.exists (fun net -> values.(net) <> faulty.(net)) obs_nets)
        retired)
    t.Epp.Test_set.coverage

let test_c17_full_coverage () =
  let c = Circuit_gen.Embedded.c17 () in
  let t = Epp.Test_set.generate c in
  check_int "nothing untestable in c17" 0 (List.length t.Epp.Test_set.untestable);
  check_bool "all sites covered" true
    (all_covered_or_untestable c t (List.init (Circuit.node_count c) Fun.id));
  check_bool "claims verified" true (claims_hold t);
  check_bool "compaction: fewer vectors than sites" true
    (Epp.Test_set.vector_count t < Circuit.node_count c)

let test_s27_coverage () =
  let c = Circuit_gen.Embedded.s27 () in
  let t = Epp.Test_set.generate c in
  check_bool "all accounted for" true
    (all_covered_or_untestable c t (List.init (Circuit.node_count c) Fun.id));
  check_bool "claims verified" true (claims_hold t)

let test_untestable_detected () =
  let b = Builder.create () in
  Builder.add_input b "x";
  Builder.add_gate b ~output:"zero" ~kind:Gate.Const0 [];
  Builder.add_gate b ~output:"y" ~kind:Gate.And [ "x"; "zero" ];
  Builder.add_output b "y";
  let c = Builder.freeze b in
  let t = Epp.Test_set.generate c in
  check_bool "x is untestable" true
    (List.mem (Circuit.find c "x") t.Epp.Test_set.untestable);
  (* y itself drives the PO: flipping it is always visible. *)
  check_bool "y is covered" true
    (List.mem (Circuit.find c "y") (List.concat_map snd t.Epp.Test_set.coverage))

let test_subset_of_sites () =
  let c = Circuit_gen.Embedded.c17 () in
  let sites = [ Circuit.find c "G10"; Circuit.find c "G11" ] in
  let t = Epp.Test_set.generate ~sites c in
  check_bool "only requested sites" true (all_covered_or_untestable c t sites);
  Alcotest.check_raises "bad site" (Invalid_argument "Test_set.generate: bad site") (fun () ->
      ignore (Epp.Test_set.generate ~sites:[ 999 ] c))

let prop_random_dags_fully_accounted =
  qtest ~count:10 ~name:"every site covered or untestable on random DAGs" seed_arbitrary
    (fun seed ->
      let c = random_small_dag ~seed in
      let t = Epp.Test_set.generate c in
      all_covered_or_untestable c t (List.init (Circuit.node_count c) Fun.id)
      && claims_hold t)

let () =
  Alcotest.run "test_set"
    [
      ( "generation",
        [
          Alcotest.test_case "c17 full coverage, compacted" `Quick test_c17_full_coverage;
          Alcotest.test_case "s27 coverage" `Quick test_s27_coverage;
          Alcotest.test_case "untestable detection" `Quick test_untestable_detected;
          Alcotest.test_case "site subset + validation" `Quick test_subset_of_sites;
          prop_random_dags_fully_accounted;
        ] );
    ]
