(* Tests for the analytical EPP engine: exactness on trees, agreement with
   the oracles under reconvergence, the ablation modes, and edge cases. *)

open Helpers
open Netlist

let uniform_engine c = Epp.Epp_engine.create ~sp:(Sigprob.Sp_topological.compute c) c

(* --- exactness on fanout-free circuits -------------------------------------- *)

(* On a tree every signal has one fanout, so there is no reconvergence and
   the analytical EPP must equal exhaustive enumeration at every site. *)
let prop_exact_on_trees =
  qtest ~count:40 ~name:"EPP equals exhaustive enumeration on trees (every site)"
    seed_arbitrary (fun seed ->
      let c = random_tree ~seed ~inputs:(3 + (seed mod 5)) in
      let engine = uniform_engine c in
      let ok = ref true in
      for site = 0 to Circuit.node_count c - 1 do
        let analytical = (Epp.Epp_engine.analyze_site engine site).Epp.Epp_engine.p_sensitized in
        let exact = (Fault_sim.Epp_exact.compute c site).Fault_sim.Epp_exact.p_sensitized in
        if Float.abs (analytical -. exact) > 1e-9 then ok := false
      done;
      !ok)

(* --- behaviour under reconvergence ------------------------------------------ *)

let test_cancellation_circuit_exact () =
  (* y = XOR(x, NOT(NOT x)): the error on x reconverges with equal polarity
     and cancels; the polarity rules see it, the naive ablation's rules
     cannot. *)
  let c = cancellation () in
  let x = Circuit.find c "x" in
  let polarity = uniform_engine c in
  let r = Epp.Epp_engine.analyze_site polarity x in
  check_float "polarity mode: cancelled" 0.0 r.Epp.Epp_engine.p_sensitized;
  let exact = Fault_sim.Epp_exact.compute c x in
  check_float "oracle agrees" 0.0 exact.Fault_sim.Epp_exact.p_sensitized;
  let rn = Epp.Epp_engine.analyze_site_naive polarity x in
  check_float "naive rules claim full propagation" 1.0 rn.Epp.Epp_engine.p_sensitized

let prop_close_to_oracle_on_random_dags =
  (* With reconvergent fanout the method is an approximation; the paper
     reports ~5% average difference on ISCAS'89-sized circuits.  Our
     19-node random DAGs are far denser in reconvergence than real
     netlists, so the bound is on the mean over a fixed seed population:
     tight enough to catch any rule or traversal bug (those show up as
     gaps near 1), deterministic so the suite never flakes on tail
     seeds. *)
  Alcotest.test_case "EPP close to exhaustive oracle on reconvergent DAGs" `Quick (fun () ->
      let grand_total = ref 0.0 and sites_seen = ref 0 in
      for seed = 1 to 40 do
        let c = random_small_dag ~seed in
        let engine = uniform_engine c in
        let n = Circuit.node_count c in
        for site = 0 to n - 1 do
          let analytical =
            (Epp.Epp_engine.analyze_site engine site).Epp.Epp_engine.p_sensitized
          in
          let exact = (Fault_sim.Epp_exact.compute c site).Fault_sim.Epp_exact.p_sensitized in
          grand_total := !grand_total +. Float.abs (analytical -. exact);
          incr sites_seen
        done
      done;
      let mean = !grand_total /. float_of_int !sites_seen in
      check_bool (Printf.sprintf "population mean gap %.4f < 0.10" mean) true (mean < 0.10))

(* --- structural edge cases --------------------------------------------------- *)

let test_po_driver_site () =
  let c = fig1 () in
  let engine = uniform_engine c in
  let r = Epp.Epp_engine.analyze_site engine (Circuit.find c "H") in
  check_float "driving the PO" 1.0 r.Epp.Epp_engine.p_sensitized

let test_unobservable_site () =
  let b = Builder.create () in
  Builder.add_input b "a";
  Builder.add_gate b ~output:"y" ~kind:Gate.Not [ "a" ];
  Builder.add_gate b ~output:"dead" ~kind:Gate.Buf [ "a" ];
  Builder.add_output b "y";
  let c = Builder.freeze b in
  let engine = uniform_engine c in
  let r = Epp.Epp_engine.analyze_site engine (Circuit.find c "dead") in
  check_float "no reachable output" 0.0 r.Epp.Epp_engine.p_sensitized;
  check_int "no observations" 0 r.Epp.Epp_engine.reached_outputs

let test_input_as_site () =
  (* Primary inputs are legal error sites (the paper considers all circuit
     nodes).  Site C propagates through OR H iff D = 0 and G = 0.  D and G
     are both functions of A, so they are *correlated* off-path signals: the
     engine's independence assumption gives
     P0(D) * P0(G) = 0.875 * 0.625 = 0.546875, while the exact answer is
     0.5 — a hand-sized instance of the method's documented approximation. *)
  let c = fig1 () in
  let engine = uniform_engine c in
  let r = Epp.Epp_engine.analyze_site engine (Circuit.find c "C") in
  check_float_eps 1e-12 "engine value (independence assumption)" 0.546875
    r.Epp.Epp_engine.p_sensitized;
  let exact = Fault_sim.Epp_exact.compute c (Circuit.find c "C") in
  check_float_eps 1e-12 "exact value" 0.5 exact.Fault_sim.Epp_exact.p_sensitized

let test_multi_output_psens_formula () =
  (* Two independent observation paths: P_sens = 1 - (1-p1)(1-p2). *)
  let b = Builder.create () in
  List.iter (Builder.add_input b) [ "x"; "m1"; "m2" ];
  Builder.add_gate b ~output:"y1" ~kind:Gate.And [ "x"; "m1" ];
  Builder.add_gate b ~output:"y2" ~kind:Gate.And [ "x"; "m2" ];
  Builder.add_output b "y1";
  Builder.add_output b "y2";
  let c = Builder.freeze b in
  let engine = uniform_engine c in
  let r = Epp.Epp_engine.analyze_site engine (Circuit.find c "x") in
  (match r.Epp.Epp_engine.per_observation with
  | [ (_, p1); (_, p2) ] ->
    check_float_eps 1e-12 "p1" 0.5 p1;
    check_float_eps 1e-12 "p2" 0.5 p2
  | _ -> Alcotest.fail "expected two observations");
  check_float_eps 1e-12 "product formula" 0.75 r.Epp.Epp_engine.p_sensitized;
  (* The independence product is exact here because the two masks are
     disjoint inputs. *)
  let exact = Fault_sim.Epp_exact.compute c (Circuit.find c "x") in
  check_float_eps 1e-9 "oracle" exact.Fault_sim.Epp_exact.p_sensitized
    r.Epp.Epp_engine.p_sensitized

let test_sequential_ff_cut () =
  (* In s27, an error at a gate driving only FF data inputs must be counted
     through the Ff_data observations. *)
  let c = Circuit_gen.Embedded.s27 () in
  let engine = Epp.Epp_engine.create c in
  let g10 = Circuit.find c "G10" in
  let r = Epp.Epp_engine.analyze_site engine g10 in
  (* G10 feeds DFF G5 directly: the error is always captured. *)
  check_float "captured by the FF" 1.0 r.Epp.Epp_engine.p_sensitized;
  check_bool "observation is an FF data input" true
    (List.exists
       (fun (obs, _) ->
         match obs with
         | Circuit.Ff_data _ -> true
         | Circuit.Po _ -> false)
       r.Epp.Epp_engine.per_observation)

let test_whole_circuit_ablation_identical () =
  let c = Circuit_gen.Embedded.s27 () in
  let sp = (Sigprob.Sp_sequential.compute c).Sigprob.Sp_sequential.result in
  let engine = Epp.Epp_engine.create ~sp c in
  for site = 0 to Circuit.node_count c - 1 do
    let a = (Epp.Epp_engine.analyze_site engine site).Epp.Epp_engine.p_sensitized in
    let b =
      (Epp.Epp_engine.analyze_site_whole_circuit engine site).Epp.Epp_engine.p_sensitized
    in
    if Float.abs (a -. b) > 1e-12 then
      Alcotest.failf "ablation diverged at %s: %.6f vs %.6f" (Circuit.node_name c site) a b
  done

let test_foreign_sp_rejected () =
  let c1 = fig1 () and c2 = small_tree () in
  let sp2 = Sigprob.Sp_topological.compute c2 in
  Alcotest.check_raises "foreign sp"
    (Invalid_argument "Epp_engine.create: sp computed on a different circuit") (fun () ->
      ignore (Epp.Epp_engine.create ~sp:sp2 c1))

(* A provided sp vector with a NaN / out-of-range entry must be rejected at
   create, with the offending node named — not fed silently into the
   sweep. *)
let test_invalid_sp_rejected () =
  let c = fig1 () in
  let poisoned value =
    let sp = Sigprob.Sp_topological.compute c in
    let values = Array.copy sp.Sigprob.Sp.values in
    let victim = Circuit.find c "B" in
    values.(victim) <- value;
    ({ Sigprob.Sp.circuit = c; values }, victim)
  in
  List.iter
    (fun bad ->
      let sp, victim = poisoned bad in
      match Epp.Epp_engine.create ~sp c with
      | _ -> Alcotest.failf "accepted sp value %h" bad
      | exception Epp.Epp_engine.Invalid_signal_probability { node; name; value }
        ->
        check_int "offending node id" victim node;
        check_string "offending node name" "B" name;
        check_bool "offending value carried" true
          (Int64.bits_of_float value = Int64.bits_of_float bad))
    [ Float.nan; 1.5; -0.25; Float.infinity; Float.neg_infinity ]

let test_analyze_all_covers_all () =
  let c = fig1 () in
  let engine = uniform_engine c in
  let all = Epp.Ser_estimator.analyze_all engine in
  check_int "every node" (Circuit.node_count c) (List.length all)

let test_default_sp_sequential () =
  (* create without ~sp on a sequential circuit must use the fixpoint. *)
  let c = shift_register () in
  let engine = Epp.Epp_engine.create c in
  let sp = Epp.Epp_engine.signal_probabilities engine in
  check_float_eps 1e-9 "q2 at 0.5 from fixpoint" 0.5 (Sigprob.Sp.get_name sp "q2")

let prop_psens_is_probability =
  qtest ~count:30 ~name:"P_sensitized always in [0,1]" seed_arbitrary (fun seed ->
      let c = random_small_dag ~seed in
      let engine = uniform_engine c in
      List.for_all
        (fun (r : Epp.Epp_engine.site_result) ->
          r.Epp.Epp_engine.p_sensitized >= 0.0 && r.Epp.Epp_engine.p_sensitized <= 1.0)
        (Epp.Ser_estimator.analyze_all engine))

let prop_psens_bounded_by_observations =
  qtest ~count:30 ~name:"max per-obs <= P_sens <= sum per-obs" seed_arbitrary (fun seed ->
      let c = random_small_dag ~seed in
      let engine = uniform_engine c in
      List.for_all
        (fun (r : Epp.Epp_engine.site_result) ->
          let per = List.map snd r.Epp.Epp_engine.per_observation in
          let maxp = List.fold_left Float.max 0.0 per in
          let sump = List.fold_left ( +. ) 0.0 per in
          r.Epp.Epp_engine.p_sensitized >= maxp -. 1e-9
          && r.Epp.Epp_engine.p_sensitized <= sump +. 1e-9)
        (Epp.Ser_estimator.analyze_all engine))

(* The reference costs the cone, not the circuit.  On parity-16384 a leaf's
   cone is its 15-node path to the root; when each call took a node-indexed
   cone mask and filtered the whole order through it, a call allocated
   about 263,000 words (8.0 per node); it allocates about 1,100 now,
   its cone search included. *)
let leaf_call_ceiling = 4096.0

let test_reference_cost_is_cone_local () =
  let c = Circuit_gen.Structured.parity_tree ~width:16384 () in
  let engine = Epp.Epp_engine.create c in
  let leaves = Array.of_list (List.filteri (fun i _ -> i < 1024) (Circuit.inputs c)) in
  let words =
    allocated_words (fun () -> Array.map (Epp.Epp_engine.analyze_site engine) leaves)
    /. float (Array.length leaves)
  in
  check_bool
    (Printf.sprintf "analyze_site allocates %.0f words a leaf <= %.0f" words leaf_call_ceiling)
    true (words <= leaf_call_ceiling)

let () =
  Alcotest.run "epp_engine"
    [
      ( "exactness",
        [
          prop_exact_on_trees;
          Alcotest.test_case "cancellation: polarity vs naive" `Quick
            test_cancellation_circuit_exact;
          prop_close_to_oracle_on_random_dags;
        ] );
      ( "structure",
        [
          Alcotest.test_case "PO driver" `Quick test_po_driver_site;
          Alcotest.test_case "unobservable site" `Quick test_unobservable_site;
          Alcotest.test_case "input as site" `Quick test_input_as_site;
          Alcotest.test_case "multi-output product formula" `Quick
            test_multi_output_psens_formula;
          Alcotest.test_case "FF cut in s27" `Quick test_sequential_ff_cut;
          Alcotest.test_case "whole-circuit ablation identical" `Quick
            test_whole_circuit_ablation_identical;
          Alcotest.test_case "reference cost is cone-local" `Quick
            test_reference_cost_is_cone_local;
        ] );
      ( "api",
        [
          Alcotest.test_case "foreign sp rejected" `Quick test_foreign_sp_rejected;
          Alcotest.test_case "invalid sp rejected" `Quick test_invalid_sp_rejected;
          Alcotest.test_case "analyze_all covers all" `Quick test_analyze_all_covers_all;
          Alcotest.test_case "sequential default SP" `Quick test_default_sp_sequential;
          prop_psens_is_probability;
          prop_psens_bounded_by_observations;
        ] );
    ]
