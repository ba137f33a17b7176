(* Cross-module property tests: algebraic identities that tie independent
   implementations to each other (dualities, compositions, conservation
   laws).  Each of these would catch a whole class of bugs no single-module
   unit test sees. *)

open Helpers
open Netlist


(* --- gate-level dualities ------------------------------------------------------ *)

let prop_de_morgan_eval =
  qtest ~count:200 ~name:"De Morgan: NAND(x) = OR(not x), NOR(x) = AND(not x)"
    seed_arbitrary (fun seed ->
      let rng = Rng.create ~seed in
      let arity = 1 + Rng.int rng ~bound:4 in
      let xs = Array.init arity (fun _ -> Rng.bool rng) in
      let nxs = Array.map not xs in
      Gate.eval Gate.Nand xs = Gate.eval Gate.Or nxs
      && Gate.eval Gate.Nor xs = Gate.eval Gate.And nxs
      && Gate.eval Gate.Xnor xs = not (Gate.eval Gate.Xor xs))

let prop_sp_duality =
  qtest ~count:200 ~name:"SP duality: sp(NAND)(p) = 1 - sp(AND)(p)" seed_arbitrary
    (fun seed ->
      let rng = Rng.create ~seed in
      let arity = 1 + Rng.int rng ~bound:4 in
      let ps = Array.init arity (fun _ -> Rng.float rng) in
      let close a b = Float.abs (a -. b) < 1e-12 in
      close (Sigprob.Sp_rules.gate_sp Gate.Nand ps) (1.0 -. Sigprob.Sp_rules.gate_sp Gate.And ps)
      && close (Sigprob.Sp_rules.gate_sp Gate.Nor ps) (1.0 -. Sigprob.Sp_rules.gate_sp Gate.Or ps)
      && close
           (Sigprob.Sp_rules.gate_sp Gate.Xnor ps)
           (1.0 -. Sigprob.Sp_rules.gate_sp Gate.Xor ps))

let prop_epp_rule_duality =
  qtest ~count:200 ~name:"EPP duality: propagate(NAND) = invert(propagate(AND))"
    seed_arbitrary (fun seed ->
      let rng = Rng.create ~seed in
      let vector () =
        let a = Rng.float rng +. 1e-6 and b = Rng.float rng +. 1e-6 in
        let c = Rng.float rng +. 1e-6 and d = Rng.float rng +. 1e-6 in
        let s = a +. b +. c +. d in
        Epp.Prob4.make ~pa:(a /. s) ~pa_bar:(b /. s) ~p1:(c /. s) ~p0:(d /. s)
      in
      let arity = 1 + Rng.int rng ~bound:4 in
      let xs = Array.init arity (fun _ -> vector ()) in
      let close = Epp.Prob4.equal_approx ~eps:1e-12 in
      close (Epp.Rules.propagate Gate.Nand xs) (Epp.Prob4.invert (Epp.Rules.propagate Gate.And xs))
      && close (Epp.Rules.propagate Gate.Nor xs) (Epp.Prob4.invert (Epp.Rules.propagate Gate.Or xs)))

(* --- SP engines agree with each other ------------------------------------------- *)

let prop_sp_topological_equals_bdd_on_trees =
  qtest ~count:25 ~name:"topological SP = BDD-exact SP on trees" seed_arbitrary (fun seed ->
      let c = random_tree ~seed ~inputs:(3 + (seed mod 5)) in
      let topo = Sigprob.Sp_topological.compute c in
      let cb = Circuit_bdd.build c in
      let exact = Circuit_bdd.all_signal_probabilities cb in
      let ok = ref true in
      Array.iteri
        (fun v p -> if Float.abs (p -. Sigprob.Sp.get topo v) > 1e-12 then ok := false)
        exact;
      !ok)

let prop_epp_error_mass_conserved_through_unary_chain =
  qtest ~count:100 ~name:"unary gates conserve error mass" seed_arbitrary (fun seed ->
      let rng = Rng.create ~seed in
      let a = Rng.float rng +. 1e-6 and b = Rng.float rng +. 1e-6 in
      let c = Rng.float rng +. 1e-6 and d = Rng.float rng +. 1e-6 in
      let s = a +. b +. c +. d in
      let v = Epp.Prob4.make ~pa:(a /. s) ~pa_bar:(b /. s) ~p1:(c /. s) ~p0:(d /. s) in
      let through = Epp.Rules.propagate Gate.Not [| Epp.Rules.propagate Gate.Buf [| v |] |] in
      Float.abs (Epp.Prob4.p_error v -. Epp.Prob4.p_error through) < 1e-12)

(* --- estimator conservation laws -------------------------------------------------- *)

let prop_psens_le_observability_union_bound =
  (* P_sens uses the product formula over reached outputs, so it is at most
     the sum of per-observation propagation probabilities (union bound). *)
  qtest ~count:20 ~name:"P_sens respects the union bound" seed_arbitrary (fun seed ->
      let c = random_small_dag ~seed in
      let engine = Epp.Epp_engine.create ~sp:(Sigprob.Sp_topological.compute c) c in
      List.for_all
        (fun (r : Epp.Epp_engine.site_result) ->
          let sum = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 r.Epp.Epp_engine.per_observation in
          r.Epp.Epp_engine.p_sensitized <= sum +. 1e-9)
        (Epp.Ser_estimator.analyze_all engine))

let prop_hardening_monotone =
  qtest ~count:10 ~name:"hardening plans grow with the target" seed_arbitrary (fun seed ->
      let c = random_small_dag ~seed in
      let report = Epp.Ser_estimator.estimate c in
      let size f = List.length (Epp.Ranking.hardening_plan report ~target_fraction:f).Epp.Ranking.selected in
      size 0.25 <= size 0.5 && size 0.5 <= size 0.75 && size 0.75 <= size 1.0)

(* --- format cross-equivalence ------------------------------------------------------ *)

let prop_three_formats_agree =
  qtest ~count:15 ~name:"bench, verilog and blif round-trips are pairwise equivalent"
    seed_arbitrary (fun seed ->
      let c = random_small_dag ~seed in
      let via_bench =
        Bench_format.Parser.parse_string ~name:"x" (Bench_format.Printer.circuit_to_string c)
      in
      let via_verilog =
        Verilog_format.Verilog_parser.parse_string (Verilog_format.Verilog_printer.circuit_to_string c)
      in
      let via_blif =
        Blif_format.Blif_parser.parse_string (Blif_format.Blif_printer.circuit_to_string c)
      in
      let eq a b =
        match Circuit_bdd.check_equivalence a b with
        | Circuit_bdd.Equivalent -> true
        | Circuit_bdd.Interface_mismatch _ | Circuit_bdd.Differs _ -> false
      in
      eq via_bench via_verilog && eq via_verilog via_blif && eq via_blif c)

(* --- transform/estimator interplay -------------------------------------------------- *)

(* Logic optimization preserves the observable *functions* (the formal
   equivalence test above) but NOT per-site fault observability: merging a
   duplicate gate re-routes an error's cone through a single physical copy,
   and paths that used to diverge through independent duplicates can now
   self-cancel.  Concretely (generator seed 844): n17 = NOR(n9, n10)
   duplicates n12 = NOR(n9, n10), and n18 = AND(n16, NOT n12, n17).  Before
   merging, a fault at n12 flips NOT n12 while the independent n17 holds
   its value, so n18 can observe it (exact P_sens = 0.375).  After merging,
   n18 = AND(n16, NOT n12, n12): a fault at n12 flips both inputs together
   and the AND stays 0 — the fault is perfectly masked (P_sens = 0).  The
   test pins this down as intended behaviour, because it is a genuine (and
   easy to forget) property of the physical fault model: SER analysis must
   run on the netlist that will be manufactured, not on a pre-cleanup
   version of it. *)
let test_optimization_changes_fault_observability () =
  let profile =
    Circuit_gen.Profiles.make ~name:"dag844" ~inputs:5 ~outputs:3 ~ffs:0 ~gates:14
  in
  let c = Circuit_gen.Random_dag.generate ~seed:844 profile in
  let c' = Netlist.Transform.optimize c in
  (* functions are provably unchanged... *)
  (match Circuit_bdd.check_equivalence c c' with
  | Circuit_bdd.Equivalent -> ()
  | Circuit_bdd.Interface_mismatch _ | Circuit_bdd.Differs _ ->
    Alcotest.fail "optimize must preserve functions");
  (* ...yet the fault observability of n12 legitimately collapses. *)
  let p_sens circuit node =
    (Circuit_bdd.epp_exact (Circuit_bdd.build circuit) node).Circuit_bdd.p_sensitized
  in
  check_float_eps 1e-9 "before: observable through the duplicate" 0.375
    (p_sens c (Circuit.find c "n12"));
  check_float_eps 1e-9 "after: self-masked through the merged copy" 0.0
    (p_sens c' (Circuit.find c' "n12"))

let () =
  Alcotest.run "properties"
    [
      ( "dualities",
        [
          prop_de_morgan_eval;
          prop_sp_duality;
          prop_epp_rule_duality;
          prop_epp_error_mass_conserved_through_unary_chain;
        ] );
      ( "cross-engine",
        [
          prop_sp_topological_equals_bdd_on_trees;
          prop_psens_le_observability_union_bound;
          prop_hardening_monotone;
        ] );
      ( "cross-format", [ prop_three_formats_agree ] );
      ( "transform-interplay",
        [
          Alcotest.test_case "optimization changes fault observability (by design)" `Quick
            test_optimization_changes_fault_observability;
        ] );
    ]
