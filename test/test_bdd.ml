(* Tests for the ROBDD manager and the BDD-backed exact circuit analyses. *)

open Helpers

(* --- manager basics ---------------------------------------------------------- *)

let test_terminals () =
  let m = Bdd.create ~var_count:3 in
  check_int "zero" 0 Bdd.zero;
  check_int "one" 1 Bdd.one;
  check_bool "terminal" true (Bdd.is_terminal Bdd.zero);
  check_int "initial node count" 2 (Bdd.node_count m)

let test_var_out_of_range () =
  let m = Bdd.create ~var_count:2 in
  Alcotest.check_raises "range" (Invalid_argument "Bdd.mk: variable out of range") (fun () ->
      ignore (Bdd.var m 2))

let test_canonicity_hash_consing () =
  let m = Bdd.create ~var_count:4 in
  let x0 = Bdd.var m 0 and x1 = Bdd.var m 1 in
  (* Same function built two ways must be the same node id. *)
  let a = Bdd.band m x0 x1 in
  let b = Bdd.bnot m (Bdd.bor m (Bdd.bnot m x0) (Bdd.bnot m x1)) in
  check_int "De Morgan canonical" a b;
  (* x XOR x = 0 *)
  check_int "xor self" Bdd.zero (Bdd.bxor m x0 x0);
  (* double negation *)
  check_int "bnot involution" x0 (Bdd.bnot m (Bdd.bnot m x0))

let test_ite () =
  let m = Bdd.create ~var_count:3 in
  let c = Bdd.var m 0 and t = Bdd.var m 1 and e = Bdd.var m 2 in
  let f = Bdd.ite m c t e in
  let truth c' t' e' = if c' then t' else e' in
  for i = 0 to 7 do
    let bit k = i land (1 lsl k) <> 0 in
    check_bool
      (Printf.sprintf "ite %d" i)
      (truth (bit 0) (bit 1) (bit 2))
      (Bdd.eval m f bit)
  done

let prop_ops_match_boolean_semantics =
  qtest ~count:200 ~name:"BDD ops match boolean semantics on random 4-var terms"
    seed_arbitrary (fun seed ->
      let rng = Rng.create ~seed in
      let m = Bdd.create ~var_count:4 in
      (* Build a random expression tree, keeping a mirror evaluator. *)
      let rec build depth =
        if depth = 0 || Rng.int rng ~bound:4 = 0 then begin
          let v = Rng.int rng ~bound:4 in
          (Bdd.var m v, fun assign -> assign v)
        end
        else begin
          let a, fa = build (depth - 1) in
          let b, fb = build (depth - 1) in
          match Rng.int rng ~bound:4 with
          | 0 -> (Bdd.band m a b, fun s -> fa s && fb s)
          | 1 -> (Bdd.bor m a b, fun s -> fa s || fb s)
          | 2 -> (Bdd.bxor m a b, fun s -> fa s <> fb s)
          | _ -> (Bdd.bnot m a, fun s -> not (fa s))
        end
      in
      let node, reference = build 4 in
      let ok = ref true in
      for i = 0 to 15 do
        let assign v = i land (1 lsl v) <> 0 in
        if Bdd.eval m node assign <> reference assign then ok := false
      done;
      !ok)

let enumerate_probability m node ~var_count ~var_p =
  let total = ref 0.0 in
  for i = 0 to (1 lsl var_count) - 1 do
    let assign v = i land (1 lsl v) <> 0 in
    if Bdd.eval m node assign then begin
      let w = ref 1.0 in
      for v = 0 to var_count - 1 do
        w := !w *. (if assign v then var_p v else 1.0 -. var_p v)
      done;
      total := !total +. !w
    end
  done;
  !total

let prop_probability_exact =
  qtest ~count:100 ~name:"Bdd.probability equals weighted enumeration" seed_arbitrary
    (fun seed ->
      let rng = Rng.create ~seed in
      let m = Bdd.create ~var_count:4 in
      let x = Array.init 4 (Bdd.var m) in
      let f =
        Bdd.bor m
          (Bdd.band m x.(0) (Bdd.bxor m x.(1) x.(2)))
          (Bdd.band m (Bdd.bnot m x.(3)) x.(1))
      in
      let probs = Array.init 4 (fun _ -> Rng.float rng) in
      let var_p v = probs.(v) in
      Float.abs
        (Bdd.probability m ~var_p f -. enumerate_probability m f ~var_count:4 ~var_p)
      < 1e-12)

let test_probability_terminals () =
  let m = Bdd.create ~var_count:1 in
  check_float "P(0)" 0.0 (Bdd.probability m Bdd.zero);
  check_float "P(1)" 1.0 (Bdd.probability m Bdd.one);
  check_float "P(x) default" 0.5 (Bdd.probability m (Bdd.var m 0))

let test_probability_validates () =
  let m = Bdd.create ~var_count:1 in
  match Bdd.probability m ~var_p:(fun _ -> 1.5) (Bdd.var m 0) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_size () =
  let m = Bdd.create ~var_count:3 in
  check_int "terminal size" 0 (Bdd.size m Bdd.one);
  let x0 = Bdd.var m 0 and x1 = Bdd.var m 1 and x2 = Bdd.var m 2 in
  let f = Bdd.band m x0 (Bdd.band m x1 x2) in
  check_int "AND chain has 3 nodes" 3 (Bdd.size m f)

(* --- circuit compilation ------------------------------------------------------ *)

let test_circuit_sp_matches_exact_fig1 () =
  let c = fig1 () in
  let cb = Circuit_bdd.build c in
  let input_sp = fig1_input_sp c in
  let exact = Sigprob.Sp_exact.compute ~spec:(Sigprob.Sp.of_fun input_sp) c in
  for v = 0 to Netlist.Circuit.node_count c - 1 do
    let bdd_p = Circuit_bdd.signal_probability ~input_sp cb v in
    if Float.abs (bdd_p -. Sigprob.Sp.get exact v) > 1e-12 then
      Alcotest.failf "SP mismatch at %s: %.6f vs %.6f" (Netlist.Circuit.node_name c v) bdd_p
        (Sigprob.Sp.get exact v)
  done

let test_circuit_sp_s27 () =
  let c = Circuit_gen.Embedded.s27 () in
  let cb = Circuit_bdd.build c in
  let exact = Sigprob.Sp_exact.compute c in
  let all = Circuit_bdd.all_signal_probabilities cb in
  Array.iteri
    (fun v p ->
      if Float.abs (p -. Sigprob.Sp.get exact v) > 1e-12 then
        Alcotest.failf "s27 SP mismatch at %s" (Netlist.Circuit.node_name c v))
    all

let prop_epp_exact_matches_enumeration =
  qtest ~count:20 ~name:"BDD epp_exact equals enumerated epp_exact on random DAGs"
    seed_arbitrary (fun seed ->
      let c = random_small_dag ~seed in
      let cb = Circuit_bdd.build c in
      let site = seed mod Netlist.Circuit.node_count c in
      let bdd_r = Circuit_bdd.epp_exact cb site in
      let enum_r = Fault_sim.Epp_exact.compute c site in
      Float.abs
        (bdd_r.Circuit_bdd.p_sensitized -. enum_r.Fault_sim.Epp_exact.p_sensitized)
      < 1e-12
      && List.for_all2
           (fun (_, p1) (_, p2) -> Float.abs (p1 -. p2) < 1e-12)
           bdd_r.Circuit_bdd.per_observation enum_r.Fault_sim.Epp_exact.per_observation)

let test_epp_exact_fig1 () =
  let c = fig1 () in
  let cb = Circuit_bdd.build c in
  let r = Circuit_bdd.epp_exact ~input_sp:(fig1_input_sp c) cb (Netlist.Circuit.find c "A") in
  check_float_eps 1e-12 "0.434 exactly" 0.434 r.Circuit_bdd.p_sensitized

(* The whole point of the BDD oracle: exactness beyond 20 inputs.  The
   profile below has 40 pseudo-inputs — unreachable for enumeration — and
   the BDD answer must still agree with a converged Monte-Carlo run. *)
let test_epp_exact_beyond_enumeration () =
  let profile =
    Circuit_gen.Profiles.make ~name:"wide40" ~inputs:40 ~outputs:6 ~ffs:0 ~gates:120
  in
  let c = Circuit_gen.Random_dag.generate ~seed:11 profile in
  let cb = Circuit_bdd.build c in
  let site = Netlist.Circuit.node_count c / 2 in
  let exact = Circuit_bdd.epp_exact cb site in
  let sim_ctx =
    Fault_sim.Epp_sim.create
      ~config:{ Fault_sim.Epp_sim.vectors = 200_000; input_sp = (fun _ -> 0.5) }
      c
  in
  let sim = Fault_sim.Epp_sim.estimate_site sim_ctx ~rng:(Rng.create ~seed:5) site in
  check_float_eps 5e-3 "BDD vs converged simulation"
    sim.Fault_sim.Epp_sim.p_sensitized exact.Circuit_bdd.p_sensitized

(* --- satisfiability and witnesses ------------------------------------------- *)

let test_any_sat_basics () =
  let m = Bdd.create ~var_count:3 in
  Alcotest.(check (option (array bool))) "zero unsat" None (Bdd.any_sat m Bdd.zero);
  (match Bdd.any_sat m Bdd.one with
  | Some _ -> ()
  | None -> Alcotest.fail "one must be satisfiable");
  let f = Bdd.band m (Bdd.var m 0) (Bdd.bnot m (Bdd.var m 2)) in
  match Bdd.any_sat m f with
  | Some a ->
    check_bool "x0 true" true a.(0);
    check_bool "x2 false" false a.(2);
    check_bool "assignment satisfies" true (Bdd.eval m f (fun v -> a.(v)))
  | None -> Alcotest.fail "satisfiable function"

let prop_any_sat_satisfies =
  qtest ~count:100 ~name:"any_sat returns a model whenever one exists" seed_arbitrary
    (fun seed ->
      let rng = Rng.create ~seed in
      let m = Bdd.create ~var_count:4 in
      let rec build depth =
        if depth = 0 then Bdd.var m (Rng.int rng ~bound:4)
        else
          let a = build (depth - 1) and b = build (depth - 1) in
          match Rng.int rng ~bound:3 with
          | 0 -> Bdd.band m a b
          | 1 -> Bdd.bor m a b
          | _ -> Bdd.bxor m a b
      in
      let f = build 3 in
      match Bdd.any_sat m f with
      | None -> f = Bdd.zero
      | Some a -> Bdd.eval m f (fun v -> a.(v)))

let test_count_sat () =
  let m = Bdd.create ~var_count:3 in
  check_float "zero" 0.0 (Bdd.count_sat m Bdd.zero);
  check_float "one over 3 vars" 8.0 (Bdd.count_sat m Bdd.one);
  check_float "single variable" 4.0 (Bdd.count_sat m (Bdd.var m 1));
  let f = Bdd.band m (Bdd.var m 0) (Bdd.var m 2) in
  check_float "conjunction" 2.0 (Bdd.count_sat m f);
  let g = Bdd.bxor m (Bdd.var m 0) (Bdd.var m 1) in
  check_float "xor" 4.0 (Bdd.count_sat m g)

let prop_count_sat_matches_probability =
  qtest ~count:50 ~name:"count_sat = probability * 2^vars" seed_arbitrary (fun seed ->
      let rng = Rng.create ~seed in
      let m = Bdd.create ~var_count:5 in
      let rec build depth =
        if depth = 0 then Bdd.var m (Rng.int rng ~bound:5)
        else
          let a = build (depth - 1) and b = build (depth - 1) in
          if Rng.bool rng then Bdd.band m a b else Bdd.bor m a b
      in
      let f = build 3 in
      Float.abs (Bdd.count_sat m f -. (Bdd.probability m f *. 32.0)) < 1e-6)

let test_witness_demonstrates_vulnerability () =
  (* The witness, applied to the real simulator, must flip the observation
     it names when the site is flipped. *)
  let c = fig1 () in
  let cb = Circuit_bdd.build c in
  let site = Netlist.Circuit.find c "A" in
  match Circuit_bdd.propagation_witness cb site with
  | None -> Alcotest.fail "A is clearly testable"
  | Some w ->
    let cs = Logic_sim.Sim.compile c in
    let assign v = List.assoc v w.Circuit_bdd.assignment in
    let good = Logic_sim.Sim.eval_bool cs ~assign in
    (* scalar faulty evaluation: the whole circuit, the site forced *)
    let faulty = Array.copy good in
    faulty.(site) <- not good.(site);
    Array.iter
      (fun v ->
        if v <> site then
          match Netlist.Circuit.node c v with
          | Netlist.Circuit.Gate { kind; fanins } ->
            faulty.(v) <- Netlist.Gate.eval kind (Array.map (fun u -> faulty.(u)) fanins)
          | Netlist.Circuit.Input | Netlist.Circuit.Ff _ -> ())
      (Netlist.Analysis.order (Netlist.Analysis.get c));
    let net = Netlist.Circuit.observation_net c w.Circuit_bdd.observation in
    check_bool "observation flips" true (good.(net) <> faulty.(net))

let test_witness_none_for_untestable () =
  let b = Netlist.Builder.create () in
  Netlist.Builder.add_input b "x";
  Netlist.Builder.add_gate b ~output:"zero" ~kind:Netlist.Gate.Const0 [];
  Netlist.Builder.add_gate b ~output:"y" ~kind:Netlist.Gate.And [ "x"; "zero" ];
  Netlist.Builder.add_output b "y";
  let c = Netlist.Builder.freeze b in
  let cb = Circuit_bdd.build c in
  (match Circuit_bdd.propagation_witness cb (Netlist.Circuit.find c "x") with
  | None -> ()
  | Some _ -> Alcotest.fail "x is masked by the constant")

let prop_witness_iff_positive_psens =
  qtest ~count:15 ~name:"witness exists iff exact P_sensitized > 0" seed_arbitrary
    (fun seed ->
      let c = random_small_dag ~seed in
      let cb = Circuit_bdd.build c in
      List.for_all
        (fun site ->
          let exact = (Circuit_bdd.epp_exact cb site).Circuit_bdd.p_sensitized in
          let witness = Circuit_bdd.propagation_witness cb site in
          (exact > 0.0) = (witness <> None))
        (List.init (Netlist.Circuit.node_count c) Fun.id))

let test_node_limit_enforced () =
  (* A wide XOR tree is benign, but an artificially tiny limit must trip. *)
  let c = Circuit_gen.Embedded.s27 () in
  match Circuit_bdd.build ~node_limit:4 c with
  | _ -> Alcotest.fail "expected Too_large"
  | exception Circuit_bdd.Too_large { limit = 4; _ } -> ()

let test_bad_site () =
  let cb = Circuit_bdd.build (fig1 ()) in
  Alcotest.check_raises "bad site" (Invalid_argument "Circuit_bdd.epp_exact: bad site")
    (fun () -> ignore (Circuit_bdd.epp_exact cb 999))

let () =
  Alcotest.run "bdd"
    [
      ( "manager",
        [
          Alcotest.test_case "terminals" `Quick test_terminals;
          Alcotest.test_case "variable range" `Quick test_var_out_of_range;
          Alcotest.test_case "canonicity" `Quick test_canonicity_hash_consing;
          Alcotest.test_case "ite" `Quick test_ite;
          prop_ops_match_boolean_semantics;
          prop_probability_exact;
          Alcotest.test_case "probability terminals" `Quick test_probability_terminals;
          Alcotest.test_case "probability validates" `Quick test_probability_validates;
          Alcotest.test_case "size" `Quick test_size;
        ] );
      ( "circuit",
        [
          Alcotest.test_case "SP matches enumeration (fig1)" `Quick
            test_circuit_sp_matches_exact_fig1;
          Alcotest.test_case "SP matches enumeration (s27)" `Quick test_circuit_sp_s27;
          prop_epp_exact_matches_enumeration;
          Alcotest.test_case "EPP exact on fig1" `Quick test_epp_exact_fig1;
          Alcotest.test_case "EPP exact beyond enumeration (40 inputs)" `Slow
            test_epp_exact_beyond_enumeration;
          Alcotest.test_case "node limit enforced" `Quick test_node_limit_enforced;
          Alcotest.test_case "bad site" `Quick test_bad_site;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "circuit equals itself" `Quick (fun () ->
              let c = Circuit_gen.Embedded.s27 () in
              match Circuit_bdd.check_equivalence c c with
              | Circuit_bdd.Equivalent -> ()
              | _ -> Alcotest.fail "self-equivalence");
          Alcotest.test_case "optimize is formally sound" `Quick (fun () ->
              (* Stronger than the randomized check in test_transform: a
                 proof over all inputs. *)
              for seed = 1 to 10 do
                let c = random_small_dag ~seed in
                match Circuit_bdd.check_equivalence c (Netlist.Transform.optimize c) with
                | Circuit_bdd.Equivalent -> ()
                | Circuit_bdd.Interface_mismatch m -> Alcotest.failf "seed %d: %s" seed m
                | Circuit_bdd.Differs { output; _ } ->
                  Alcotest.failf "seed %d differs at %s" seed output
              done);
          Alcotest.test_case "TMR is formally sound" `Quick (fun () ->
              let c = fig1 () in
              let g = Netlist.Circuit.find c "G" in
              match
                Circuit_bdd.check_equivalence c (Netlist.Transform.triplicate c ~nodes:[ g ])
              with
              | Circuit_bdd.Equivalent -> ()
              | _ -> Alcotest.fail "TMR must preserve functions");
          Alcotest.test_case "detects a real difference with counterexample" `Quick (fun () ->
              let build kind =
                let b = Netlist.Builder.create () in
                Netlist.Builder.add_input b "a";
                Netlist.Builder.add_input b "b";
                Netlist.Builder.add_gate b ~output:"y" ~kind [ "a"; "b" ];
                Netlist.Builder.add_output b "y";
                Netlist.Builder.freeze b
              in
              let c_and = build Netlist.Gate.And and c_or = build Netlist.Gate.Or in
              match Circuit_bdd.check_equivalence c_and c_or with
              | Circuit_bdd.Differs { output = "y"; counterexample } ->
                (* the counterexample must actually separate AND from OR *)
                let value name = List.assoc name counterexample in
                check_bool "separates" true (value "a" && value "b" = false || (not (value "a")) && value "b")
              | _ -> Alcotest.fail "expected Differs on y");
          Alcotest.test_case "interface mismatch reported" `Quick (fun () ->
              let c1 = fig1 () and c2 = small_tree () in
              match Circuit_bdd.check_equivalence c1 c2 with
              | Circuit_bdd.Interface_mismatch _ -> ()
              | _ -> Alcotest.fail "different interfaces");
        ] );
      ( "sat",
        [
          Alcotest.test_case "any_sat basics" `Quick test_any_sat_basics;
          prop_any_sat_satisfies;
          Alcotest.test_case "count_sat" `Quick test_count_sat;
          prop_count_sat_matches_probability;
          Alcotest.test_case "witness demonstrates vulnerability" `Quick
            test_witness_demonstrates_vulnerability;
          Alcotest.test_case "no witness when untestable" `Quick
            test_witness_none_for_untestable;
          prop_witness_iff_positive_psens;
        ] );
    ]
