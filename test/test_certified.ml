(* Property tests for the certified exact tier (Conformance.Certified) and
   its supporting BDD machinery: soundness of the interval rung against
   exhaustive enumeration, interval tightening under budget increases,
   Wilson-certificate rejection of a biased Monte-Carlo seam, function
   preservation under sifting, and pinned golden exact values for the
   reference circuits. *)

open Helpers
open Netlist
module Certified = Conformance.Certified

let no_mc = { Certified.default_config with mc_max_vectors = 0 }

let enum ?input_sp c site =
  (Fault_sim.Epp_exact.compute ?input_sp c site).Fault_sim.Epp_exact.p_sensitized

(* --- rung-2 soundness: interval contains enumeration ----------------------- *)

(* The acceptance property: for every site of >=500 random reconvergent
   DAGs, the certified interval bounds contain the exhaustive-enumeration
   value.  The bounds are Fréchet/error-difference propagation, so they
   must be valid under the arbitrary correlation these DAGs produce. *)
let test_interval_soundness =
  qtest ~count:500 ~name:"certified interval contains enumeration (500 DAGs)"
    seed_arbitrary (fun seed ->
      with_repro ~build:(fun s -> random_small_dag ~seed:s) seed (fun c ->
          let ok = ref true in
          for site = 0 to Circuit.node_count c - 1 do
            let exact = enum c site in
            let lo, hi = Certified.interval_bounds c site in
            if not (lo -. 1e-9 <= exact && exact <= hi +. 1e-9) then begin
              ok := false;
              ignore
                (QCheck2.Test.fail_report
                   (Printf.sprintf "site %d (%s): exact %.9g outside [%.9g, %.9g]"
                      site (Circuit.node_name c site) exact lo hi))
            end
          done;
          !ok))

(* The full ladder on small circuits lands on the BDD rung: a degenerate
   interval equal to enumeration, certificate and all. *)
let test_bdd_rung_exact =
  qtest ~count:100 ~name:"BDD rung matches enumeration exactly" seed_arbitrary
    (fun seed ->
      with_repro ~build:(fun s -> random_small_dag ~seed:s) seed (fun c ->
          let n = Circuit.node_count c in
          List.for_all
            (fun site ->
              let v = Certified.certify ~config:no_mc c site in
              let exact = enum c site in
              (match v.Certified.certificate with
              | Certified.Bdd_exact _ -> ()
              | cert ->
                ignore
                  (QCheck2.Test.fail_report
                     (Fmt.str "site %d: expected Bdd_exact, got %a" site
                        Certified.pp_certificate cert)));
              Certified.is_exact v
              && Float.abs (v.Certified.lo -. exact) <= 1e-9)
            [ 0; n / 2; n - 1 ]))

(* --- tightening: intervals are monotone under budget increases ------------- *)

let first_gate c = List.find (Circuit.is_gate c) (List.init (Circuit.node_count c) Fun.id)

let tightening seed =
  with_repro ~build:(fun s -> random_small_dag ~seed:s) seed (fun c ->
      let site = first_gate c in
      let verdict budget =
        Certified.certify ~config:{ no_mc with node_budget = budget } c site
      in
      let nested (a : Certified.verdict) (b : Certified.verdict) =
        (* b's budget >= a's: b's interval must lie inside a's. *)
        b.Certified.lo >= a.Certified.lo -. 1e-12
        && b.Certified.hi <= a.Certified.hi +. 1e-12
      in
      let v0 = verdict 16 and v1 = verdict 400 and v2 = verdict 400_000 in
      nested v0 v1 && nested v1 v2 && nested v0 v2)

let test_tightening =
  qtest ~count:200 ~name:"intervals tighten monotonically with budget"
    seed_arbitrary tightening

(* Seed 174540 (drawn under QCHECK_SEED=31337): at a 16-node budget its
   first gate's cone BDD crossed half the budget while the observation
   indicators were being built, and the one-shot sift left the indicators
   built so far pointing into the discarded manager. *)
let test_tightening_pinned_seed () =
  match tightening 174540 with
  | true -> ()
  | false -> Alcotest.fail "tightening seed 174540 failed"
  | exception QCheck2.Test.Test_fail (_, msgs) ->
    Alcotest.failf "tightening seed 174540: %s" (String.concat "; " msgs)

(* The same site straight through Cone_bdd: no sift once the indicators are
   being built, so the manager ends over budget/2 unsifted, and the value is
   exact. *)
let test_cone_bdd_no_late_sift () =
  let c = random_small_dag ~seed:174540 in
  let site = first_gate c in
  match Cone_bdd.epp_exact_cone ~node_budget:16 c site with
  | Cone_bdd.Exact e ->
    check_bool "not sifted" false e.Cone_bdd.reordered;
    check_bool "past half the budget" true (e.Cone_bdd.bdd_nodes > 8);
    check_float "exact" (enum c site) e.Cone_bdd.p_sensitized
  | Cone_bdd.Budget_exceeded { nodes; _ } ->
    Alcotest.failf "budget exceeded at %d nodes" nodes

(* --- rung-3 Wilson certificates -------------------------------------------- *)

(* y = AND(s, x, y): an error on s propagates iff x AND y, so the true
   P_sensitized is 0.25 while the sound interval is the loose [0, 0.5]
   (the off-path conjunction is only Fréchet-bounded).  Wide enough to
   trigger MC tightening deterministically once the BDD rung is disabled. *)
let seam_circuit () =
  let b = Builder.create ~name:"seam" () in
  List.iter (Builder.add_input b) [ "s"; "x"; "y" ];
  Builder.add_gate b ~output:"g" ~kind:Gate.And [ "s"; "x"; "y" ];
  Builder.add_output b "g";
  Builder.freeze b

let mc_config =
  {
    Certified.default_config with
    node_budget = 0 (* skip the symbolic rung: drive the MC seam *);
    target_width = 0.05;
    mc_base_vectors = 1024;
    mc_max_vectors = 16_384;
  }

let test_wilson_honest () =
  let c = seam_circuit () in
  let site = Circuit.find c "s" in
  let stats = Certified.Stats.create () in
  let v = Certified.certify ~config:mc_config ~stats c site in
  (match v.Certified.certificate with
  | Certified.Mc_wilson { vectors; _ } -> check_bool "vectors grew" true (vectors >= 1024)
  | cert -> Alcotest.failf "expected Mc_wilson, got %a" Certified.pp_certificate cert);
  check_bool "contains the true value 0.25" true
    (v.Certified.lo <= 0.25 && 0.25 <= v.Certified.hi);
  check_bool "tighter than the sound interval" true
    (v.Certified.hi -. v.Certified.lo < 0.5);
  check_int "one certified MC verdict" 1 (Certified.Stats.mc_certified stats);
  check_int "the disabled symbolic rung counts as a trip" 1
    (Certified.Stats.budget_trips stats)

let test_wilson_rejects_biased_seam () =
  (* A sampler stuck at 0.9 produces a Wilson interval disjoint from the
     sound [0, 0.5] bound: the certificate must be REJECTED and the sound
     interval stand. *)
  let c = seam_circuit () in
  let site = Circuit.find c "s" in
  let biased _c ~input_sp:_ ~vectors:_ ~seed:_ ~site:_ = 0.9 in
  let stats = Certified.Stats.create () in
  let v = Certified.certify ~config:mc_config ~sampler:biased ~stats c site in
  (match v.Certified.certificate with
  | Certified.Interval_bound -> ()
  | cert ->
    Alcotest.failf "biased seam must fall back to Interval_bound, got %a"
      Certified.pp_certificate cert);
  check_int "rejection recorded" 1 (Certified.Stats.mc_rejected stats);
  check_int "no MC certificate issued" 0 (Certified.Stats.mc_certified stats);
  (* The surviving interval is the sound one — still contains the truth. *)
  check_bool "sound bound stands" true
    (v.Certified.lo <= 0.25 && 0.25 <= v.Certified.hi)

(* --- sifting preserves functions ------------------------------------------- *)

let test_reorder_preserves =
  qtest ~count:50 ~name:"sifting preserves every root function" seed_arbitrary
    (fun seed ->
      with_repro ~build:(fun s -> random_small_dag ~seed:s) seed (fun c ->
          let cb = Circuit_bdd.build c in
          let m = Circuit_bdd.manager cb in
          let roots =
            Array.of_list
              (List.map (fun v -> Circuit_bdd.node_function cb v) (Circuit.outputs c))
          in
          let plan, m', roots' = Bdd.Reorder.sift m ~roots in
          if plan.Bdd.Reorder.size_after > plan.Bdd.Reorder.size_before then
            ignore
              (QCheck2.Test.fail_report
                 (Printf.sprintf "sifting grew the graph: %d -> %d"
                    plan.Bdd.Reorder.size_before plan.Bdd.Reorder.size_after));
          let rng = Rng.create ~seed in
          let inputs = Circuit.input_count c + Circuit.ff_count c in
          let ok = ref true in
          for _ = 1 to 32 do
            let a = Array.init inputs (fun _ -> Rng.bool rng) in
            Array.iteri
              (fun i root ->
                let before = Bdd.eval m root (fun v -> a.(v)) in
                let after =
                  Bdd.eval m' roots'.(i) (fun v -> a.(plan.Bdd.Reorder.perm.(v)))
                in
                if before <> after then ok := false)
              roots
          done;
          !ok))

(* --- golden exact values ---------------------------------------------------- *)

(* Exact P_sensitized literals computed once by weighted enumeration and
   pinned, so a silent regression in the BDD or enumeration back-ends
   cannot drift past a merely self-consistent panel.  GOLDEN: values from
   Fault_sim.Epp_exact at the stated input probabilities. *)
let check_golden name c input_sp expected =
  List.iter
    (fun (site_name, value) ->
      let site = Circuit.find c site_name in
      let label = name ^ ":" ^ site_name in
      check_float (label ^ " enumeration") value (enum ~input_sp c site);
      let v = Certified.certify ~config:no_mc ~input_sp c site in
      check_bool (label ^ " certified exact") true (Certified.is_exact v);
      check_float (label ^ " certified value") value v.Certified.lo)
    expected

let test_golden_fig1 () =
  let c = fig1 () in
  (* Site A with SP_B = 0.2, SP_C = 0.3, SP_F = 0.7 is the paper's
     published Fig. 1 computation: enumeration confirms 0.434 exactly
     (the analytical rules are exact on this circuit). *)
  check_golden "fig1" c (fig1_input_sp c)
    [ ("A", 0.434); ("D", 0.3325); ("G", 0.665) ]

let test_golden_c17 () =
  let c = Circuit_gen.Embedded.c17 () in
  check_golden "c17" c
    (fun _ -> 0.5)
    [ ("G10", 0.625); ("G11", 0.75); ("G16", 0.9375); ("G19", 0.625) ]

let test_golden_s27 () =
  let c = Circuit_gen.Embedded.s27 () in
  check_golden "s27" c
    (fun _ -> 0.5)
    [ ("G14", 0.9375); ("G8", 0.4375); ("G15", 0.3125) ]

let () =
  Alcotest.run "certified"
    [
      ( "soundness",
        [
          test_interval_soundness;
          test_bdd_rung_exact;
          test_tightening;
          Alcotest.test_case "tightening pinned seed 174540" `Quick
            test_tightening_pinned_seed;
        ] );
      ( "wilson",
        [
          Alcotest.test_case "honest seam certifies" `Quick test_wilson_honest;
          Alcotest.test_case "biased seam rejected" `Quick test_wilson_rejects_biased_seam;
        ] );
      ( "reorder",
        [
          test_reorder_preserves;
          Alcotest.test_case "no sift once indicators are built" `Quick
            test_cone_bdd_no_late_sift;
        ] );
      ( "golden",
        [
          Alcotest.test_case "fig1" `Quick test_golden_fig1;
          Alcotest.test_case "c17" `Quick test_golden_c17;
          Alcotest.test_case "s27" `Quick test_golden_s27;
        ] );
    ]
