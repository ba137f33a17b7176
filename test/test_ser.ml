(* Tests for the SEU technology model, latching model, FIT arithmetic, the
   full SER estimator and the hardening/ranking layer. *)

open Helpers
open Netlist

(* --- technology ------------------------------------------------------------- *)

let test_r_seu_positive_for_gates () =
  let t = Seu_model.Technology.default in
  List.iter
    (fun kind ->
      let r = Seu_model.Technology.r_seu t ~kind:(Some kind) ~fanin:2 in
      if Gate.is_constant kind then check_float (Gate.to_string kind) 0.0 r
      else check_bool (Gate.to_string kind) true (r > 0.0))
    Gate.all

let test_r_seu_zero_for_non_gates () =
  check_float "inputs have no rate" 0.0
    (Seu_model.Technology.r_seu Seu_model.Technology.default ~kind:None ~fanin:0)

let test_r_seu_grows_with_fanin () =
  let t = Seu_model.Technology.default in
  let r2 = Seu_model.Technology.r_seu t ~kind:(Some Gate.And) ~fanin:2 in
  let r4 = Seu_model.Technology.r_seu t ~kind:(Some Gate.And) ~fanin:4 in
  check_bool "wider gate, more area" true (r4 > r2)

let test_r_seu_scaling_trend () =
  (* The Shivakumar trend: smaller nodes are more susceptible per gate. *)
  let r tech = Seu_model.Technology.r_seu tech ~kind:(Some Gate.Nand) ~fanin:2 in
  check_bool "65nm > 130nm" true (r Seu_model.Technology.bulk_65nm > r Seu_model.Technology.bulk_130nm);
  check_bool "130nm > 180nm" true (r Seu_model.Technology.bulk_130nm > r Seu_model.Technology.bulk_180nm)

let test_r_seu_negative_fanin () =
  Alcotest.check_raises "negative fanin" (Invalid_argument "Technology.r_seu: negative fanin")
    (fun () ->
      ignore
        (Seu_model.Technology.r_seu Seu_model.Technology.default ~kind:(Some Gate.And) ~fanin:(-1)))

let test_presets_findable () =
  List.iter
    (fun (t : Seu_model.Technology.t) ->
      match Seu_model.Technology.find_preset t.Seu_model.Technology.name with
      | Some t' -> check_string "found" t.Seu_model.Technology.name t'.Seu_model.Technology.name
      | None -> Alcotest.failf "preset %s not found" t.Seu_model.Technology.name)
    Seu_model.Technology.presets;
  check_bool "unknown preset" true (Seu_model.Technology.find_preset "vacuum-tube" = None)

(* --- latching ----------------------------------------------------------------- *)

let test_latching_window () =
  let m = Seu_model.Latching.default in
  (* (100 + 50 + 50) ps over 1 ns = 0.2 *)
  check_float_eps 1e-12 "window" 0.2 (Seu_model.Latching.p_latched_ff m)

let test_latching_saturates () =
  let m = { Seu_model.Latching.default with Seu_model.Latching.pulse_width = 5.0e-9 } in
  check_float "capped at 1" 1.0 (Seu_model.Latching.p_latched_ff m)

let test_latching_validation () =
  let bad = { Seu_model.Latching.default with Seu_model.Latching.clock_period = 0.0 } in
  Alcotest.check_raises "zero period"
    (Invalid_argument "Latching.check: clock_period must be positive") (fun () ->
      Seu_model.Latching.check bad);
  let bad2 = { Seu_model.Latching.default with Seu_model.Latching.po_capture = 1.5 } in
  Alcotest.check_raises "po_capture range"
    (Invalid_argument "Latching.check: po_capture outside [0,1]") (fun () ->
      Seu_model.Latching.check bad2)

let test_latching_dispatch () =
  let c = shift_register () in
  let m = Seu_model.Latching.default in
  let po = List.hd (Circuit.observations c) in
  check_float "PO capture" 1.0 (Seu_model.Latching.p_latched m po);
  let ffd = Circuit.Ff_data (Circuit.find c "q0") in
  check_float_eps 1e-12 "FF window" 0.2 (Seu_model.Latching.p_latched m ffd)

(* --- FIT ----------------------------------------------------------------------- *)

let test_fit_conversions () =
  check_float "1e-9/h" 1.0 (Seu_model.Fit.of_rate_per_second (1.0 /. (1.0e9 *. 3600.0)));
  let r = 2.5e-13 in
  check_float_eps 1e-9 "round-trip" r (Seu_model.Fit.to_rate_per_second (Seu_model.Fit.of_rate_per_second r))

let test_fit_mtbf () =
  check_float "1000 FIT -> 1e6 h" 1.0e6 (Seu_model.Fit.mtbf_hours 1000.0);
  check_bool "0 FIT -> infinite" true (Seu_model.Fit.mtbf_hours 0.0 = infinity)

let test_fit_rejects_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Fit.of_rate_per_second: negative rate")
    (fun () -> ignore (Seu_model.Fit.of_rate_per_second (-1.0)))

(* --- estimator ------------------------------------------------------------------ *)

let test_estimate_totals_additive () =
  let c = fig1 () in
  let report = Epp.Ser_estimator.estimate c in
  let sum =
    Array.fold_left (fun acc n -> acc +. n.Epp.Ser_estimator.failure_rate) 0.0
      report.Epp.Ser_estimator.nodes
  in
  check_float_eps 1e-18 "total is the sum" sum report.Epp.Ser_estimator.total_failure_rate;
  check_bool "total positive" true (report.Epp.Ser_estimator.total_fit > 0.0)

let test_estimate_inputs_contribute_nothing () =
  let c = fig1 () in
  let report = Epp.Ser_estimator.estimate c in
  let i1 = Epp.Ser_estimator.node_report report (Circuit.find c "I1") in
  check_float "R_SEU(input) = 0" 0.0 i1.Epp.Ser_estimator.r_seu;
  check_float "no contribution" 0.0 i1.Epp.Ser_estimator.fit

let test_estimate_node_indexing () =
  let c = fig1 () in
  let report = Epp.Ser_estimator.estimate c in
  let h = Circuit.find c "H" in
  let nr = Epp.Ser_estimator.node_report report h in
  check_int "indexed by node id" h nr.Epp.Ser_estimator.node;
  check_string "named" "H" nr.Epp.Ser_estimator.name;
  Alcotest.check_raises "bad node" (Invalid_argument "Ser_estimator.node_report: bad node")
    (fun () -> ignore (Epp.Ser_estimator.node_report report 999))

let test_estimate_conventions_order () =
  (* Per_observation cannot exceed Per_node when PO capture is 1 and the FF
     window < 1... both are defensible; just check both are valid and the
     refined one differs on a sequential circuit. *)
  let c = Circuit_gen.Embedded.s27 () in
  let per_obs = Epp.Ser_estimator.estimate ~convention:Epp.Ser_estimator.Per_observation c in
  let per_node = Epp.Ser_estimator.estimate ~convention:Epp.Ser_estimator.Per_node c in
  check_bool "both positive" true
    (per_obs.Epp.Ser_estimator.total_fit > 0.0 && per_node.Epp.Ser_estimator.total_fit > 0.0);
  check_bool "conventions differ on sequential circuits" true
    (Float.abs (per_obs.Epp.Ser_estimator.total_fit -. per_node.Epp.Ser_estimator.total_fit)
     > 1e-9)

let test_estimate_technology_scales_total () =
  let c = fig1 () in
  let t65 = Epp.Ser_estimator.estimate ~technology:Seu_model.Technology.bulk_65nm c in
  let t180 = Epp.Ser_estimator.estimate ~technology:Seu_model.Technology.bulk_180nm c in
  check_bool "smaller node, higher SER" true
    (t65.Epp.Ser_estimator.total_fit > t180.Epp.Ser_estimator.total_fit)

let test_estimate_latched_effective_bounds () =
  let c = Circuit_gen.Embedded.s27 () in
  let report = Epp.Ser_estimator.estimate c in
  Array.iter
    (fun n ->
      let p = n.Epp.Ser_estimator.p_latched_effective in
      if not (p >= 0.0 && p <= 1.0) then
        Alcotest.failf "p_latched_effective out of range at %s: %g" n.Epp.Ser_estimator.name p)
    report.Epp.Ser_estimator.nodes

let same_node_report (a : Epp.Ser_estimator.node_report)
    (b : Epp.Ser_estimator.node_report) =
  let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  a.node = b.node && a.name = b.name && same a.r_seu b.r_seu
  && same a.p_sensitized b.p_sensitized
  && same a.p_latched_effective b.p_latched_effective
  && same a.failure_rate b.failure_rate && same a.fit b.fit
  && a.cone_size = b.cone_size

(* The rows front end composes what the list front end composes from the
   reference's results, bit for bit: the total and every node, under both
   conventions and with electrical derating. *)
let test_of_outcome_matches_site_results () =
  List.iter
    (fun (name, c) ->
      let engine = Epp.Epp_engine.create c in
      let n = Circuit.node_count c in
      let outcome = Epp.Supervisor.sweep_all ~domains:1 engine in
      let reference = List.init n (Epp.Epp_engine.analyze_site engine) in
      List.iter
        (fun (how, convention, electrical) ->
          let rows =
            Epp.Ser_estimator.of_outcome ~convention ?electrical engine outcome
          in
          let lists =
            Epp.Ser_estimator.of_site_results ~convention ?electrical c reference
          in
          check_bool
            (Printf.sprintf "%s, %s: total bit-identical" name how)
            true
            (Int64.equal
               (Int64.bits_of_float rows.Epp.Ser_estimator.total_fit)
               (Int64.bits_of_float lists.Epp.Ser_estimator.total_fit));
          for v = 0 to n - 1 do
            if
              not
                (same_node_report
                   (Epp.Ser_estimator.node_report rows v)
                   (Epp.Ser_estimator.node_report lists v))
            then Alcotest.failf "%s, %s: node %d differs" name how v
          done)
        [
          ("per observation", Epp.Ser_estimator.Per_observation, None);
          ("per node", Epp.Ser_estimator.Per_node, None);
          ( "electrical",
            Epp.Ser_estimator.Per_observation,
            Some Seu_model.Electrical.default );
        ])
    [
      ("s27", Circuit_gen.Embedded.s27 ());
      ("s1196:3", Circuit_gen.Random_dag.generate ~seed:3 Circuit_gen.Profiles.s1196);
    ]

(* A report that lacks a site answers for the others by id and refuses the
   missing one, from a subset of results and from a quarantine alike. *)
let test_node_report_partial () =
  let c = Circuit_gen.Embedded.s27 () in
  let engine = Epp.Epp_engine.create c in
  let full = Epp.Ser_estimator.estimate c in
  let missing = Circuit.find c "G9" in
  let not_analyzed =
    Invalid_argument
      (Printf.sprintf "Ser_estimator.node_report: node %d was not analyzed"
         missing)
  in
  let subset =
    Epp.Ser_estimator.of_site_results c
      (List.filter
         (fun (r : Epp.Epp_engine.site_result) -> r.Epp.Epp_engine.site <> missing)
         (Epp.Ser_estimator.analyze_all engine))
  in
  let quarantined =
    Epp.Ser_estimator.of_outcome engine
      (Epp.Supervisor.sweep_all ~domains:1
         ~batch_run:(fun block sites ->
           Array.mapi
             (fun l r ->
               if sites.(l) = missing then Error (Failure "injected") else r)
             (Epp.Epp_batch.Block.run block sites))
         ~reference:(fun engine site ->
           if site = missing then failwith "injected"
           else Epp.Epp_engine.analyze_site engine site)
         engine)
  in
  List.iter
    (fun (how, report) ->
      check_int (how ^ ": one site short")
        (Circuit.node_count c - 1)
        (Array.length report.Epp.Ser_estimator.nodes);
      for v = 0 to Circuit.node_count c - 1 do
        if v = missing then
          Alcotest.check_raises (how ^ ": the missing node") not_analyzed
            (fun () -> ignore (Epp.Ser_estimator.node_report report v))
        else
          check_bool
            (Printf.sprintf "%s: node %d by id" how v)
            true
            (same_node_report
               (Epp.Ser_estimator.node_report report v)
               (Epp.Ser_estimator.node_report full v))
      done)
    [ ("subset", subset); ("quarantine", quarantined) ]

(* --- ranking and hardening -------------------------------------------------------- *)

let test_ranking_sorted () =
  let c = Circuit_gen.Embedded.s27 () in
  let report = Epp.Ser_estimator.estimate c in
  let ranked = Epp.Ranking.ranked report in
  check_int "all nodes ranked" (Array.length report.Epp.Ser_estimator.nodes) (List.length ranked);
  let rec check_desc = function
    | a :: (b :: _ as rest) ->
      check_bool "descending FIT" true
        (a.Epp.Ranking.report.Epp.Ser_estimator.fit >= b.Epp.Ranking.report.Epp.Ser_estimator.fit);
      check_desc rest
    | [ _ ] | [] -> ()
  in
  check_desc ranked;
  List.iteri (fun i e -> check_int "rank sequence" (i + 1) e.Epp.Ranking.rank) ranked

let test_top_k () =
  let c = fig1 () in
  let report = Epp.Ser_estimator.estimate c in
  check_int "top 3" 3 (List.length (Epp.Ranking.top_k report 3));
  check_int "top 0" 0 (List.length (Epp.Ranking.top_k report 0));
  check_int "top beyond size" (Circuit.node_count c)
    (List.length (Epp.Ranking.top_k report 1000));
  Alcotest.check_raises "negative k" (Invalid_argument "Ranking.top_k: negative k") (fun () ->
      ignore (Epp.Ranking.top_k report (-1)))

(* top_k selects without sorting every node; it must still be exactly the
   head of the full ranking, on reports whose FITs tie (and include a NaN),
   for k at and around the edges. *)
let prop_top_k_is_ranked_prefix =
  let base = Epp.Ser_estimator.estimate (Circuit_gen.Embedded.s27 ()) in
  qtest ~count:200 ~name:"top_k = first k of ranked, with ties" seed_arbitrary
    (fun seed ->
      let rng = Rng.create ~seed in
      let pool = [| 0.0; 1.5; 1.5; 2.25; 7.0; Float.nan |] in
      let n = 1 + Rng.int rng ~bound:40 in
      (* unique node ids in a shuffled order, FITs drawn from a small pool *)
      let ids = Array.init n (fun i -> i * 3) in
      for i = n - 1 downto 1 do
        let j = Rng.int rng ~bound:(i + 1) in
        let t = ids.(i) in
        ids.(i) <- ids.(j);
        ids.(j) <- t
      done;
      let template = base.Epp.Ser_estimator.nodes.(0) in
      let nodes =
        Array.map
          (fun node ->
            {
              template with
              Epp.Ser_estimator.node;
              fit = pool.(Rng.int rng ~bound:(Array.length pool));
            })
          ids
      in
      let report = { base with Epp.Ser_estimator.nodes } in
      let ranked = Epp.Ranking.ranked report in
      List.for_all
        (fun k ->
          let top = Epp.Ranking.top_k report k in
          List.length top = min k n
          && List.for_all2
               (fun (a : Epp.Ranking.entry) (b : Epp.Ranking.entry) ->
                 a.rank = b.rank && a.report == b.report)
               top
               (List.filteri (fun i _ -> i < k) ranked))
        [ 0; 1; n - 1; n; n + 5 ])

let test_hardening_plan_reaches_target () =
  let c = Circuit_gen.Embedded.s27 () in
  let report = Epp.Ser_estimator.estimate c in
  let plan = Epp.Ranking.hardening_plan report ~target_fraction:0.5 in
  check_bool "covered at least 50%" true (plan.Epp.Ranking.covered_fraction >= 0.5);
  check_float_eps 1e-9 "residual + covered = total"
    report.Epp.Ser_estimator.total_fit
    (plan.Epp.Ranking.covered_fit +. plan.Epp.Ranking.residual_fit);
  (* Greedy minimality: dropping the last selected node must fall short. *)
  let k = List.length plan.Epp.Ranking.selected in
  let without_last =
    List.filteri (fun i _ -> i < k - 1) plan.Epp.Ranking.selected
    |> List.fold_left (fun acc e -> acc +. e.Epp.Ranking.report.Epp.Ser_estimator.fit) 0.0
  in
  check_bool "one fewer is not enough" true
    (without_last < 0.5 *. report.Epp.Ser_estimator.total_fit)

let test_hardening_plan_extremes () =
  let c = fig1 () in
  let report = Epp.Ser_estimator.estimate c in
  let none = Epp.Ranking.hardening_plan report ~target_fraction:0.0 in
  check_int "0%: nothing selected" 0 (List.length none.Epp.Ranking.selected);
  let full = Epp.Ranking.hardening_plan report ~target_fraction:1.0 in
  check_bool "100%: everything contributing selected" true
    (full.Epp.Ranking.covered_fraction >= 1.0 -. 1e-9);
  Alcotest.check_raises "fraction range"
    (Invalid_argument "Ranking.hardening_plan: target_fraction outside [0,1]") (fun () ->
      ignore (Epp.Ranking.hardening_plan report ~target_fraction:1.5))

let prop_estimator_consistent_on_random =
  qtest ~count:10 ~name:"estimator invariants on random DAGs" seed_arbitrary (fun seed ->
      let c = random_small_dag ~seed in
      let report = Epp.Ser_estimator.estimate c in
      Array.for_all
        (fun n ->
          n.Epp.Ser_estimator.failure_rate >= 0.0
          && n.Epp.Ser_estimator.p_sensitized >= 0.0
          && n.Epp.Ser_estimator.p_sensitized <= 1.0
          && n.Epp.Ser_estimator.fit
             = Seu_model.Fit.of_rate_per_second n.Epp.Ser_estimator.failure_rate)
        report.Epp.Ser_estimator.nodes)

let () =
  Alcotest.run "ser"
    [
      ( "technology",
        [
          Alcotest.test_case "positive rates for gates" `Quick test_r_seu_positive_for_gates;
          Alcotest.test_case "zero for non-gates" `Quick test_r_seu_zero_for_non_gates;
          Alcotest.test_case "grows with fanin" `Quick test_r_seu_grows_with_fanin;
          Alcotest.test_case "technology scaling trend" `Quick test_r_seu_scaling_trend;
          Alcotest.test_case "negative fanin" `Quick test_r_seu_negative_fanin;
          Alcotest.test_case "presets findable" `Quick test_presets_findable;
        ] );
      ( "latching",
        [
          Alcotest.test_case "window formula" `Quick test_latching_window;
          Alcotest.test_case "saturates at 1" `Quick test_latching_saturates;
          Alcotest.test_case "validation" `Quick test_latching_validation;
          Alcotest.test_case "dispatch by observation kind" `Quick test_latching_dispatch;
        ] );
      ( "fit",
        [
          Alcotest.test_case "conversions" `Quick test_fit_conversions;
          Alcotest.test_case "mtbf" `Quick test_fit_mtbf;
          Alcotest.test_case "negative rejected" `Quick test_fit_rejects_negative;
        ] );
      ( "estimator",
        [
          Alcotest.test_case "totals additive" `Quick test_estimate_totals_additive;
          Alcotest.test_case "inputs contribute nothing" `Quick
            test_estimate_inputs_contribute_nothing;
          Alcotest.test_case "node indexing" `Quick test_estimate_node_indexing;
          Alcotest.test_case "latching conventions" `Quick test_estimate_conventions_order;
          Alcotest.test_case "technology scales total" `Quick test_estimate_technology_scales_total;
          Alcotest.test_case "latched_effective bounded" `Quick
            test_estimate_latched_effective_bounds;
          Alcotest.test_case "of_outcome = of_site_results" `Quick
            test_of_outcome_matches_site_results;
          Alcotest.test_case "node_report on a partial report" `Quick
            test_node_report_partial;
          prop_estimator_consistent_on_random;
        ] );
      ( "ranking",
        [
          Alcotest.test_case "sorted and sequentially ranked" `Quick test_ranking_sorted;
          Alcotest.test_case "top_k" `Quick test_top_k;
          prop_top_k_is_ranked_prefix;
          Alcotest.test_case "hardening plan reaches target" `Quick
            test_hardening_plan_reaches_target;
          Alcotest.test_case "hardening plan extremes" `Quick test_hardening_plan_extremes;
        ] );
    ]
