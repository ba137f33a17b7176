(* Accuracy/cost sweep of the random-simulation baseline against the
   analytical EPP engine.

   The paper's motivation in one plot: the simulation baseline needs ever
   more vectors (time) to converge, while the analytical EPP computes a
   site in microseconds at fixed accuracy.  For a batch of sites of an
   s1196-profiled circuit we sweep the vector budget and report the
   baseline's deviation from its own converged answer, next to the
   EPP-vs-simulation gap and both runtimes.

     dune exec examples/accuracy_sweep.exe *)

open Netlist

let () =
  let circuit = Circuit_gen.Random_dag.generate ~seed:3 Circuit_gen.Profiles.s1196 in
  Fmt.pr "%a@.@." Circuit.pp circuit;
  let sp = (Sigprob.Sp_sequential.compute circuit).Sigprob.Sp_sequential.result in
  let engine = Epp.Epp_engine.create ~sp circuit in
  let input_sp = Sigprob.Sp.baseline_input_sp sp in
  let rng = Rng.create ~seed:11 in
  let sites =
    Array.to_list
      (Rng.sample_without_replacement rng ~count:25 ~universe:(Circuit.node_count circuit))
  in
  (* Reference: the baseline itself with a large budget. *)
  let reference_ctx =
    Fault_sim.Epp_sim.create ~config:{ Fault_sim.Epp_sim.vectors = 200_000; input_sp } circuit
  in
  let reference =
    List.map
      (fun s ->
        (s, (Fault_sim.Epp_sim.estimate_site reference_ctx ~rng s).Fault_sim.Epp_sim.p_sensitized))
      sites
  in
  let epp_results, epp_time =
    Report.Timer.time (fun () -> Epp.Ser_estimator.analyze_sites engine sites)
  in
  let epp_gap =
    List.fold_left2
      (fun acc (r : Epp.Epp_engine.site_result) (_, ref_p) ->
        acc +. Float.abs (r.Epp.Epp_engine.p_sensitized -. ref_p))
      0.0 epp_results reference
    /. float_of_int (List.length sites)
  in
  let rows =
    List.map
      (fun vectors ->
        let ctx = Fault_sim.Epp_sim.create ~config:{ Fault_sim.Epp_sim.vectors; input_sp } circuit in
        let results, t =
          Report.Timer.time (fun () ->
              List.map (fun s -> Fault_sim.Epp_sim.estimate_site ctx ~rng s) sites)
        in
        let gap =
          List.fold_left2
            (fun acc (r : Fault_sim.Epp_sim.site_estimate) (_, ref_p) ->
              acc +. Float.abs (r.Fault_sim.Epp_sim.p_sensitized -. ref_p))
            0.0 results reference
          /. float_of_int (List.length sites)
        in
        [
          string_of_int vectors;
          Printf.sprintf "%.2f" (t *. 1000.0 /. float_of_int (List.length sites));
          Printf.sprintf "%.2f%%" (100.0 *. gap);
        ])
      [ 64; 256; 1024; 4096; 16384; 65536 ]
  in
  Fmt.pr "Random-simulation baseline, per-site cost vs accuracy (25 sites):@.";
  Report.Table.print
    ~align:Report.Table.[ Right; Right; Right ]
    ~header:[ "vectors"; "ms/site"; "deviation" ]
    rows;
  Fmt.pr
    "@.Analytical EPP: %.3f ms/site, %.2f%% from the converged baseline - at any budget.@."
    (epp_time *. 1000.0 /. float_of_int (List.length sites))
    (100.0 *. epp_gap);
  Fmt.pr "The simulation needs ~10^4-10^5 vectors per site to reach percent-level@.";
  Fmt.pr "noise; the analytical pass does not depend on a vector budget at all.@."
