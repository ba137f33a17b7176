(* ser_compare: analytical EPP versus random fault-injection simulation on
   one circuit — the per-circuit version of the paper's Table 2 row. *)

open Cmdliner

(* Map [f] over [items] while stepping a progress meter (the simulation
   baseline is minutes long on big circuits).  The meter renders only when
   a renderer is installed (--progress); the final report is flushed under
   Fun.protect even when [f] raises mid-map. *)
let map_with_progress ~label items f =
  let meter = Obs.Progress.create ~label ~total:(List.length items) () in
  let i = ref 0 in
  Fun.protect
    ~finally:(fun () -> Obs.Progress.finish meter)
    (fun () ->
      List.map
        (fun item ->
          let r = f item in
          incr i;
          Obs.Progress.report meter !i;
          r)
        items)

let run spec vectors sites seed metrics trace prom dump progress =
  if progress then
    Obs.Hooks.set_progress (Some (Obs.Progress.stderr_renderer ()));
  Cli_common.with_telemetry ?prom ?dump ~metrics ~trace @@ fun () ->
  let tracer = Obs.Hooks.tracer () in
  Obs.Trace.span tracer ~cat:"cli" "ser_compare" @@ fun () ->
  Cli_common.load_circuit spec @@ fun circuit ->
  let rng = Rng.create ~seed in
  let sp, spt = Report.Timer.time (fun () -> Sigprob.Sp_sequential.default circuit) in
  let engine = Epp.Epp_engine.create ~sp circuit in
  let input_sp = Sigprob.Sp.baseline_input_sp sp in
  let sim_ctx = Fault_sim.Epp_sim.create ~config:{ Fault_sim.Epp_sim.vectors; input_sp } circuit in
  let node_count = Netlist.Circuit.node_count circuit in
  let chosen =
    if sites >= node_count then List.init node_count Fun.id
    else
      Array.to_list (Rng.sample_without_replacement rng ~count:sites ~universe:node_count)
  in
  let epp_results, syst =
    Report.Timer.time (fun () ->
        Obs.Trace.span tracer ~cat:"compare" "compare.epp" (fun () ->
            Epp.Ser_estimator.analyze_sites engine chosen))
  in
  let sim_results, simt =
    Report.Timer.time (fun () ->
        Obs.Trace.span tracer ~cat:"compare" "compare.simulate" (fun () ->
            map_with_progress ~label:"simulate" chosen
              (Fault_sim.Epp_sim.estimate_site sim_ctx ~rng)))
  in
  let rows =
    List.map2
      (fun (e : Epp.Epp_engine.site_result) (s : Fault_sim.Epp_sim.site_estimate) ->
        [
          Netlist.Circuit.node_name circuit e.Epp.Epp_engine.site;
          Report.Table.f3 e.Epp.Epp_engine.p_sensitized;
          Report.Table.f3 s.Fault_sim.Epp_sim.p_sensitized;
          Report.Table.f3
            (Float.abs (e.Epp.Epp_engine.p_sensitized -. s.Fault_sim.Epp_sim.p_sensitized));
          string_of_int e.Epp.Epp_engine.cone_size;
        ])
      epp_results sim_results
  in
  Fmt.pr "%a@.@." Netlist.Circuit.pp circuit;
  Report.Table.print
    ~align:Report.Table.[ Left; Right; Right; Right; Right ]
    ~header:[ "site"; "EPP"; "simulation"; "|diff|"; "cone" ]
    rows;
  let pairs =
    List.map2
      (fun (e : Epp.Epp_engine.site_result) (s : Fault_sim.Epp_sim.site_estimate) ->
        { Epp.Accuracy.site = e.Epp.Epp_engine.site; epp = e.Epp.Epp_engine.p_sensitized;
          sim = s.Fault_sim.Epp_sim.p_sensitized })
      epp_results sim_results
  in
  let summary = Epp.Accuracy.summarize pairs in
  Fmt.pr "@.%a@." Epp.Accuracy.pp_summary summary;
  let n = float_of_int (List.length chosen) in
  Fmt.pr "SP time %.3f s; EPP %.3f ms/site; simulation %.3f ms/site; speedup (excl. SP) %.0fx@."
    spt
    (syst /. n *. 1000.0)
    (simt /. n *. 1000.0)
    (simt /. Float.max 1e-12 syst);
  0

let sites_arg =
  let doc = "Number of error sites to compare (sampled without replacement)." in
  Arg.(value & opt int 30 & info [ "s"; "sites" ] ~docv:"SITES" ~doc)

let cmd =
  let doc = "compare analytical EPP against random fault-injection simulation" in
  Cmd.v
    (Cmd.info "ser_compare" ~doc)
    Term.(
      const run $ Cli_common.circuit_arg
      $ Cli_common.vectors_arg ~default:10_000
      $ sites_arg $ Cli_common.seed_arg $ Cli_common.metrics_arg
      $ Cli_common.trace_arg $ Cli_common.prom_arg $ Cli_common.dump_arg
      $ Cli_common.progress_arg)

let () = exit (Cmd.eval' cmd)
