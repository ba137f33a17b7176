(* bench_info: structural statistics of a netlist (the circuit columns that
   accompany every experiment table). *)

open Cmdliner

let run circuit with_timing =
  Fmt.pr "%a@." Netlist.Stats.pp (Netlist.Stats.compute circuit);
  Fmt.pr "reconvergent fanout sites: %d@." (Netlist.Stats.reconvergent_site_count circuit);
  if with_timing then begin
    let timing = Sta.Timing.analyze circuit in
    Fmt.pr "%a@." Sta.Timing.pp timing;
    let path = Sta.Timing.circuit_critical_path timing in
    Fmt.pr "critical path (%d nets): %a@." (List.length path)
      Fmt.(list ~sep:(any " -> ") string)
      (List.map (Netlist.Circuit.node_name circuit) path)
  end;
  0

let timing_arg =
  let doc = "Also run static timing analysis and print the critical path." in
  Arg.(value & flag & info [ "t"; "timing" ] ~doc)

let cmd =
  let doc = "print structural statistics of a netlist" in
  Cmd.v (Cmd.info "bench_info" ~doc) Term.(const run $ Cli_common.circuit_arg $ timing_arg)

let () = exit (Cmd.eval' cmd)
