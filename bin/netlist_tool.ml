(* netlist_tool: netlist utilities around the SER flow.

   Subcommands:
     convert   read a circuit, write it as .bench or structural Verilog
     optimize  constant propagation + structural hashing + sweeping
     tmr       triplicate the top-k most vulnerable gates (by analytical FIT)
     witness   a concrete input vector demonstrating a site's vulnerability *)

open Cmdliner

type format = Bench | Verilog | Blif

let format_conv =
  Arg.conv
    ( (function
      | "bench" -> Ok Bench
      | "verilog" | "v" -> Ok Verilog
      | "blif" -> Ok Blif
      | s -> Error (`Msg (Printf.sprintf "unknown format %S (bench | verilog | blif)" s))),
      fun ppf f ->
        Fmt.string ppf
          (match f with
          | Bench -> "bench"
          | Verilog -> "verilog"
          | Blif -> "blif") )

let emit circuit format output =
  let text =
    match format with
    | Bench -> Bench_format.Printer.circuit_to_string circuit
    | Verilog -> Verilog_format.Verilog_printer.circuit_to_string circuit
    | Blif -> Blif_format.Blif_printer.circuit_to_string circuit
  in
  match output with
  | None ->
    print_string text;
    0
  | Some path ->
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc text);
    Fmt.pr "wrote %a to %s@." Netlist.Circuit.pp circuit path;
    0

let format_arg =
  let doc = "Output format: $(b,bench), $(b,verilog) or $(b,blif)." in
  Arg.(value & opt format_conv Bench & info [ "f"; "format" ] ~docv:"FORMAT" ~doc)

let output_arg =
  let doc = "Output file (stdout when omitted)." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

(* --- convert -------------------------------------------------------------- *)

let convert_cmd =
  let run spec format output =
    Cli_common.load_circuit spec @@ fun circuit -> emit circuit format output
  in
  Cmd.v
    (Cmd.info "convert" ~doc:"convert a netlist between .bench, structural Verilog and BLIF")
    Term.(const run $ Cli_common.circuit_arg $ format_arg $ output_arg)

(* --- optimize ------------------------------------------------------------- *)

let optimize_cmd =
  let run spec format output =
    Cli_common.load_circuit spec @@ fun circuit ->
    let before = Netlist.Stats.compute circuit in
    let optimized = Netlist.Transform.optimize circuit in
    let after = Netlist.Stats.compute optimized in
    Fmt.epr "optimize: %d -> %d gates (depth %d -> %d)@." before.Netlist.Stats.gate_count
      after.Netlist.Stats.gate_count before.Netlist.Stats.depth after.Netlist.Stats.depth;
    emit optimized format output
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"constant propagation, structural hashing and unobservable-logic sweeping")
    Term.(const run $ Cli_common.circuit_arg $ format_arg $ output_arg)

(* --- tmr ------------------------------------------------------------------ *)

let tmr_cmd =
  let run spec technology k format output =
    Cli_common.load_circuit spec @@ fun circuit ->
    let report = Epp.Ser_estimator.estimate ~technology circuit in
    let victims =
      Epp.Ranking.ranked report
      |> List.filter (fun (e : Epp.Ranking.entry) ->
             Netlist.Circuit.is_gate circuit e.Epp.Ranking.report.Epp.Ser_estimator.node)
      |> List.filteri (fun i _ -> i < k)
      |> List.map (fun (e : Epp.Ranking.entry) -> e.Epp.Ranking.report.Epp.Ser_estimator.node)
    in
    Fmt.epr "hardening %d gate(s): %a@." (List.length victims)
      Fmt.(list ~sep:comma string)
      (List.map (Netlist.Circuit.node_name circuit) victims);
    let hardened = Netlist.Transform.triplicate circuit ~nodes:victims in
    emit hardened format output
  in
  let k_arg =
    let doc = "Number of most-vulnerable gates to triplicate." in
    Arg.(value & opt int 5 & info [ "k"; "top" ] ~docv:"K" ~doc)
  in
  Cmd.v
    (Cmd.info "tmr" ~doc:"triplicate the most vulnerable gates with majority voters")
    Term.(const run $ Cli_common.circuit_arg $ Cli_common.technology_arg $ k_arg $ format_arg
          $ output_arg)

(* --- witness ---------------------------------------------------------------- *)

let witness_cmd =
  let run spec site_name =
    Cli_common.load_circuit spec @@ fun circuit ->
    match Netlist.Circuit.find_opt circuit site_name with
    | None ->
      Fmt.epr "unknown signal %S@." site_name;
      1
    | Some site -> (
      let cb = Circuit_bdd.build circuit in
      match Circuit_bdd.propagation_witness cb site with
      | None ->
        Fmt.pr "site %s is untestable: no input vector propagates its error@." site_name;
        0
      | Some w ->
        Fmt.pr "error at %s observed at %s under:@." site_name
          (Netlist.Circuit.observation_name circuit w.Circuit_bdd.observation);
        List.iter
          (fun (node, value) ->
            Fmt.pr "  %s = %d@." (Netlist.Circuit.node_name circuit node)
              (if value then 1 else 0))
          w.Circuit_bdd.assignment;
        0)
  in
  let site_arg =
    let doc = "Signal name of the error site." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"SITE" ~doc)
  in
  Cmd.v
    (Cmd.info "witness"
       ~doc:"derive an input vector demonstrating a site's vulnerability (BDD-exact)")
    Term.(const run $ Cli_common.circuit_arg $ site_arg)

(* --- testset ---------------------------------------------------------------- *)

let testset_cmd =
  let run spec =
    Cli_common.load_circuit spec @@ fun circuit ->
    match Epp.Test_set.generate circuit with
    | exception Circuit_bdd.Too_large { node_count; limit } ->
      Fmt.epr "BDD blow-up: %d nodes against limit %d@." node_count limit;
      1
    | t ->
      Fmt.pr "%a@.@." Epp.Test_set.pp t;
      let pseudo = Netlist.Circuit.pseudo_inputs circuit in
      Fmt.pr "inputs: %s@."
        (String.concat " " (List.map (Netlist.Circuit.node_name circuit) pseudo));
      List.iteri
        (fun i entry ->
          let bits =
            String.init (Array.length entry) (fun k -> if entry.(k) then '1' else '0')
          in
          let retired = List.assoc i t.Epp.Test_set.coverage in
          Fmt.pr "v%-3d %s  covers %d site(s)@." i bits (List.length retired))
        t.Epp.Test_set.vectors;
      if t.Epp.Test_set.untestable <> [] then
        Fmt.pr "untestable: %s@."
          (String.concat ", "
             (List.map (Netlist.Circuit.node_name circuit) t.Epp.Test_set.untestable));
      0
  in
  Cmd.v
    (Cmd.info "testset"
       ~doc:"generate a compact, verified input-vector set covering every testable error site")
    Term.(const run $ Cli_common.circuit_arg)

let () =
  let doc = "netlist utilities for the SER estimation flow" in
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "netlist_tool" ~doc)
          [ convert_cmd; optimize_cmd; tmr_cmd; witness_cmd; testset_cmd ]))
