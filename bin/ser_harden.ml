(* ser_harden: greedy selective-hardening advisor.

   The interactive loop the paper's conclusion motivates: rank gates by SER
   contribution, harden the worst offender, re-evaluate, repeat.  Two
   hardening realizations:

   - derate: the hardened gate keeps its logic but takes a derated R_SEU
     (--factor, e.g. a resized/hardened cell).  The circuit never changes,
     so each step re-composes the SER report from the same EPP results via
     the r_seu_scale seam — monotone non-increasing by construction;
   - tmr: the gate is triplicated with a 2-of-3 voter through
     Netlist.Transform.triplicate_delta, and the re-analysis runs through
     Epp.Incremental: the analysis context is patched across the delta and
     only the dirty cone is re-swept, with clean sites spliced from the
     previous step's outcome.  Total SER is not guaranteed monotone (the
     replicas and voter are new fault sites); the per-step incremental
     stats show what the refactor saved.

   Output: a step-by-step table on stdout and, with --json, the
   SER-reduction-per-cost curve as a JSON artifact (the format
   bench/harden_smoke.ml checks). *)

open Cmdliner
module Json = Obs.Json

type strategy =
  | Derate
  | Tmr

type step_record = {
  step : int;
  target : string;
  total_fit : float;
  reduction : float;  (* 1 - fit/baseline *)
  cost : int;  (* cumulative: hardened gates (derate) / added nodes (tmr) *)
  dirty_sites : int;
  clean_reused : int;
  dirty_fraction : float;
  analysis : string;  (* "patched" | "rebuilt" | "-" for derate *)
}

(* The next hardening target: the un-hardened real gate (helper gates from
   our own TMR insertions carry '#' in their names) with the largest FIT
   contribution in the current report. *)
let pick_target circuit (report : Epp.Ser_estimator.report) ~hardened =
  Array.fold_left
    (fun best (n : Epp.Ser_estimator.node_report) ->
      if
        Netlist.Circuit.is_gate circuit n.Epp.Ser_estimator.node
        && (not (String.contains n.Epp.Ser_estimator.name '#'))
        && not (Hashtbl.mem hardened n.Epp.Ser_estimator.name)
      then
        match best with
        | Some (b : Epp.Ser_estimator.node_report)
          when b.Epp.Ser_estimator.fit >= n.Epp.Ser_estimator.fit ->
          best
        | _ -> Some n
      else best)
    None report.Epp.Ser_estimator.nodes

let run_derate circuit technology ~steps ~factor engine outcome0
    (report0 : Epp.Ser_estimator.report) =
  let hardened = Hashtbl.create 16 in
  let baseline = report0.Epp.Ser_estimator.total_fit in
  let scale site =
    if Hashtbl.mem hardened (Netlist.Circuit.node_name circuit site) then factor
    else 1.0
  in
  let rec go step report acc =
    if step > steps then List.rev acc
    else
      match pick_target circuit report ~hardened with
      | None -> List.rev acc
      | Some target ->
        Hashtbl.replace hardened target.Epp.Ser_estimator.name ();
        let report' =
          Epp.Ser_estimator.of_outcome ~technology ~r_seu_scale:scale engine
            outcome0
        in
        let fit = report'.Epp.Ser_estimator.total_fit in
        let rec_ =
          {
            step;
            target = target.Epp.Ser_estimator.name;
            total_fit = fit;
            reduction = (if baseline > 0.0 then 1.0 -. (fit /. baseline) else 0.0);
            cost = Hashtbl.length hardened;
            dirty_sites = 0;
            clean_reused = 0;
            dirty_fraction = 0.0;
            analysis = "-";
          }
        in
        go (step + 1) report' (rec_ :: acc)
  in
  go 1 report0 []

let run_tmr ~ctx ?domains circuit technology ~steps engine0
    (outcome0 : Epp.Supervisor.outcome) (report0 : Epp.Ser_estimator.report) =
  let hardened = Hashtbl.create 16 in
  let baseline = report0.Epp.Ser_estimator.total_fit in
  let rec go step circuit engine (outcome : Epp.Supervisor.outcome) report cost
      acc =
    if step > steps then List.rev acc
    else
      match pick_target circuit report ~hardened with
      | None -> List.rev acc
      | Some target ->
        let name = target.Epp.Ser_estimator.name in
        Hashtbl.replace hardened name ();
        let gate =
          match Netlist.Circuit.find_opt circuit name with
          | Some v -> v
          | None -> assert false (* the report names come from this circuit *)
        in
        let _, delta = Netlist.Transform.triplicate_delta circuit ~nodes:[ gate ] in
        let engine', how = Epp.Incremental.rebase engine delta in
        let plan = Epp.Incremental.plan ~before:engine ~after:engine' delta in
        let outcome' =
          Epp.Incremental.sweep ~ctx ?domains plan
            ~prior:outcome.Epp.Supervisor.entries engine'
        in
        let circuit' = Netlist.Delta.after delta in
        let report' = Epp.Ser_estimator.of_outcome ~technology engine' outcome' in
        let fit = report'.Epp.Ser_estimator.total_fit in
        let stats = outcome'.Epp.Supervisor.stats in
        let swept = stats.Epp.Diag.total - stats.Epp.Diag.resumed in
        let cost = cost + List.length (Netlist.Delta.added delta) in
        let rec_ =
          {
            step;
            target = name;
            total_fit = fit;
            reduction = (if baseline > 0.0 then 1.0 -. (fit /. baseline) else 0.0);
            cost;
            dirty_sites = swept;
            clean_reused = stats.Epp.Diag.resumed;
            dirty_fraction = Epp.Incremental.dirty_fraction plan;
            analysis =
              (match how with
              | `Patched -> "patched"
              | `Rebuilt -> "rebuilt");
          }
        in
        go (step + 1) circuit' engine' outcome' report' cost (rec_ :: acc)
  in
  go 1 circuit engine0 outcome0 report0 0 []

let strategy_string = function
  | Derate -> "derate"
  | Tmr -> "tmr"

let curve_json circuit technology strategy ~factor ~baseline curve =
  Json.Obj
    [
      ("circuit", Json.String (Netlist.Circuit.name circuit));
      ("technology", Json.String technology.Seu_model.Technology.name);
      ("strategy", Json.String (strategy_string strategy));
      ("factor", Json.Number factor);
      ("baseline_fit", Json.Number baseline);
      ( "curve",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("step", Json.int r.step);
                   ("target", Json.String r.target);
                   ("total_fit", Json.Number r.total_fit);
                   ("reduction", Json.Number r.reduction);
                   ("cost", Json.int r.cost);
                   ("dirty_sites", Json.int r.dirty_sites);
                   ("clean_reused", Json.int r.clean_reused);
                   ("dirty_fraction", Json.Number r.dirty_fraction);
                   ("analysis", Json.String r.analysis);
                 ])
             curve) );
    ]

let print_curve circuit strategy ~baseline curve =
  Fmt.pr "%a@." Netlist.Circuit.pp circuit;
  Fmt.pr "strategy: %s, baseline SER %.6f FIT@.@." (strategy_string strategy)
    baseline;
  let rows =
    List.map
      (fun r ->
        [
          string_of_int r.step;
          r.target;
          Printf.sprintf "%.6f" r.total_fit;
          Printf.sprintf "%.1f%%" (100.0 *. r.reduction);
          string_of_int r.cost;
          (if r.analysis = "-" then "-"
           else
             Printf.sprintf "%d/%d %s" r.dirty_sites
               (r.dirty_sites + r.clean_reused)
               r.analysis);
        ])
      curve
  in
  Report.Table.print
    ~align:Report.Table.[ Right; Left; Right; Right; Right; Left ]
    ~header:[ "#"; "hardened"; "FIT"; "reduction"; "cost"; "dirty/total" ]
    rows

let run circuit technology strategy steps factor json_path domains metrics
    trace prom dump =
  Cli_common.with_telemetry ?prom ?dump ~metrics ~trace @@ fun () ->
  Obs.Trace.span (Obs.Hooks.tracer ()) ~cat:"cli" "ser_harden" @@ fun () ->
  if steps < 1 then begin
    Fmt.epr "ser_harden: --steps must be >= 1@.";
    2
  end
  else if not (factor >= 0.0 && factor <= 1.0) then begin
    Fmt.epr "ser_harden: --factor must be in [0, 1]@.";
    2
  end
  else begin
    let ctx = Obs.Ctx.create ~baggage:[ ("tool", "ser_harden") ] () in
    let engine = Epp.Epp_engine.create circuit in
    let outcome0 = Epp.Supervisor.sweep_all ~ctx ?domains engine in
    let report0 = Epp.Ser_estimator.of_outcome ~technology engine outcome0 in
    let quarantines = Epp.Supervisor.quarantines outcome0 in
    if quarantines <> [] then
      Fmt.pr "WARNING: baseline is partial — %d site(s) quarantined@."
        (List.length quarantines);
    let baseline = report0.Epp.Ser_estimator.total_fit in
    let curve =
      match strategy with
      | Derate ->
        run_derate circuit technology ~steps ~factor engine outcome0 report0
      | Tmr ->
        run_tmr ~ctx ?domains circuit technology ~steps engine outcome0 report0
    in
    print_curve circuit strategy ~baseline curve;
    (match json_path with
    | None -> ()
    | Some path ->
      Json.to_file ~pretty:true path
        (curve_json circuit technology strategy ~factor ~baseline curve);
      Fmt.epr "wrote hardening curve to %s@." path);
    0
  end

let strategy_arg =
  let doc =
    "Hardening realization: $(b,derate) scales the hardened gate's R_SEU by \
     $(b,--factor) (cell hardening — the curve is monotone non-increasing by \
     construction); $(b,tmr) triplicates the gate with a 2-of-3 majority \
     voter via the incremental edit path (adds real fault sites, so the \
     total can plateau or rise)."
  in
  Arg.(
    value
    & opt (Arg.enum [ ("derate", Derate); ("tmr", Tmr) ]) Derate
    & info [ "strategy" ] ~docv:"derate|tmr" ~doc)

let steps_arg =
  let doc = "Hardening steps (one gate per step, greedy by FIT contribution)." in
  Arg.(value & opt int 5 & info [ "steps" ] ~docv:"N" ~doc)

let factor_arg =
  let doc = "R_SEU derating factor for $(b,--strategy derate) (0-1)." in
  Arg.(value & opt float 0.1 & info [ "factor" ] ~docv:"F" ~doc)

let json_arg =
  let doc = "Write the SER-reduction-per-cost curve as JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let domains_arg =
  let doc = "Worker domains for the supervised sweeps." in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

let cmd =
  let doc = "greedy selective hardening: SER-reduction-per-cost curves" in
  Cmd.v
    (Cmd.info "ser_harden" ~doc)
    Term.(
      const run $ Cli_common.circuit_arg $ Cli_common.technology_arg
      $ strategy_arg $ steps_arg $ factor_arg $ json_arg $ domains_arg
      $ Cli_common.metrics_arg $ Cli_common.trace_arg $ Cli_common.prom_arg
      $ Cli_common.dump_arg)

let () = exit (Cmd.eval' cmd)
