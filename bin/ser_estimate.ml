(* ser_estimate: analytical SER estimation of a circuit.

   Runs the paper's pipeline — signal probabilities, per-site EPP, the
   three-factor SER composition — and prints the circuit total plus the most
   vulnerable nodes (the hardening candidates of the paper's conclusion).

   Every run sweeps under Epp.Supervisor's degradation ladder: sites run on
   the batched block engine across --domains worker domains, lanes that
   fault or trip a numeric sentinel are retried on the boxed reference
   path, and sites that fail both rungs are quarantined into a typed report
   instead of killing the run.  --checkpoint appends each chunk's completed
   sites to a snapshot; --resume replays a matching snapshot and analyzes
   only the remainder.

   Telemetry: --metrics FILE writes a JSON snapshot of the run's counters /
   histograms (per-phase EPP timings, cone sizes, parallel steals,
   supervisor ladder steps); --trace FILE writes Chrome trace-event JSON
   (load in chrome://tracing or Perfetto, one track per domain);
   --progress prints a rate + ETA line during the sweep.

   Exit codes: 0 success; 3 quarantined sites under --strict; 4 unusable
   checkpoint (fingerprint mismatch or corrupt file); 124 cmdliner CLI
   errors and a circuit that fails to load. *)

open Cmdliner

let exit_quarantined = 3
let exit_checkpoint = 4

let print_report (report : Epp.Ser_estimator.report) elapsed top_k
    target_reduction attribution =
  Fmt.pr "%a@." Netlist.Circuit.pp report.Epp.Ser_estimator.circuit;
  Fmt.pr "technology: %a@." Seu_model.Technology.pp report.Epp.Ser_estimator.technology;
  Fmt.pr "total SER: %.6f FIT (MTBF %.3g hours), estimated in %.1f ms@.@."
    report.Epp.Ser_estimator.total_fit
    (Seu_model.Fit.mtbf_hours report.Epp.Ser_estimator.total_fit)
    (elapsed *. 1000.0);
  let entries = Epp.Ranking.top_k report top_k in
  let rows =
    List.map
      (fun (e : Epp.Ranking.entry) ->
        let n = e.Epp.Ranking.report in
        [
          string_of_int e.Epp.Ranking.rank;
          n.Epp.Ser_estimator.name;
          Printf.sprintf "%.3g" n.Epp.Ser_estimator.r_seu;
          Report.Table.f3 n.Epp.Ser_estimator.p_sensitized;
          Report.Table.f3 n.Epp.Ser_estimator.p_latched_effective;
          Printf.sprintf "%.5f" n.Epp.Ser_estimator.fit;
          string_of_int n.Epp.Ser_estimator.cone_size;
        ])
      entries
  in
  Report.Table.print
    ~align:Report.Table.[ Right; Left; Right; Right; Right; Right; Right ]
    ~header:[ "#"; "node"; "R_SEU(/s)"; "P_sens"; "P_latch"; "FIT"; "cone" ]
    rows;
  (match target_reduction with
  | None -> ()
  | Some fraction ->
    let plan = Epp.Ranking.hardening_plan report ~target_fraction:fraction in
    Fmt.pr "@.%a@." Epp.Ranking.pp_plan plan);
  Option.iter (Fmt.pr "@.%a@." Epp.Attribution.pp) attribution

let run spec technology top_k target_reduction by_output electrical
    checkpoint resume strict domains metrics trace prom dump progress =
  if progress then
    Obs.Hooks.set_progress (Some (Obs.Progress.stderr_renderer ()));
  Cli_common.with_telemetry ?prom ?dump ~metrics ~trace @@ fun () ->
  Obs.Trace.span (Obs.Hooks.tracer ()) ~cat:"cli" "ser_estimate" @@ fun () ->
  Cli_common.load_circuit spec @@ fun circuit ->
  let electrical = if electrical then Some Seu_model.Electrical.default else None in
  let ctx = Obs.Ctx.create ~baggage:[ ("tool", "ser_estimate") ] () in
  (* The meter is created unconditionally — it renders only when a progress
     renderer is installed (--progress) — and finished under Fun.protect so
     a raising sweep still gets its final report line. *)
  let meter =
    Obs.Progress.create ~label:"supervised sweep"
      ~total:(Netlist.Circuit.node_count circuit) ()
  in
  let on_progress ~done_count ~total:_ = Obs.Progress.report meter done_count in
  (* The engine's default probabilities, computed here so that a fixpoint
     stopped at its iteration cap is reported, not silently used. *)
  let sp =
    if Netlist.Circuit.ff_count circuit = 0 then None
    else begin
      let fixpoint = Sigprob.Sp_sequential.compute circuit in
      if not fixpoint.Sigprob.Sp_sequential.converged then
        Fmt.epr
          "ser_estimate: warning: the signal-probability fixpoint did not \
           converge (stopped after %d iterations, residual %g)@."
          fixpoint.Sigprob.Sp_sequential.iterations
          fixpoint.Sigprob.Sp_sequential.residual;
      Some fixpoint.Sigprob.Sp_sequential.result
    end
  in
  let engine = Epp.Epp_engine.create ?sp circuit in
  let swept, elapsed =
    Fun.protect
      ~finally:(fun () -> Obs.Progress.finish meter)
      (fun () ->
        Report.Timer.time (fun () ->
            Report.Checkpoint.supervised_sweep ~ctx ?domains ?checkpoint
              ~resume ~on_progress engine))
  in
  match swept with
  | Error e ->
    Fmt.epr "ser_estimate: %s@." (Report.Checkpoint.error_message e);
    exit_checkpoint
  | Ok outcome ->
    let report =
      Epp.Ser_estimator.of_outcome ~technology ?electrical engine outcome
    in
    (* the run's headline figure, bit-exact in the --metrics snapshot *)
    Obs.Metrics.set_gauge
      (Obs.Metrics.gauge (Obs.Hooks.metrics ()) "ser_estimate.total_fit")
      report.Epp.Ser_estimator.total_fit;
    let quarantines = Epp.Supervisor.quarantines outcome in
    if quarantines <> [] then
      Fmt.pr "WARNING: partial total — %d site(s) quarantined@."
        (List.length quarantines);
    print_report report elapsed top_k target_reduction
      (if by_output then Some (Epp.Attribution.compute ~technology engine outcome)
       else None);
    Fmt.pr "@.supervised sweep: %a@." Epp.Diag.pp_stats
      outcome.Epp.Supervisor.stats;
    if quarantines <> [] then Fmt.pr "%a@." Epp.Diag.pp_quarantine_table quarantines;
    if strict && quarantines <> [] then exit_quarantined else 0

let top_k_arg =
  let doc = "Number of most-vulnerable nodes to list." in
  Arg.(value & opt int 10 & info [ "k"; "top" ] ~docv:"K" ~doc)

let target_arg =
  let doc = "Also print a hardening plan reaching this SER reduction (0-1)." in
  Arg.(value & opt (some float) None & info [ "harden" ] ~docv:"FRACTION" ~doc)

let by_output_arg =
  let doc = "Also print the per-observation-point exposure (which outputs absorb the SER)." in
  Arg.(value & flag & info [ "by-output" ] ~doc)

let electrical_arg =
  let doc = "Apply the electrical (pulse attenuation) masking model." in
  Arg.(value & flag & info [ "electrical" ] ~doc)

let checkpoint_arg =
  let doc =
    "Snapshot completed sites to $(docv) (appended and synced after every \
     chunk) so an interrupted sweep can be resumed with $(b,--resume)."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)

let resume_arg =
  let doc =
    "Replay a matching $(b,--checkpoint) snapshot and analyze only the \
     remaining sites.  A snapshot from a different circuit / probabilities \
     is rejected (exit 4)."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

let strict_arg =
  let doc =
    "Exit non-zero (3) if any site was quarantined.  The default \
     ($(b,--permissive)) prints the quarantine table and the partial total."
  in
  let permissive_doc = "Tolerate quarantined sites (default; see $(b,--strict))." in
  Arg.(
    value
    & vflag false
        [
          (true, info [ "strict" ] ~doc);
          (false, info [ "permissive" ] ~doc:permissive_doc);
        ])

let domains_arg =
  let doc = "Worker domains for the sweep (default: cores - 1)." in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

let cmd =
  let doc = "analytical soft-error-rate estimation (EPP method, DATE'05)" in
  Cmd.v
    (Cmd.info "ser_estimate" ~doc)
    Term.(
      const run $ Cli_common.circuit_arg $ Cli_common.technology_arg $ top_k_arg $ target_arg
      $ by_output_arg $ electrical_arg $ checkpoint_arg $ resume_arg
      $ strict_arg $ domains_arg $ Cli_common.metrics_arg $ Cli_common.trace_arg
      $ Cli_common.prom_arg $ Cli_common.dump_arg $ Cli_common.progress_arg)

let () = exit (Cmd.eval' cmd)
