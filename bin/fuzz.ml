(* Differential conformance fuzzer: drive the oracle registry over seeded
   random circuits and metamorphic mutants, report every disagreement, and
   optionally shrink an injected-fault demo to a minimal repro.

   Exit status: 0 when no hard (non-statistical) finding survived, 1
   otherwise — so CI can gate on `fuzz --seed N --cases M`. *)

open Cmdliner

let cases_arg =
  let doc = "Number of fuzz cases (each case also checks its mutants)." in
  Arg.(value & opt int 100 & info [ "cases" ] ~docv:"N" ~doc)

let time_budget_arg =
  let doc = "Stop starting new cases after $(docv) wall-clock seconds." in
  Arg.(value & opt (some float) None & info [ "time-budget" ] ~docv:"SECONDS" ~doc)

let json_arg =
  let doc = "Write the machine-readable run report to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let mutations_arg =
  let doc = "Metamorphic mutations chained per case." in
  Arg.(value & opt int 2 & info [ "mutations" ] ~docv:"N" ~doc)

let max_sites_arg =
  let doc = "Error sites sampled per circuit." in
  Arg.(value & opt int 6 & info [ "max-sites" ] ~docv:"N" ~doc)

let envelope_arg =
  let doc =
    "Per-site ceiling for analytical-vs-exact deviation (the paper's ~6% \
     claim is an average; single reconvergent sites deviate much further)."
  in
  Arg.(value & opt float Conformance.Oracle.default_envelope
       & info [ "envelope" ] ~docv:"EPS" ~doc)

let show_statistical_arg =
  let doc = "Print the individual Wilson-policy findings (normally only counted)." in
  Arg.(value & flag & info [ "show-statistical" ] ~doc)

let shrink_demo_arg =
  let doc =
    "After fuzzing, inject a silent fault into the EPP batch engine via the \
     supervisor seam, find a disagreeing site and shrink it to a minimal \
     repro (printed as BLIF and an OCaml snippet)."
  in
  Arg.(value & flag & info [ "shrink-demo" ] ~doc)

let emit_corpus_arg =
  let doc = "Also write the seed corpus circuits as BLIF files into $(docv)." in
  Arg.(value & opt (some string) None & info [ "emit-seed-corpus" ] ~docv:"DIR" ~doc)

let certified_arg =
  let doc =
    "Add the certified exact tier to the oracle panel: per-site \
     cone-partitioned BDD with sifting under a node budget, falling back \
     to sound interval bounds and stratified Wilson-certified Monte-Carlo \
     on budget trips.  Every verdict carries a certificate; the report \
     gains a $(b,certified) object with the bdd_exact/interval/mc split, \
     budget trips and p95 certify time."
  in
  Arg.(value & flag & info [ "certified" ] ~doc)

let json_of_certified stats =
  let open Obs.Json in
  let module S = Conformance.Certified.Stats in
  Obj
    [
      ("verdicts", int (S.total stats));
      ("bdd_exact", int (S.bdd_exact stats));
      ("interval", int (S.interval stats));
      ("mc_certified", int (S.mc_certified stats));
      ("budget_trips", int (S.budget_trips stats));
      ("mc_rejected", int (S.mc_rejected stats));
      ("p95_certify_seconds", Number (S.p95_seconds stats));
    ]

let json_of_report ?certified_stats (r : Conformance.Fuzz.report) =
  let open Obs.Json in
  let finding f = String (Fmt.str "%a" Conformance.Fuzz.pp_finding f) in
  Obj
    ((match certified_stats with
     | None -> []
     | Some stats -> [ ("certified", json_of_certified stats) ])
    @ [
      ("seed", int r.config.seed);
      ("cases", int r.cases);
      ("mutants", int r.mutants);
      ("sites", int r.sites);
      ("comparisons", int r.comparisons);
      ( "pairs",
        Obj (List.map (fun (pair, n) -> (pair, int n)) r.pair_counts) );
      ( "oracles",
        Obj
          (List.map
             (fun (name, (runs, seconds)) ->
               (name, Obj [ ("runs", int runs); ("seconds", Number seconds) ]))
             r.oracle_stats) );
      ("skips", Obj (List.map (fun (name, n) -> (name, int n)) r.skip_counts));
      ("hard_findings", List (List.map finding r.hard));
      ("statistical_findings", List (List.map finding r.statistical));
      ("envelope_max", Number r.envelope_max);
      ("envelope_mean", Number r.envelope_mean);
      ("invariant_checks", int r.invariant_checks);
      ("elapsed_seconds", Number r.elapsed_seconds);
      ])

let print_summary ~show_statistical (r : Conformance.Fuzz.report) =
  Fmt.pr "fuzz: %d cases, %d mutants, %d sites, %d comparisons in %.2fs@." r.cases
    r.mutants r.sites r.comparisons r.elapsed_seconds;
  Fmt.pr "      %d oracle pairs; envelope max %.4f mean %.4f; %d invariant checks@."
    (List.length r.pair_counts) r.envelope_max r.envelope_mean r.invariant_checks;
  List.iter
    (fun (name, n) -> Fmt.pr "      skip %s: %d (capacity)@." name n)
    r.skip_counts;
  (match r.statistical with
  | [] -> ()
  | l ->
    Fmt.pr "      %d statistical (Wilson) findings — informational@." (List.length l);
    if show_statistical then
      List.iter (fun f -> Fmt.pr "  %a@." Conformance.Fuzz.pp_finding f) l);
  match r.hard with
  | [] -> Fmt.pr "      no hard disagreements@."
  | l ->
    Fmt.pr "      %d HARD findings:@." (List.length l);
    List.iter (fun f -> Fmt.pr "  %a@." Conformance.Fuzz.pp_finding f) l

let run_shrink_demo seed =
  Fmt.pr "@.shrink demo: perturbed batch engine (p_sensitized halved) vs reference@.";
  let demo = Conformance.Fuzz.shrink_demo ~seed () in
  let o = demo.Conformance.Fuzz.outcome in
  Fmt.pr "  initial: %s@." (Conformance.Fuzz.fingerprint demo.Conformance.Fuzz.initial);
  Fmt.pr "  shrunk %d -> %d gates in %d steps (%d checks); repro %s@."
    o.Conformance.Shrinker.initial_gates o.Conformance.Shrinker.final_gates
    o.Conformance.Shrinker.steps o.Conformance.Shrinker.checks
    (if demo.Conformance.Fuzz.still_disagrees then "still disagrees"
     else "LOST THE DISAGREEMENT");
  Fmt.pr "  --- BLIF ---@.%s" demo.Conformance.Fuzz.blif;
  Fmt.pr "  --- OCaml ---@.%s" demo.Conformance.Fuzz.snippet;
  demo.Conformance.Fuzz.still_disagrees
  && o.Conformance.Shrinker.final_gates <= 10

let emit_seed_corpus dir =
  let save ?envelope name c =
    let path = Conformance.Corpus.save ?envelope ~dir ~name c in
    Fmt.pr "  wrote %s@." path
  in
  (* Corpus.save stores the decomposition-stable elaborated netlist (the
     print/parse fixpoint) plus a fingerprint sidecar, so entries whose
     BLIF form differs structurally from their in-memory form — XOR covers
     elaborate into AND/OR/NOT trees — replay exactly as saved.  That
     un-skips the parity entries PR-5 had to exclude; their sidecars carry
     a raised per-entry envelope because the analytical method genuinely
     deviates up to ~0.76 per site on decomposed parity (DESIGN.md §12) —
     that deviation is now a pinned regression value, not a skip. *)
  save "c17" (Circuit_gen.Embedded.c17 ());
  save "s27" (Circuit_gen.Embedded.s27 ());
  save "s27_buf" (Netlist.Transform.insert_identity (Circuit_gen.Embedded.s27 ()) ~net:3);
  save "mux4" (Circuit_gen.Structured.mux_tree ~select_bits:2 ());
  save "adder2" (Circuit_gen.Structured.ripple_adder ~width:2 ());
  let c17 = Circuit_gen.Embedded.c17 () in
  save "c17_demorgan"
    (Netlist.Transform.de_morgan c17
       ~gate:(List.find (fun v -> Netlist.Circuit.is_gate c17 v)
                (List.init (Netlist.Circuit.node_count c17) Fun.id)));
  save "rand9"
    (Circuit_gen.Random_dag.generate ~seed:9
       (Circuit_gen.Profiles.make ~name:"rand9" ~inputs:5 ~outputs:2 ~ffs:1 ~gates:12));
  save "rand17"
    (Circuit_gen.Random_dag.generate ~seed:17
       (Circuit_gen.Profiles.make ~name:"rand17" ~inputs:6 ~outputs:3 ~ffs:0 ~gates:15));
  save ~envelope:0.85 "parity3" (Circuit_gen.Structured.parity_tree ~width:3 ());
  save ~envelope:0.85 "parity5" (Circuit_gen.Structured.parity_tree ~width:5 ());
  save "shrink_repro"
    (Conformance.Shrinker.sanitize_names
       (Conformance.Fuzz.shrink_demo ()).Conformance.Fuzz.outcome.Conformance.Shrinker.circuit)

let main seed cases time_budget mutations max_sites envelope json show_statistical
    shrink_demo emit_corpus certified metrics trace =
  Cli_common.with_telemetry ~metrics ~trace (fun () ->
      let config =
        {
          Conformance.Fuzz.default_config with
          seed;
          cases;
          time_budget;
          mutations_per_case = mutations;
          max_sites;
          envelope;
        }
      in
      let certified_stats =
        if certified then Some (Conformance.Certified.Stats.create ()) else None
      in
      let oracles =
        match certified_stats with
        | None -> None
        | Some stats ->
          Some
            (Conformance.Oracle.default ~mc_vectors:config.Conformance.Fuzz.mc_vectors ()
            @ [ Conformance.Oracle.certified ~stats () ])
      in
      let report = Conformance.Fuzz.run ?oracles config in
      print_summary ~show_statistical report;
      Option.iter
        (fun stats ->
          let module S = Conformance.Certified.Stats in
          Fmt.pr
            "      certified: %d verdicts (%d bdd-exact, %d interval, %d mc), %d budget \
             trips, %d mc rejections, p95 %.3fs@."
            (S.total stats) (S.bdd_exact stats) (S.interval stats) (S.mc_certified stats)
            (S.budget_trips stats) (S.mc_rejected stats) (S.p95_seconds stats))
        certified_stats;
      Option.iter
        (fun path ->
          Obs.Json.to_file ~pretty:true path (json_of_report ?certified_stats report);
          Fmt.pr "wrote report to %s@." path)
        json;
      Option.iter emit_seed_corpus emit_corpus;
      let demo_ok = if shrink_demo then run_shrink_demo (seed + 1) else true in
      if report.Conformance.Fuzz.hard = [] && demo_ok then 0 else 1)

let cmd =
  let doc = "differential conformance fuzzing across every P_sensitized oracle" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Draws seeded random circuits, runs every applicable oracle (exact \
         enumeration, BDD, Monte-Carlo fault injection, the analytical \
         reference/batch/parallel/supervised engines), compares each pair \
         under its soundness-class policy, then chains metamorphic mutations \
         and re-checks both the EPP invariants and the oracle agreement.";
      `P "Exits 1 when any non-statistical disagreement is found.";
    ]
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc ~man)
    Term.(
      const main $ Cli_common.seed_arg $ cases_arg $ time_budget_arg $ mutations_arg
      $ max_sites_arg $ envelope_arg $ json_arg $ show_statistical_arg
      $ shrink_demo_arg $ emit_corpus_arg $ certified_arg
      $ Cli_common.metrics_arg $ Cli_common.trace_arg)

let () = exit (Cmd.eval' cmd)
