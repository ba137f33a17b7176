(* resilience_smoke: CI gate for the supervised sweep (dune build
   @resilience-smoke).

   On the embedded s27 netlist, with k sites deterministically poisoned on
   both rungs through the supervisor's fault-injection seam, the sweep must

   - complete and quarantine exactly those k sites (typed faults on both
     rungs),
   - leave every non-poisoned site bit-identical to the unsupervised sweep,
   - and, after a simulated mid-run kill, resume from its checkpoint to a
     final report bit-identical to an uninterrupted run (same total FIT).

   Any drift exits non-zero and fails the alias.

   With --json, also writes BENCH_resilience.json (same shape as
   BENCH_epp_kernel.json: a benchmark tag, per-check results, and the
   run's metrics snapshot) so the robustness path joins the bench
   trajectory. *)

exception Killed

let bits = Int64.bits_of_float

let same_result (a : Epp.Epp_engine.site_result) (b : Epp.Epp_engine.site_result) =
  a.Epp.Epp_engine.site = b.Epp.Epp_engine.site
  && bits a.Epp.Epp_engine.p_sensitized = bits b.Epp.Epp_engine.p_sensitized
  && a.Epp.Epp_engine.cone_size = b.Epp.Epp_engine.cone_size
  && List.for_all2
       (fun (o1, p1) (o2, p2) -> o1 = o2 && bits p1 = bits p2)
       a.Epp.Epp_engine.per_observation b.Epp.Epp_engine.per_observation

(* The analyzed entries as site results, for comparison with the
   unsupervised driver. *)
let analyzed engine (outcome : Epp.Supervisor.outcome) =
  let observations =
    Netlist.Analysis.observations (Epp.Epp_engine.analysis engine)
  in
  List.filter_map
    (fun (site, entry) ->
      match entry with
      | Epp.Supervisor.Analyzed { row; _ } ->
        Some (Epp.Site_row.to_site_result observations ~site row)
      | Epp.Supervisor.Quarantined _ -> None)
    outcome.Epp.Supervisor.entries

let failures = ref 0
let checks = ref []

let check what ok =
  checks := (what, ok) :: !checks;
  if ok then Fmt.pr "ok: %s@." what
  else begin
    incr failures;
    Fmt.pr "FAIL: %s@." what
  end

let () =
  let json = Array.exists (String.equal "--json") Sys.argv in
  (* Live metrics for the whole run so the supervisor / parallel counters
     land in the artifact. *)
  let metrics = Obs.Metrics.create () in
  Obs.Hooks.set_metrics metrics;
  let circuit = Circuit_gen.Embedded.s27 () in
  let engine = Epp.Epp_engine.create circuit in
  let n = Netlist.Circuit.node_count circuit in
  let poisoned = [ 2; 9; 14 ] in
  let k = List.length poisoned in
  let poison site = List.mem site poisoned in
  let batch_run block sites =
    Array.mapi
      (fun l r -> if poison sites.(l) then Error (Failure "injected batch fault") else r)
      (Epp.Epp_batch.Block.run block sites)
  in
  let reference engine site =
    if poison site then failwith "injected reference fault"
    else Epp.Epp_engine.analyze_site engine site
  in
  let unsupervised = Epp.Ser_estimator.analyze_all engine in

  (* 1. Fault isolation: exactly k quarantines, survivors bit-identical. *)
  let outcome = Epp.Supervisor.sweep_all ~domains:2 ~batch_run ~reference engine in
  let qs = Epp.Supervisor.quarantines outcome in
  check
    (Printf.sprintf "exactly %d quarantined sites (got %d)" k (List.length qs))
    (List.length qs = k);
  check "quarantined exactly the poisoned sites"
    (List.map (fun q -> q.Epp.Diag.site) qs = poisoned);
  check "both rungs recorded a typed fault per quarantine"
    (List.for_all (fun q -> List.length q.Epp.Diag.faults = 2) qs);
  let survivors =
    List.filter (fun (r : Epp.Epp_engine.site_result) -> not (poison r.Epp.Epp_engine.site))
      unsupervised
  in
  check "non-poisoned sites bit-identical to the unsupervised sweep"
    (List.for_all2 same_result survivors (analyzed engine outcome));

  (* 2. Kill/resume: interrupt after the first chunk's entries are
     appended, resume, and compare totals against the uninterrupted
     supervised run. *)
  let path = Filename.temp_file "serprop_resilience" ".ck" in
  let record =
    Report.Checkpoint.recorder ~circuit path
      ~fingerprint:(Report.Checkpoint.fingerprint engine)
  in
  (try
     ignore
       (Epp.Supervisor.sweep_all ~domains:2 ~chunk_size:5 ~batch_run ~reference
          ~on_chunk:(fun ~done_count ~total entries ->
            record ~done_count ~total entries;
            if done_count >= 5 then raise Killed)
          engine)
   with Killed -> ());
  (match
     Report.Checkpoint.supervised_sweep ~domains:2 ~chunk_size:5 ~checkpoint:path
       ~resume:true ~batch_run ~reference engine
   with
  | Error e -> check (Report.Checkpoint.error_message e) false
  | Ok resumed ->
    check "resume replayed the snapshot"
      (resumed.Epp.Supervisor.stats.Epp.Diag.resumed = 5);
    check "resumed sweep covers every site"
      (List.length resumed.Epp.Supervisor.entries = n);
    let total outcome =
      (Epp.Ser_estimator.of_outcome engine outcome).Epp.Ser_estimator.total_fit
    in
    let clean_fit = total outcome in
    let resumed_fit = total resumed in
    check
      (Printf.sprintf "resumed total FIT bit-identical (%h vs %h)" resumed_fit
         clean_fit)
      (bits resumed_fit = bits clean_fit));
  Sys.remove path;

  Fmt.pr "@.%a@." Epp.Diag.pp_stats outcome.Epp.Supervisor.stats;
  if json then begin
    let s = outcome.Epp.Supervisor.stats in
    let open Obs.Json in
    to_file ~pretty:true "BENCH_resilience.json"
      (Obj
         [
           ("benchmark", String "resilience_supervised_sweep");
           ("circuit", String "s27");
           ("domains", int 2);
           ("poisoned_sites", List (List.map int poisoned));
           ( "checks",
             List
               (List.rev_map
                  (fun (what, ok) ->
                    Obj [ ("name", String what); ("ok", Bool ok) ])
                  !checks) );
           ("failures", int !failures);
           ( "stats",
             Obj
               [
                 ("total", int s.Epp.Diag.total);
                 ("batch_ok", int s.Epp.Diag.batch_ok);
                 ("degraded", int s.Epp.Diag.degraded);
                 ("quarantined", int s.Epp.Diag.quarantined);
                 ("resumed", int s.Epp.Diag.resumed);
               ] );
           ("metrics", Obs.Metrics.to_json (Obs.Metrics.snapshot metrics));
         ]);
    Fmt.pr "wrote BENCH_resilience.json@."
  end;
  if !failures > 0 then begin
    Fmt.pr "resilience smoke: %d check(s) FAILED@." !failures;
    exit 1
  end
  else Fmt.pr "resilience smoke: all checks passed@."
