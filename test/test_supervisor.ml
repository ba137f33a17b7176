(* Tests for the supervised sweep: the degradation ladder (batch ->
   reference -> quarantine), the numeric sentinels, and the checkpoint
   kill/resume round trip.

   Fault injection is deterministic: hostile sites are poisoned through the
   supervisor's batch_run/reference override seam (a stub failing lanes,
   raising, or returning defective results), or by mutating the engine's sp
   vector after creation (the post-validation corruption a long-lived batch
   job might suffer). *)

open Helpers
open Netlist

exception Killed
(** simulates the sweep process dying mid-run (raised from [on_chunk]) *)

let bits = Int64.bits_of_float

(* Bit-identical comparison of two site results. *)
let same_result (a : Epp.Epp_engine.site_result) (b : Epp.Epp_engine.site_result) =
  a.Epp.Epp_engine.site = b.Epp.Epp_engine.site
  && bits a.Epp.Epp_engine.p_sensitized = bits b.Epp.Epp_engine.p_sensitized
  && a.Epp.Epp_engine.cone_size = b.Epp.Epp_engine.cone_size
  && a.Epp.Epp_engine.reached_outputs = b.Epp.Epp_engine.reached_outputs
  && List.for_all2
       (fun (o1, p1) (o2, p2) -> o1 = o2 && bits p1 = bits p2)
       a.Epp.Epp_engine.per_observation b.Epp.Epp_engine.per_observation

let test_circuit () =
  Circuit_gen.Random_dag.generate ~seed:5 Circuit_gen.Profiles.s344

(* Ten blocks of sites: the multi-domain ladder tests need a chunk of at
   least 2 x domains blocks, or Parallel keeps it on the calling domain. *)
let fanout_circuit () =
  Circuit_gen.Random_dag.generate ~seed:5 Circuit_gen.Profiles.s1196

let check_fanned_out spawned =
  check_bool "a chunk fanned out across domains" true (spawned > 0)

(* A [batch_run] stub over the real block engine: lanes whose site is in
   [poisoned] fail with [exn]; every other lane keeps its real result. *)
let failing_batch_run ?(exn = Failure "injected batch fault") poisoned block sites =
  Array.mapi
    (fun l r -> if List.mem sites.(l) poisoned then Error exn else r)
    (Epp.Epp_batch.Block.run block sites)

(* A clean sweep is all-batch, quarantine-free, and bit-identical to the
   unsupervised sweep.  The chunks are uneven (409 = 6 x 62 + 37 sites,
   then the rest), the first one fanned out. *)
let test_clean_sweep () =
  let c = fanout_circuit () in
  let engine = Epp.Epp_engine.create c in
  let unsupervised = Epp.Ser_estimator.analyze_all engine in
  let outcome, spawned =
    with_spawned_workers (fun () ->
        Epp.Supervisor.sweep_all ~domains:3 ~chunk_size:409 engine)
  in
  check_fanned_out spawned;
  let stats = outcome.Epp.Supervisor.stats in
  check_int "total" (Circuit.node_count c) stats.Epp.Diag.total;
  check_int "all batch" (Circuit.node_count c) stats.Epp.Diag.batch_ok;
  check_int "none degraded" 0 stats.Epp.Diag.degraded;
  check_int "none quarantined" 0 stats.Epp.Diag.quarantined;
  check_bool "bit-identical to unsupervised" true
    (List.for_all2 same_result unsupervised (analyzed_results engine outcome))

(* Batch lanes failing on k sites: those degrade to the reference path and
   still produce the unsupervised results, everything stays analyzed. *)
let test_degrade_to_reference () =
  let c = fanout_circuit () in
  let engine = Epp.Epp_engine.create c in
  let n = Circuit.node_count c in
  let poisoned = [ 3; n / 2; n - 1 ] in
  let unsupervised = Epp.Ser_estimator.analyze_all engine in
  let outcome, spawned =
    with_spawned_workers (fun () ->
        Epp.Supervisor.sweep_all ~domains:3 ~batch_run:(failing_batch_run poisoned)
          engine)
  in
  check_fanned_out spawned;
  let stats = outcome.Epp.Supervisor.stats in
  check_int "degraded = k" (List.length poisoned) stats.Epp.Diag.degraded;
  check_int "none quarantined" 0 stats.Epp.Diag.quarantined;
  check_bool "degraded results match the reference bit-identically" true
    (List.for_all2 same_result unsupervised (analyzed_results engine outcome));
  List.iter
    (fun (site, entry) ->
      match entry with
      | Epp.Supervisor.Analyzed { step; _ } ->
        check_bool
          (Printf.sprintf "site %d on the right rung" site)
          true
          (if List.mem site poisoned then step = Epp.Diag.Reference
           else step = Epp.Diag.Batch)
      | Epp.Supervisor.Quarantined _ -> Alcotest.fail "unexpected quarantine")
    outcome.Epp.Supervisor.entries

(* A NaN in a batch lane's published result trips the sentinel (no
   exception involved) and degrades; so does an out-of-range probability. *)
let test_sentinel_trips () =
  let c = test_circuit () in
  let engine = Epp.Epp_engine.create c in
  let defective p (r : Epp.Site_row.t) =
    Epp.Site_row.make ~p_sensitized:p ~cone_size:r.cone_size
      ~positions:r.positions ~probabilities:r.probabilities
  in
  let batch_run block sites =
    Array.mapi
      (fun l r ->
        Result.map
          (fun r ->
            if sites.(l) = 1 then defective Float.nan r
            else if sites.(l) = 2 then defective 2.5 r
            else r)
          r)
      (Epp.Epp_batch.Block.run block sites)
  in
  let outcome = Epp.Supervisor.sweep_all ~domains:1 ~batch_run engine in
  let stats = outcome.Epp.Supervisor.stats in
  check_int "both sentinel trips degraded" 2 stats.Epp.Diag.degraded;
  check_int "none quarantined" 0 stats.Epp.Diag.quarantined

(* Both rungs poisoned: exactly k quarantines with a typed fault per rung,
   and every other site bit-identical to the unsupervised sweep. *)
let test_quarantine_exactly_k () =
  let c = fanout_circuit () in
  let engine = Epp.Epp_engine.create c in
  let n = Circuit.node_count c in
  let poisoned = [ 0; 7; n - 2 ] in
  let poison site = List.mem site poisoned in
  let reference engine site =
    if poison site then failwith "injected reference fault"
    else Epp.Epp_engine.analyze_site engine site
  in
  let unsupervised = Epp.Ser_estimator.analyze_all engine in
  let outcome, spawned =
    with_spawned_workers (fun () ->
        Epp.Supervisor.sweep_all ~domains:3 ~batch_run:(failing_batch_run poisoned)
          ~reference engine)
  in
  check_fanned_out spawned;
  let qs = Epp.Supervisor.quarantines outcome in
  check_int "exactly k quarantines" (List.length poisoned) (List.length qs);
  check_bool "quarantined the poisoned sites" true
    (List.for_all2 (fun q s -> q.Epp.Diag.site = s) qs poisoned);
  List.iter
    (fun (q : Epp.Diag.quarantine) ->
      check_int "one fault per rung" 2 (List.length q.Epp.Diag.faults);
      check_bool "rungs in order, typed as exceptions" true
        (match q.Epp.Diag.faults with
        | [ (Epp.Diag.Batch, Epp.Diag.Exception _);
            (Epp.Diag.Reference, Epp.Diag.Exception _) ] -> true
        | _ -> false);
      check_bool "cone size recorded" true (q.Epp.Diag.cone_size <> None))
    qs;
  let expected =
    List.filter
      (fun (r : Epp.Epp_engine.site_result) -> not (poison r.Epp.Epp_engine.site))
      unsupervised
  in
  check_bool "non-poisoned sites bit-identical" true
    (List.for_all2 same_result expected (analyzed_results engine outcome))

(* Post-create sp corruption (the validation in create can no longer see it):
   affected sites fail on both rungs and are quarantined; the sweep finishes
   and the unaffected sites match a pre-corruption sweep bit-identically. *)
let test_hostile_sp_mutation () =
  let c = fanout_circuit () in
  let engine = Epp.Epp_engine.create ~sp:(Sigprob.Sp_topological.compute c) c in
  let before = Epp.Ser_estimator.analyze_all engine in
  let victim = List.hd (Circuit.inputs c) in
  let sp = Epp.Epp_engine.signal_probabilities engine in
  sp.Sigprob.Sp.values.(victim) <- Float.nan;
  let outcome, spawned =
    with_spawned_workers (fun () -> Epp.Supervisor.sweep_all ~domains:3 engine)
  in
  check_fanned_out spawned;
  let qs = Epp.Supervisor.quarantines outcome in
  check_bool "some sites quarantined" true (qs <> []);
  (* The poisoned node feeds NaN only into cones that consume it off-path;
     every simultaneously-failing site must be quarantined, none analyzed. *)
  let affected =
    List.filter
      (fun site ->
        match Epp.Epp_engine.analyze_site engine site with
        | r ->
          Float.is_nan r.Epp.Epp_engine.p_sensitized
          || List.exists (fun (_, p) -> Float.is_nan p) r.Epp.Epp_engine.per_observation
        | exception _ -> true)
      (List.init (Circuit.node_count c) Fun.id)
  in
  check_int "exactly the affected sites are quarantined" (List.length affected)
    (List.length qs);
  let survivors =
    List.filter
      (fun (r : Epp.Epp_engine.site_result) ->
        not (List.mem r.Epp.Epp_engine.site affected))
      before
  in
  check_bool "unaffected sites bit-identical to the pre-corruption sweep" true
    (List.for_all2 same_result survivors (analyzed_results engine outcome))

(* A clean sweep runs every site on the batch rung, several blocks per
   chunk (the first chunk's seven fanned out), and is bit-identical to the
   reference site by site. *)
let test_batch_clean_sweep () =
  let c = fanout_circuit () in
  let engine = Epp.Epp_engine.create c in
  let n = Circuit.node_count c in
  let outcome, spawned =
    with_spawned_workers (fun () ->
        Epp.Supervisor.sweep_all ~domains:3 ~chunk_size:400 engine)
  in
  check_fanned_out spawned;
  let stats = outcome.Epp.Supervisor.stats in
  check_int "all batch" n stats.Epp.Diag.batch_ok;
  check_int "none degraded" 0 stats.Epp.Diag.degraded;
  check_int "none quarantined" 0 stats.Epp.Diag.quarantined;
  check_bool "bit-identical to the reference" true
    (List.for_all2 same_result
       (List.init n (Epp.Epp_engine.analyze_site engine))
       (analyzed_results engine outcome))

(* The chunks of a supervised sweep, and a later sweep on another engine of
   the same size, all run on one plane buffer: allocated once, handed back
   after each chunk, borrowed again by the next. *)
let test_batch_planes_reused () =
  let profile = Circuit_gen.Profiles.s344 in
  let c1 = Circuit_gen.Random_dag.generate ~seed:1 profile in
  let c2 = Circuit_gen.Random_dag.generate ~seed:2 profile in
  check_int "same size" (Circuit.node_count c1) (Circuit.node_count c2);
  let e1 = Epp.Epp_engine.create c1 and e2 = Epp.Epp_engine.create c2 in
  Epp.Epp_batch.drop_spare_planes ();
  let reg = Obs.Metrics.create () in
  Obs.Hooks.set_metrics reg;
  let o1, o2 =
    Fun.protect ~finally:Obs.Hooks.reset (fun () ->
        let sweep e = Epp.Supervisor.sweep_all ~domains:1 ~chunk_size:16 e in
        (sweep e1, sweep e2))
  in
  let snap = Obs.Metrics.snapshot reg in
  check_bool "several chunks" true
    (Obs.Metrics.counter_value snap "supervisor.chunks" >= 4);
  check_int "planes allocated once" 1
    (Obs.Metrics.counter_value snap "epp.batch.plane_allocations");
  check_int "one spare left" 1 (Epp.Epp_batch.spare_planes ());
  List.iter
    (fun (e, o) ->
      check_int "all batch" (Circuit.node_count (Epp.Epp_engine.circuit e))
        o.Epp.Supervisor.stats.Epp.Diag.batch_ok;
      check_bool "bit-identical to unsupervised" true
        (List.for_all2 same_result (Epp.Ser_estimator.analyze_all e)
           (analyzed_results e o)))
    [ (e1, o1); (e2, o2) ]

(* Per-lane fault injection through the [batch_run] seam: poisoned lanes
   degrade to the reference rung alone — their block-mates stay on the
   batch rung — and every site still gets the unsupervised result. *)
let test_batch_lane_degrades_alone () =
  let c = fanout_circuit () in
  let engine = Epp.Epp_engine.create c in
  let n = Circuit.node_count c in
  (* three lanes of the first block, one of the last *)
  let poisoned = [ 1; 2; 40; n - 1 ] in
  let unsupervised = Epp.Ser_estimator.analyze_all engine in
  let outcome, spawned =
    with_spawned_workers (fun () ->
        Epp.Supervisor.sweep_all ~domains:3 ~batch_run:(failing_batch_run poisoned)
          engine)
  in
  check_fanned_out spawned;
  let stats = outcome.Epp.Supervisor.stats in
  check_int "healthy lanes stay batched" (n - List.length poisoned)
    stats.Epp.Diag.batch_ok;
  check_int "poisoned lanes on the reference rung" (List.length poisoned)
    stats.Epp.Diag.degraded;
  check_int "none quarantined" 0 stats.Epp.Diag.quarantined;
  check_bool "all sites bit-identical to unsupervised" true
    (List.for_all2 same_result unsupervised (analyzed_results engine outcome));
  List.iter
    (fun (site, entry) ->
      match entry with
      | Epp.Supervisor.Analyzed { step; _ } ->
        check_bool
          (Printf.sprintf "site %d on the right rung" site)
          true
          (if List.mem site poisoned then step = Epp.Diag.Reference
           else step = Epp.Diag.Batch)
      | Epp.Supervisor.Quarantined _ -> Alcotest.fail "unexpected quarantine")
    outcome.Epp.Supervisor.entries

(* Both rungs poisoned for one site: the quarantine record carries one
   typed fault per rung, in ladder order batch -> reference. *)
let test_batch_full_ladder_quarantine () =
  let c = test_circuit () in
  let engine = Epp.Epp_engine.create c in
  let n = Circuit.node_count c in
  let victim = n / 3 in
  let reference engine site =
    if site = victim then failwith "injected reference fault"
    else Epp.Epp_engine.analyze_site engine site
  in
  let outcome =
    Epp.Supervisor.sweep_all ~batch_run:(failing_batch_run [ victim ]) ~reference
      engine
  in
  let stats = outcome.Epp.Supervisor.stats in
  check_int "one quarantine" 1 stats.Epp.Diag.quarantined;
  check_int "everyone else batched" (n - 1) stats.Epp.Diag.batch_ok;
  match Epp.Supervisor.quarantines outcome with
  | [ q ] ->
    check_int "the victim" victim q.Epp.Diag.site;
    check_bool "one fault per rung, in ladder order" true
      (match q.Epp.Diag.faults with
      | [ (Epp.Diag.Batch, Epp.Diag.Exception _);
          (Epp.Diag.Reference, Epp.Diag.Exception _) ] -> true
      | _ -> false)
  | qs -> Alcotest.fail (Printf.sprintf "expected 1 quarantine, got %d" (List.length qs))

(* A whole-block batch failure (the run itself raises) degrades every lane
   of that block to the reference rung; the sweep still completes with
   every site analyzed. *)
let test_batch_whole_block_failure () =
  let c = test_circuit () in
  let engine = Epp.Epp_engine.create c in
  let n = Circuit.node_count c in
  let batch_run _block _sites = failwith "injected block fault" in
  let unsupervised = Epp.Ser_estimator.analyze_all engine in
  let outcome = Epp.Supervisor.sweep_all ~batch_run engine in
  let stats = outcome.Epp.Supervisor.stats in
  check_int "no batch survivors" 0 stats.Epp.Diag.batch_ok;
  check_int "every lane degraded to the reference" n stats.Epp.Diag.degraded;
  check_int "none quarantined" 0 stats.Epp.Diag.quarantined;
  check_bool "results still bit-identical" true
    (List.for_all2 same_result unsupervised (analyzed_results engine outcome))

(* An out-of-range site id in the input is quarantined, not fatal. *)
let test_bad_site_quarantined () =
  let c = fig1 () in
  let engine = Epp.Epp_engine.create c in
  let outcome = Epp.Supervisor.sweep ~domains:1 engine [ 0; 999; 1 ] in
  check_int "two analyzed" 2 (List.length (analyzed_results engine outcome));
  match Epp.Supervisor.quarantines outcome with
  | [ q ] ->
    check_int "the bad site" 999 q.Epp.Diag.site;
    check_bool "no cone size for an invalid site" true (q.Epp.Diag.cone_size = None)
  | qs -> Alcotest.fail (Printf.sprintf "expected 1 quarantine, got %d" (List.length qs))

(* Kill mid-run (on_chunk raises after the recorder appended the chunk),
   then resume: the file holds each finished entry once, the merged report
   is bit-identical to an uninterrupted sweep, the resumed count matches
   what the file held, and the resumed sweep's entries are appended after
   it, so the file ends up holding every site once. *)
let test_kill_resume_round_trip () =
  let c = test_circuit () in
  let engine = Epp.Epp_engine.create c in
  let path = Filename.temp_file "serprop_ck" ".txt" in
  let record =
    Report.Checkpoint.recorder ~circuit:c path
      ~fingerprint:(Report.Checkpoint.fingerprint engine)
  in
  let n = Circuit.node_count c in
  let kill_after = 3 in
  let chunks = ref 0 in
  (try
     ignore
       (Epp.Supervisor.sweep_all ~domains:2 ~chunk_size:16
          ~on_chunk:(fun ~done_count ~total entries ->
            record ~done_count ~total entries;
            incr chunks;
            if !chunks = kill_after then raise Killed)
          engine);
     Alcotest.fail "sweep should have been killed"
   with Killed -> ());
  let partial = kill_after * 16 in
  let sites_in_file () =
    match Report.Checkpoint.load ~circuit:c path with
    | Ok t -> List.map fst t.Report.Checkpoint.entries
    | Error e -> Alcotest.fail (Report.Checkpoint.error_message e)
  in
  check_bool "the file holds each finished entry once" true
    (sites_in_file () = List.init partial Fun.id);
  let clean = Epp.Supervisor.sweep_all ~domains:2 engine in
  match Report.Checkpoint.supervised_sweep ~domains:2 ~chunk_size:16
          ~checkpoint:path ~resume:true engine
  with
  | Error e -> Alcotest.fail (Report.Checkpoint.error_message e)
  | Ok resumed ->
    check_int "resumed sites" partial resumed.Epp.Supervisor.stats.Epp.Diag.resumed;
    check_int "all sites present" n
      (List.length resumed.Epp.Supervisor.entries);
    check_bool "identical final report" true
      (List.for_all2 same_result
         (analyzed_results engine clean)
         (analyzed_results engine resumed));
    check_bool "after the resume the file holds every site once" true
      (sites_in_file () = List.init n Fun.id);
    Sys.remove path

(* --- deadline ------------------------------------------------------------- *)

(* A block engine slow enough (2 ms per site) that a small budget expires
   mid-sweep.  domains:1 keeps dispatch sequential, so the finished entries
   are exactly a prefix of the input order and the assertions are
   deterministic. *)
let slow_batch_run block sites =
  Unix.sleepf (0.002 *. float_of_int (Array.length sites));
  Epp.Epp_batch.Block.run block sites

let test_deadline_partial_prefix () =
  let c = test_circuit () in
  let engine = Epp.Epp_engine.create c in
  let n = Circuit.node_count c in
  let unsupervised = Array.of_list (Epp.Ser_estimator.analyze_all engine) in
  let observations = Analysis.observations (Epp.Epp_engine.analysis engine) in
  let outcome =
    Epp.Supervisor.sweep ~domains:1 ~chunk_size:8 ~batch_run:slow_batch_run
      ~deadline:(Obs.Deadline.after ~seconds:0.05)
      engine (List.init n Fun.id)
  in
  match outcome.Epp.Supervisor.completion with
  | Epp.Diag.Complete -> Alcotest.fail "expected the deadline to expire"
  | Epp.Diag.Deadline_expired { analyzed; remaining; budget_seconds } ->
    check_bool "some sites finished" true (analyzed >= 1);
    check_bool "not all sites finished" true (analyzed < n);
    check_int "analyzed + remaining covers the request" n (analyzed + remaining);
    check_float "budget recorded" 0.05 budget_seconds;
    check_int "every finished entry is kept" analyzed
      (List.length outcome.Epp.Supervisor.entries);
    check_int "stats count the finished subset" analyzed
      outcome.Epp.Supervisor.stats.Epp.Diag.total;
    List.iteri
      (fun i (site, entry) ->
        check_int "finished entries form the input-order prefix" i site;
        match entry with
        | Epp.Supervisor.Analyzed { row; _ } ->
          check_bool "finished entry bit-identical to unsupervised" true
            (same_result unsupervised.(site)
               (Epp.Site_row.to_site_result observations ~site row))
        | Epp.Supervisor.Quarantined _ -> Alcotest.fail "unexpected quarantine")
      outcome.Epp.Supervisor.entries

(* An already-expired budget: nothing starts, nothing raises. *)
let test_deadline_zero_budget () =
  let c = test_circuit () in
  let engine = Epp.Epp_engine.create c in
  let n = Circuit.node_count c in
  let outcome =
    Epp.Supervisor.sweep_all ~domains:2
      ~deadline:(Obs.Deadline.of_budget_ms 0.0) engine
  in
  check_int "no entries" 0 (List.length outcome.Epp.Supervisor.entries);
  match outcome.Epp.Supervisor.completion with
  | Epp.Diag.Deadline_expired { analyzed = 0; remaining; _ } ->
    check_int "everything remains" n remaining
  | _ -> Alcotest.fail "expected an immediate expiry with nothing analyzed"

let test_no_deadline_complete () =
  let c = test_circuit () in
  let engine = Epp.Epp_engine.create c in
  let implicit = Epp.Supervisor.sweep_all ~domains:2 engine in
  check_bool "no deadline completes" true
    (implicit.Epp.Supervisor.completion = Epp.Diag.Complete);
  let generous =
    Epp.Supervisor.sweep_all ~domains:2
      ~deadline:(Obs.Deadline.after ~seconds:3600.0) engine
  in
  check_bool "a generous deadline completes" true
    (generous.Epp.Supervisor.completion = Epp.Diag.Complete)

(* The budget cuts a checkpointed sweep short; a later resume without a
   deadline replays the finished prefix and completes bit-identically. *)
let test_deadline_then_resume () =
  let c = test_circuit () in
  let engine = Epp.Epp_engine.create c in
  let n = Circuit.node_count c in
  let path = Filename.temp_file "serprop_deadline" ".ck" in
  let analyzed =
    match
      Report.Checkpoint.supervised_sweep ~domains:1 ~chunk_size:8
        ~checkpoint:path ~batch_run:slow_batch_run
        ~deadline:(Obs.Deadline.after ~seconds:0.05) engine
    with
    | Error e -> Alcotest.fail (Report.Checkpoint.error_message e)
    | Ok o -> (
      match o.Epp.Supervisor.completion with
      | Epp.Diag.Deadline_expired { analyzed; _ } ->
        check_int "partial entries snapshotted" analyzed
          (List.length o.Epp.Supervisor.entries);
        analyzed
      | Epp.Diag.Complete -> Alcotest.fail "expected the deadline to expire")
  in
  check_bool "the budget cut the sweep short" true (analyzed >= 1 && analyzed < n);
  let clean = Epp.Supervisor.sweep_all ~domains:2 engine in
  (match
     Report.Checkpoint.supervised_sweep ~domains:2 ~checkpoint:path
       ~resume:true engine
   with
  | Error e -> Alcotest.fail (Report.Checkpoint.error_message e)
  | Ok resumed ->
    check_bool "resume completes" true
      (resumed.Epp.Supervisor.completion = Epp.Diag.Complete);
    check_int "the finished prefix is replayed, not re-analyzed" analyzed
      resumed.Epp.Supervisor.stats.Epp.Diag.resumed;
    check_int "all sites present" n (List.length resumed.Epp.Supervisor.entries);
    check_bool "identical final report" true
      (List.for_all2 same_result
         (analyzed_results engine clean)
         (analyzed_results engine resumed)));
  Sys.remove path

(* --- prior entries ----------------------------------------------------------- *)

(* Entries the caller already holds are merged, not re-swept: they come back
   unchanged in site order and count as resumed, as covered in on_chunk's
   done_count, and as analyzed when the budget runs out first.  on_chunk
   hands over only each chunk's new entries, so a checkpoint appends every
   swept site once and no held one. *)
let test_prior_entries_held () =
  let c = test_circuit () in
  let engine = Epp.Epp_engine.create c in
  let n = Circuit.node_count c in
  let held = [ 0; 5; n - 1 ] in
  (* Quarantine records no sweep would produce: a re-swept site would come
     back analyzed instead. *)
  let marker site =
    Epp.Supervisor.Quarantined
      { Epp.Diag.site; name = "held"; cone_size = None; faults = [] }
  in
  let prior = List.map (fun s -> (s, marker s)) held in
  let chunks = ref [] in
  let outcome =
    Epp.Supervisor.sweep_all ~domains:1 ~chunk_size:16
      ~on_chunk:(fun ~done_count ~total entries ->
        check_int "total is the node count" n total;
        chunks := (done_count, entries) :: !chunks)
      ~prior engine
  in
  check_int "held entries counted as resumed" (List.length held)
    outcome.Epp.Supervisor.stats.Epp.Diag.resumed;
  check_int "every site present once" n
    (List.length outcome.Epp.Supervisor.entries);
  List.iteri
    (fun i (site, entry) ->
      check_int "site order" i site;
      match entry with
      | Epp.Supervisor.Quarantined { Epp.Diag.name; _ } ->
        check_bool "only held sites carry the marker" true
          (name = "held" && List.mem site held)
      | Epp.Supervisor.Analyzed _ ->
        check_bool "held sites are not re-swept" false (List.mem site held))
    outcome.Epp.Supervisor.entries;
  (match List.rev !chunks with
  | (done_count, entries) :: _ as chunks ->
    check_int "the first chunk's coverage includes the held entries"
      (List.length held + 16) done_count;
    check_int "the first chunk hands over its own 16 entries" 16
      (List.length entries);
    check_int "the last chunk's coverage is the node count" n
      (fst (List.hd (List.rev chunks)));
    let handed = List.concat_map snd chunks in
    check_bool "held entries are not handed over" true
      (List.for_all (fun (s, _) -> not (List.mem s held)) handed);
    check_int "every swept site handed over once" (n - List.length held)
      (List.length handed);
    let ids = List.map fst handed in
    check_bool "in site order" true (ids = List.sort_uniq compare ids)
  | [] -> Alcotest.fail "on_chunk never fired");
  let expired =
    Epp.Supervisor.sweep_all ~domains:1
      ~deadline:(Obs.Deadline.of_budget_ms 0.0) ~prior engine
  in
  check_int "an expired sweep still returns the held entries"
    (List.length held) (List.length expired.Epp.Supervisor.entries);
  (match expired.Epp.Supervisor.completion with
  | Epp.Diag.Deadline_expired { analyzed; remaining; _ } ->
    check_int "held entries count as analyzed" (List.length held) analyzed;
    check_int "analyzed + remaining = node count" n (analyzed + remaining)
  | Epp.Diag.Complete -> Alcotest.fail "expected the zero budget to expire");
  Alcotest.check_raises "a prior site outside the circuit"
    (Invalid_argument
       (Printf.sprintf "Supervisor.sweep_all: prior entry for site %d of %d" n n))
    (fun () ->
      ignore (Epp.Supervisor.sweep_all ~prior:[ (n, marker n) ] engine))

(* --- cost against the unsupervised driver ----------------------------------- *)

let minor_words f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

(* The supervised sweep allocates what the unsupervised one does plus its
   outcome's containers.  The result sentinel tests the values first and
   builds a fault's location string only for a bad one; when it built one
   per observation entry, this sweep allocated 1.6x the unsupervised one. *)
let test_allocation_matches_unsupervised () =
  let c = Circuit_gen.Random_dag.generate ~seed:1 Circuit_gen.Profiles.s5378 in
  let engine = Epp.Epp_engine.create c in
  (* warm: the first sweeps borrow and size the plane buffers *)
  ignore (Epp.Ser_estimator.analyze_all ~domains:1 engine);
  ignore (Epp.Supervisor.sweep_all ~domains:1 engine);
  let unsupervised =
    minor_words (fun () -> Epp.Ser_estimator.analyze_all ~domains:1 engine)
  in
  let supervised =
    minor_words (fun () -> Epp.Supervisor.sweep_all ~domains:1 engine)
  in
  check_bool
    (Printf.sprintf "supervised %.0f minor words within 5%% of unsupervised %.0f"
       supervised unsupervised)
    true
    (supervised <= 1.05 *. unsupervised)

(* On a small circuit the outcome's per-site containers weigh most
   against the per-observation data; a row spends 2 words an observation
   where the unsupervised driver's list spends 8, so even here the
   supervised sweep allocates no more. *)
let test_small_circuit_allocation () =
  let c = Circuit_gen.Random_dag.generate ~seed:3 Circuit_gen.Profiles.s1196 in
  let engine = Epp.Epp_engine.create c in
  ignore (Epp.Ser_estimator.analyze_all ~domains:1 engine);
  ignore (Epp.Supervisor.sweep_all ~domains:1 engine);
  let unsupervised =
    minor_words (fun () -> Epp.Ser_estimator.analyze_all ~domains:1 engine)
  in
  let supervised =
    minor_words (fun () -> Epp.Supervisor.sweep_all ~domains:1 engine)
  in
  check_bool
    (Printf.sprintf "supervised %.0f minor words <= unsupervised %.0f" supervised
       unsupervised)
    true
    (supervised <= unsupervised)

(* s13207:1 has 8,651 sites reaching about 148 observation points each,
   so what a site's result costs per observation sets the sweep's
   allocation. *)
let test_dense_sweep_allocation () =
  let c = Circuit_gen.Random_dag.generate ~seed:1 Circuit_gen.Profiles.s13207 in
  let engine = Epp.Epp_engine.create c in
  ignore (Epp.Supervisor.sweep_all ~domains:1 engine);
  let mb =
    minor_words (fun () -> Epp.Supervisor.sweep_all ~domains:1 engine)
    *. float_of_int (Sys.word_size / 8)
    /. 1048576.0
  in
  check_bool (Printf.sprintf "%.1f MB of minor words <= 30 MB" mb) true (mb <= 30.0)

(* What a sweep's consumers keep: the entries of a complete sweep against
   the unsupervised driver's list of site results, in reachable words. *)
let test_entries_footprint () =
  let c = Circuit_gen.Random_dag.generate ~seed:1 Circuit_gen.Profiles.s5378 in
  let engine = Epp.Epp_engine.create c in
  let words x = float_of_int (Obj.reachable_words (Obj.repr x)) in
  let results = words (Epp.Ser_estimator.analyze_all ~domains:1 engine) in
  let entries =
    words (Epp.Supervisor.sweep_all ~domains:1 engine).Epp.Supervisor.entries
  in
  check_bool
    (Printf.sprintf "entries %.0f words <= 0.35 x site results %.0f" entries results)
    true
    (entries <= 0.35 *. results)

let batch_blocks f =
  let reg = Obs.Metrics.create () in
  Obs.Hooks.set_metrics reg;
  ignore (Fun.protect ~finally:Obs.Hooks.reset f);
  Obs.Metrics.counter_value (Obs.Metrics.snapshot reg) "epp.batch.blocks"

(* The default chunk is a whole number of blocks, so chunking adds no short
   block: both drivers walk the same leaves (140 on s13207:1, where chunks
   of 1024 = 16 x 62 + 32 sites made the supervised sweep walk 144). *)
let test_chunks_end_on_block_boundaries () =
  let c = Circuit_gen.Random_dag.generate ~seed:1 Circuit_gen.Profiles.s13207 in
  let engine = Epp.Epp_engine.create c in
  let unsupervised =
    batch_blocks (fun () -> Epp.Ser_estimator.analyze_all ~domains:1 engine)
  in
  let supervised =
    batch_blocks (fun () -> Epp.Supervisor.sweep_all ~domains:1 engine)
  in
  check_int "same epp.batch.blocks as the unsupervised driver" unsupervised
    supervised

(* --- the CLI ------------------------------------------------------------------ *)

(* ser_estimate has one sweep path, so --domains applies to a plain run:
   s1196 (561 sites, 10 blocks) fans out at 2 domains, and the total FIT
   (the snapshot's [ser_estimate.total_fit] gauge, a round-tripping JSON
   number) is bit-identical to the 1-domain run's. *)
let test_cli_domains () =
  let run domains =
    let path = Filename.temp_file "serprop_cli" ".json" in
    let code =
      Sys.command
        (Printf.sprintf
           "%s profile:s1196 --domains %d --metrics %s > /dev/null 2>&1"
           ser_estimate_exe domains (Filename.quote path))
    in
    check_int (Printf.sprintf "--domains %d exits 0" domains) 0 code;
    let metrics =
      match Obs.Json.parse_file path with
      | Ok m -> m
      | Error e -> Alcotest.fail ("metrics snapshot: " ^ e)
    in
    Sys.remove path;
    let value section name =
      match
        Option.bind
          (Option.bind (Obs.Json.member section metrics) (Obs.Json.member name))
          Obs.Json.to_number
      with
      | Some v -> v
      | None -> Alcotest.fail (Printf.sprintf "no %s %s in the snapshot" section name)
    in
    ( value "counters" "parallel.workers_spawned",
      value "counters" "epp.batch.sites",
      value "gauges" "ser_estimate.total_fit" )
  in
  let spawned1, _, fit1 = run 1 in
  let spawned2, sites2, fit2 = run 2 in
  check_bool "one domain spawns no worker" true (spawned1 = 0.0);
  check_bool "two domains spawn a worker" true (spawned2 >= 1.0);
  check_bool "every site swept" true (sites2 = 561.0);
  check_bool
    (Printf.sprintf "total FIT bit-identical (%h vs %h)" fit2 fit1)
    true
    (bits fit1 = bits fit2)

let () =
  Alcotest.run "supervisor"
    [
      ( "ladder",
        [
          Alcotest.test_case "clean sweep" `Quick test_clean_sweep;
          Alcotest.test_case "degrade to reference" `Quick test_degrade_to_reference;
          Alcotest.test_case "sentinel trips" `Quick test_sentinel_trips;
          Alcotest.test_case "exactly k quarantines" `Quick test_quarantine_exactly_k;
          Alcotest.test_case "hostile sp mutation" `Quick test_hostile_sp_mutation;
          Alcotest.test_case "bad site quarantined" `Quick test_bad_site_quarantined;
        ] );
      ( "batch rung",
        [
          Alcotest.test_case "clean batch sweep" `Quick test_batch_clean_sweep;
          Alcotest.test_case "lane degrades alone" `Quick test_batch_lane_degrades_alone;
          Alcotest.test_case "full-ladder quarantine" `Quick
            test_batch_full_ladder_quarantine;
          Alcotest.test_case "whole-block failure" `Quick
            test_batch_whole_block_failure;
          Alcotest.test_case "planes reused across chunks and sweeps" `Quick
            test_batch_planes_reused;
        ] );
      ( "checkpoint",
        [ Alcotest.test_case "kill/resume round trip" `Quick test_kill_resume_round_trip ] );
      ( "deadline",
        [
          Alcotest.test_case "partial prefix kept" `Quick
            test_deadline_partial_prefix;
          Alcotest.test_case "zero budget" `Quick test_deadline_zero_budget;
          Alcotest.test_case "no deadline completes" `Quick
            test_no_deadline_complete;
          Alcotest.test_case "expire then resume" `Quick
            test_deadline_then_resume;
        ] );
      ( "prior",
        [ Alcotest.test_case "held entries merged, not re-swept" `Quick
            test_prior_entries_held ] );
      ( "cost",
        [
          Alcotest.test_case "allocates like the unsupervised sweep" `Quick
            test_allocation_matches_unsupervised;
          Alcotest.test_case "chunks end on block boundaries" `Quick
            test_chunks_end_on_block_boundaries;
          Alcotest.test_case "small circuit allocates no more" `Quick
            test_small_circuit_allocation;
          Alcotest.test_case "dense sweep allocates <= 30 MB" `Quick
            test_dense_sweep_allocation;
          Alcotest.test_case "entries hold <= 0.35x the site results" `Quick
            test_entries_footprint;
        ] );
      ( "cli",
        [ Alcotest.test_case "ser_estimate --domains by default" `Quick
            test_cli_domains ] );
    ]
