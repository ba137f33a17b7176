(* Tests for the supervised sweep: the degradation ladder (batch -> kernel ->
   reference -> quarantine), the numeric sentinels, and the checkpoint
   kill/resume round trip.

   Fault injection is deterministic: hostile sites are poisoned through the
   supervisor's kernel/reference override seam (a stub raising or returning
   defective results), or by mutating the engine's sp vector after creation
   (the post-validation corruption a long-lived batch job might suffer). *)

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

(* A clean sweep is all-kernel, quarantine-free, and bit-identical to the
   unsupervised batch path. *)
let test_clean_sweep () =
  let c = test_circuit () in
  let engine = Epp.Epp_engine.create c in
  let unsupervised = Epp.Epp_engine.analyze_all engine in
  let outcome = Epp.Supervisor.sweep_all ~domains:3 ~chunk_size:37 engine in
  let stats = outcome.Epp.Supervisor.stats in
  check_int "total" (Circuit.node_count c) stats.Epp.Diag.total;
  check_int "all kernel" (Circuit.node_count c) stats.Epp.Diag.kernel_ok;
  check_int "none degraded" 0 stats.Epp.Diag.degraded;
  check_int "none quarantined" 0 stats.Epp.Diag.quarantined;
  check_bool "bit-identical to unsupervised" true
    (List.for_all2 same_result unsupervised (Epp.Supervisor.results outcome))

(* Kernel stub raising on k sites: those degrade to the reference path and
   still produce the unsupervised results, everything stays analyzed. *)
let test_degrade_to_reference () =
  let c = test_circuit () in
  let engine = Epp.Epp_engine.create c in
  let n = Circuit.node_count c in
  let poisoned = [ 3; n / 2; n - 1 ] in
  let kernel ws site =
    if List.mem site poisoned then failwith "injected kernel fault"
    else Epp.Epp_engine.Workspace.analyze_site ws site
  in
  let unsupervised = Epp.Epp_engine.analyze_all engine in
  let outcome = Epp.Supervisor.sweep_all ~domains:3 ~kernel engine in
  let stats = outcome.Epp.Supervisor.stats in
  check_int "degraded = k" (List.length poisoned) stats.Epp.Diag.degraded;
  check_int "none quarantined" 0 stats.Epp.Diag.quarantined;
  check_bool "degraded results match the reference bit-identically" true
    (List.for_all2 same_result unsupervised (Epp.Supervisor.results outcome));
  List.iter
    (fun (site, entry) ->
      match entry with
      | Epp.Supervisor.Analyzed { step; _ } ->
        check_bool
          (Printf.sprintf "site %d on the right rung" site)
          true
          (if List.mem site poisoned then step = Epp.Diag.Reference
           else step = Epp.Diag.Kernel)
      | Epp.Supervisor.Quarantined _ -> Alcotest.fail "unexpected quarantine")
    outcome.Epp.Supervisor.entries

(* A NaN in the kernel's published result trips the sentinel (no exception
   involved) and degrades; so does an out-of-range probability. *)
let test_sentinel_trips () =
  let c = test_circuit () in
  let engine = Epp.Epp_engine.create c in
  let defective p (r : Epp.Epp_engine.site_result) =
    { r with Epp.Epp_engine.p_sensitized = p }
  in
  let kernel ws site =
    let r = Epp.Epp_engine.Workspace.analyze_site ws site in
    if site = 1 then defective Float.nan r
    else if site = 2 then defective 2.5 r
    else r
  in
  let outcome = Epp.Supervisor.sweep_all ~domains:1 ~kernel engine in
  let stats = outcome.Epp.Supervisor.stats in
  check_int "both sentinel trips degraded" 2 stats.Epp.Diag.degraded;
  check_int "none quarantined" 0 stats.Epp.Diag.quarantined

(* Both rungs poisoned: exactly k quarantines with a typed fault per rung,
   and every other site bit-identical to the unsupervised sweep. *)
let test_quarantine_exactly_k () =
  let c = test_circuit () in
  let engine = Epp.Epp_engine.create c in
  let n = Circuit.node_count c in
  let poisoned = [ 0; 7; n - 2 ] in
  let poison site = List.mem site poisoned in
  let kernel ws site =
    if poison site then failwith "injected kernel fault"
    else Epp.Epp_engine.Workspace.analyze_site ws site
  in
  let reference engine site =
    if poison site then failwith "injected reference fault"
    else Epp.Epp_engine.analyze_site engine site
  in
  let unsupervised = Epp.Epp_engine.analyze_all engine in
  let outcome = Epp.Supervisor.sweep_all ~domains:3 ~kernel ~reference engine in
  let qs = Epp.Supervisor.quarantines outcome in
  check_int "exactly k quarantines" (List.length poisoned) (List.length qs);
  check_bool "quarantined the poisoned sites" true
    (List.for_all2 (fun q s -> q.Epp.Diag.site = s) qs poisoned);
  List.iter
    (fun (q : Epp.Diag.quarantine) ->
      check_int "one fault per rung" 2 (List.length q.Epp.Diag.faults);
      check_bool "rungs in order, typed as exceptions" true
        (match q.Epp.Diag.faults with
        | [ (Epp.Diag.Kernel, Epp.Diag.Exception _);
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
    (List.for_all2 same_result expected (Epp.Supervisor.results outcome))

(* Post-create sp corruption (the validation in create can no longer see it):
   affected sites fail on both rungs and are quarantined; the sweep finishes
   and the unaffected sites match a pre-corruption sweep bit-identically. *)
let test_hostile_sp_mutation () =
  let c = test_circuit () in
  let engine = Epp.Epp_engine.create ~sp:(Sigprob.Sp_topological.compute c) c in
  let before = Epp.Epp_engine.analyze_all engine in
  let victim = List.hd (Circuit.inputs c) in
  let sp = Epp.Epp_engine.signal_probabilities engine in
  sp.Sigprob.Sp.values.(victim) <- Float.nan;
  let outcome = Epp.Supervisor.sweep_all ~domains:3 engine in
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
    (List.for_all2 same_result survivors (Epp.Supervisor.results outcome))

(* A forced-batch clean sweep runs every site on the batch rung and is
   bit-identical to the unsupervised per-site sweep. *)
let test_batch_clean_sweep () =
  let c = test_circuit () in
  let engine = Epp.Epp_engine.create c in
  let n = Circuit.node_count c in
  let unsupervised = Epp.Epp_engine.analyze_all engine in
  let outcome =
    Epp.Supervisor.sweep_all ~domains:3 ~chunk_size:100 ~batch:Epp.Supervisor.Always
      engine
  in
  let stats = outcome.Epp.Supervisor.stats in
  check_int "all batch" n stats.Epp.Diag.batch_ok;
  check_int "no kernel" 0 stats.Epp.Diag.kernel_ok;
  check_int "none degraded" 0 stats.Epp.Diag.degraded;
  check_int "none quarantined" 0 stats.Epp.Diag.quarantined;
  check_bool "bit-identical to unsupervised" true
    (List.for_all2 same_result unsupervised (Epp.Supervisor.results outcome))

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
        let sweep e =
          Epp.Supervisor.sweep_all ~domains:1 ~chunk_size:16
            ~batch:Epp.Supervisor.Always e
        in
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
        (List.for_all2 same_result (Epp.Epp_engine.analyze_all e)
           (Epp.Supervisor.results o)))
    [ (e1, o1); (e2, o2) ]

(* [batch:Never] keeps even a batchable sweep on the per-site ladder, and a
   Naive-mode engine can never take the batch rung regardless of the mode. *)
let test_batch_opt_out () =
  let c = test_circuit () in
  let engine = Epp.Epp_engine.create c in
  let outcome =
    Epp.Supervisor.sweep_all ~batch:Epp.Supervisor.Never engine
  in
  check_int "never: no batch" 0 outcome.Epp.Supervisor.stats.Epp.Diag.batch_ok;
  let naive = Epp.Epp_engine.create ~mode:Epp.Epp_engine.Naive c in
  let outcome =
    Epp.Supervisor.sweep_all ~batch:Epp.Supervisor.Always naive
  in
  let stats = outcome.Epp.Supervisor.stats in
  check_int "naive: no batch" 0 stats.Epp.Diag.batch_ok;
  check_int "naive: all kernel" (Circuit.node_count c) stats.Epp.Diag.kernel_ok

(* Per-lane quarantine injection through the [batch_run] seam: poisoned
   lanes degrade to the kernel rung alone — their block-mates stay on the
   batch rung — and every site still gets the unsupervised result. *)
let test_batch_lane_degrades_alone () =
  let c = test_circuit () in
  let engine = Epp.Epp_engine.create c in
  let n = Circuit.node_count c in
  let poisoned = [ 3; n / 2; n - 1 ] in
  let batch_run block sites =
    let results = Epp.Epp_batch.Block.run block sites in
    Array.mapi
      (fun l r ->
        if List.mem sites.(l) poisoned then Error (Failure "injected lane fault")
        else r)
      results
  in
  let unsupervised = Epp.Epp_engine.analyze_all engine in
  let outcome =
    Epp.Supervisor.sweep_all ~domains:3 ~batch:Epp.Supervisor.Always ~batch_run
      engine
  in
  let stats = outcome.Epp.Supervisor.stats in
  check_int "healthy lanes stay batched" (n - List.length poisoned)
    stats.Epp.Diag.batch_ok;
  check_int "poisoned lanes on the kernel rung" (List.length poisoned)
    stats.Epp.Diag.kernel_ok;
  check_int "none quarantined" 0 stats.Epp.Diag.quarantined;
  check_bool "all sites bit-identical to unsupervised" true
    (List.for_all2 same_result unsupervised (Epp.Supervisor.results outcome));
  List.iter
    (fun (site, entry) ->
      match entry with
      | Epp.Supervisor.Analyzed { step; _ } ->
        check_bool
          (Printf.sprintf "site %d on the right rung" site)
          true
          (if List.mem site poisoned then step = Epp.Diag.Kernel
           else step = Epp.Diag.Batch)
      | Epp.Supervisor.Quarantined _ -> Alcotest.fail "unexpected quarantine")
    outcome.Epp.Supervisor.entries

(* All three rungs poisoned for one site: the quarantine record carries one
   typed fault per rung, in ladder order batch -> kernel -> reference. *)
let test_batch_full_ladder_quarantine () =
  let c = test_circuit () in
  let engine = Epp.Epp_engine.create c in
  let n = Circuit.node_count c in
  let victim = n / 3 in
  let batch_run block sites =
    let results = Epp.Epp_batch.Block.run block sites in
    Array.mapi
      (fun l r ->
        if sites.(l) = victim then Error (Failure "injected batch fault") else r)
      results
  in
  let kernel ws site =
    if site = victim then failwith "injected kernel fault"
    else Epp.Epp_engine.Workspace.analyze_site ws site
  in
  let reference engine site =
    if site = victim then failwith "injected reference fault"
    else Epp.Epp_engine.analyze_site engine site
  in
  let outcome =
    Epp.Supervisor.sweep_all ~batch:Epp.Supervisor.Always ~batch_run ~kernel
      ~reference engine
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
          (Epp.Diag.Kernel, Epp.Diag.Exception _);
          (Epp.Diag.Reference, Epp.Diag.Exception _) ] -> true
      | _ -> false)
  | qs -> Alcotest.fail (Printf.sprintf "expected 1 quarantine, got %d" (List.length qs))

(* A whole-block batch failure (the run itself raises) degrades every lane
   of that block to the per-site ladder; the sweep still completes with
   every site analyzed. *)
let test_batch_whole_block_failure () =
  let c = test_circuit () in
  let engine = Epp.Epp_engine.create c in
  let n = Circuit.node_count c in
  let batch_run _block _sites = failwith "injected block fault" in
  let unsupervised = Epp.Epp_engine.analyze_all engine in
  let outcome =
    Epp.Supervisor.sweep_all ~batch:Epp.Supervisor.Always ~batch_run engine
  in
  let stats = outcome.Epp.Supervisor.stats in
  check_int "no batch survivors" 0 stats.Epp.Diag.batch_ok;
  check_int "every lane degraded to kernel" n stats.Epp.Diag.kernel_ok;
  check_int "none quarantined" 0 stats.Epp.Diag.quarantined;
  check_bool "results still bit-identical" true
    (List.for_all2 same_result unsupervised (Epp.Supervisor.results outcome))

(* An out-of-range site id in the input is quarantined, not fatal. *)
let test_bad_site_quarantined () =
  let c = fig1 () in
  let engine = Epp.Epp_engine.create c in
  let outcome = Epp.Supervisor.sweep ~domains:1 engine [ 0; 999; 1 ] in
  check_int "two analyzed" 2 (List.length (Epp.Supervisor.results outcome));
  match Epp.Supervisor.quarantines outcome with
  | [ q ] ->
    check_int "the bad site" 999 q.Epp.Diag.site;
    check_bool "no cone size for an invalid site" true (q.Epp.Diag.cone_size = None)
  | qs -> Alcotest.fail (Printf.sprintf "expected 1 quarantine, got %d" (List.length qs))

(* Kill mid-run (on_chunk raises after the checkpoint write), then resume:
   the merged report is bit-identical to an uninterrupted sweep and the
   resumed count matches what the snapshot held. *)
let test_kill_resume_round_trip () =
  let c = test_circuit () in
  let engine = Epp.Epp_engine.create c in
  let path = Filename.temp_file "serprop_ck" ".txt" in
  let fp = Report.Checkpoint.fingerprint engine in
  let n = Circuit.node_count c in
  let saved = ref [] in
  let kill_after = 3 in
  let chunks = ref 0 in
  (try
     ignore
       (Epp.Supervisor.sweep ~domains:2 ~chunk_size:16
          ~on_chunk:(fun ~done_count:_ ~total:_ entries ->
            saved := entries @ !saved;
            Report.Checkpoint.save path
              {
                Report.Checkpoint.fingerprint = fp;
                total_sites = n;
                entries = List.sort compare !saved;
              };
            incr chunks;
            if !chunks = kill_after then raise Killed)
          engine
          (List.init n Fun.id));
     Alcotest.fail "sweep should have been killed"
   with Killed -> ());
  let partial = kill_after * 16 in
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
         (Epp.Supervisor.results clean)
         (Epp.Supervisor.results resumed));
    Sys.remove path

(* --- deadline ------------------------------------------------------------- *)

(* A kernel slow enough that a small budget expires mid-sweep.  domains:1
   keeps dispatch sequential, so the finished entries are exactly a prefix
   of the input order and the assertions are deterministic. *)
let slow_kernel ws site =
  Unix.sleepf 0.002;
  Epp.Epp_engine.Workspace.analyze_site ws site

let test_deadline_partial_prefix () =
  let c = test_circuit () in
  let engine = Epp.Epp_engine.create c in
  let n = Circuit.node_count c in
  let unsupervised = Array.of_list (Epp.Epp_engine.analyze_all engine) in
  let outcome =
    Epp.Supervisor.sweep ~domains:1 ~chunk_size:8 ~kernel:slow_kernel
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
        | Epp.Supervisor.Analyzed { result; _ } ->
          check_bool "finished entry bit-identical to unsupervised" true
            (same_result unsupervised.(site) result)
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
        ~checkpoint:path ~kernel:slow_kernel
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
         (Epp.Supervisor.results clean)
         (Epp.Supervisor.results resumed)));
  Sys.remove path

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
          Alcotest.test_case "opt-out modes" `Quick test_batch_opt_out;
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
    ]
