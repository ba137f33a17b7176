(* Tests for the incremental re-analysis pipeline: an edit's analysis
   context (Netlist.Analysis.apply_delta: the edited circuit's own, one sort
   per circuit), Epp.Incremental plan geometry, and the master property — a
   chain of random Transform edits analyzed incrementally is bit-identical,
   per observation, to a cold whole-circuit sweep of the final circuit, on
   every engine rung (batch, reference).

   The cold side always runs on a CLONE of the post-edit circuit, so it
   shares no memoized state (context, signal probabilities, engine) with
   the incremental side. *)

open Helpers
open Netlist

let fresh_registry () =
  let m = Obs.Metrics.create () in
  Obs.Hooks.set_metrics m;
  m

(* Rebuild a structurally identical circuit through the Builder: same node
   order, hence the same ids and observation positions, but none of the
   original's memoized analysis state. *)
let clone c =
  let b = Builder.create ~name:(Circuit.name c) () in
  for v = 0 to Circuit.node_count c - 1 do
    let name = Circuit.node_name c v in
    match Circuit.node c v with
    | Circuit.Input -> Builder.add_input b name
    | Circuit.Ff { data } ->
      Builder.add_dff b ~q:name ~d:(Circuit.node_name c data)
    | Circuit.Gate { kind; fanins } ->
      Builder.add_gate b ~output:name ~kind
        (List.map (Circuit.node_name c) (Array.to_list fanins))
  done;
  List.iter
    (fun v -> Builder.add_output b (Circuit.node_name c v))
    (Circuit.outputs c);
  Builder.freeze b

(* A mid-size reconvergent DAG with flip-flops — big enough that a single
   edit leaves most sites clean, so the splice path actually runs. *)
let random_dag ~seed =
  let profile =
    Circuit_gen.Profiles.make
      ~name:(Printf.sprintf "inc%d" seed)
      ~inputs:6 ~outputs:4 ~ffs:2 ~gates:30
  in
  Circuit_gen.Random_dag.generate ~seed profile

let random_edit rng circuit =
  let n = Circuit.node_count circuit in
  let gates =
    List.filter (Circuit.is_gate circuit) (List.init n Fun.id)
  in
  let buffer () =
    Transform.insert_identity_delta circuit ~net:(Rng.int rng ~bound:n)
  in
  match Rng.int rng ~bound:5 with
  | 0 -> buffer ()
  | 1 -> Transform.split_fanout_delta circuit ~net:(Rng.int rng ~bound:n)
  | 2 when gates <> [] ->
    Transform.triplicate_delta circuit
      ~nodes:[ List.nth gates (Rng.int rng ~bound:(List.length gates)) ]
  | 3 when Circuit.output_count circuit >= 2 ->
    let k = Circuit.output_count circuit in
    Transform.permute_observations_delta circuit
      ~perm:(Array.init k (fun i -> (i + 1) mod k))
  | _ -> (
    match
      List.filter
        (fun v ->
          match Circuit.kind_of circuit v with
          | Some (Gate.And | Gate.Or | Gate.Nand | Gate.Nor) -> true
          | _ -> false)
        (List.init n Fun.id)
    with
    | [] -> buffer ()
    | eligible ->
      Transform.de_morgan_delta circuit
        ~gate:(List.nth eligible (Rng.int rng ~bound:(List.length eligible))))

(* --- rung selection --------------------------------------------------------- *)

type rung = Batch | Reference

let rung_name = function
  | Batch -> "batch"
  | Reference -> "reference"

(* Every batch lane fails, so every site runs on the reference rung. *)
let batch_run_of = function
  | Batch -> None
  | Reference -> Some (fun _ _ -> failwith "forced degrade to the reference rung")

let full_sweep ~rung engine =
  Epp.Supervisor.sweep_all ~domains:1 ?batch_run:(batch_run_of rung) engine

let incremental_sweep ~rung plan ~prior engine =
  Epp.Incremental.sweep ~domains:1 ?batch_run:(batch_run_of rung) plan ~prior
    engine

(* --- bit-exact comparison --------------------------------------------------- *)

let same_entry (s1, e1) (s2, e2) =
  s1 = s2
  &&
  match (e1, e2) with
  | Epp.Supervisor.Analyzed { row = r1; _ }, Epp.Supervisor.Analyzed { row = r2; _ } ->
    same_row r1 r2
  | Epp.Supervisor.Quarantined _, Epp.Supervisor.Quarantined _ -> true
  | _ -> false

let outcomes_identical (a : Epp.Supervisor.outcome) (b : Epp.Supervisor.outcome) =
  List.length a.entries = List.length b.entries
  && List.for_all2 same_entry a.entries b.entries

(* --- the master property ---------------------------------------------------- *)

let chain_bit_identical ~rung ~steps seed =
  with_repro ~build:(fun s -> random_dag ~seed:s) seed (fun c0 ->
      let rng = Rng.create ~seed:((seed * 7) + 1) in
      let engine0 = Epp.Epp_engine.create c0 in
      let outcome0 = full_sweep ~rung engine0 in
      let rec go i circuit engine (outcome : Epp.Supervisor.outcome) =
        if i > steps then true
        else begin
          let _, d = random_edit rng circuit in
          let engine', _how = Epp.Incremental.rebase engine d in
          let plan = Epp.Incremental.plan ~before:engine ~after:engine' d in
          let outcome' =
            incremental_sweep ~rung plan ~prior:outcome.entries engine'
          in
          let c' = Delta.after d in
          let cold = full_sweep ~rung (Epp.Epp_engine.create (clone c')) in
          if not (outcomes_identical outcome' cold) then
            QCheck2.Test.fail_report
              (Printf.sprintf
                 "rung %s, step %d: incremental outcome differs from the cold \
                  sweep (dirty %d/%d)"
                 (rung_name rung) i
                 (Epp.Incremental.dirty_count plan)
                 (Epp.Incremental.total plan))
          else go (i + 1) c' engine' outcome'
        end
      in
      go 1 c0 engine0 outcome0)

let prop_chain rung =
  qtest ~count:12
    ~name:
      (Printf.sprintf "5-edit chain is bit-identical to cold sweep (%s rung)"
         (rung_name rung))
    seed_arbitrary
    (fun seed -> chain_bit_identical ~rung ~steps:5 seed)

(* --- apply_delta: one sort per circuit ---------------------------------------- *)

(* No order crosses an edit: rebase, plan and sweep sort the edited circuit
   exactly once, and that context is the one apply_delta hands back. *)
let test_edit_sorts_once () =
  let m = fresh_registry () in
  let topo () =
    Obs.Metrics.counter_value (Obs.Metrics.snapshot m) "analysis.topo.computed"
  in
  let c = Circuit_gen.Embedded.s27 () in
  let engine = Epp.Epp_engine.create c in
  let outcome = full_sweep ~rung:Batch engine in
  let _, d = Transform.insert_identity_delta c ~net:(Circuit.find c "G11") in
  let sorted = topo () in
  let engine', _ = Epp.Incremental.rebase engine d in
  let plan = Epp.Incremental.plan ~before:engine ~after:engine' d in
  ignore (incremental_sweep ~rung:Batch plan ~prior:outcome.entries engine');
  check_int "rebase, plan and sweep sort the edited circuit once" 1 (topo () - sorted);
  let c' = Delta.after d in
  let analysis', _ = Analysis.apply_delta (Analysis.get c) d in
  check_bool "apply_delta returns the edited circuit's own context" true
    (analysis' == Analysis.get c');
  check_bool "its order is topological" true
    (is_topological_order (Circuit.graph c') (Array.to_list (Analysis.order analysis')));
  check_int "and was sorted only once" 1 (topo () - sorted)

let test_apply_delta_rebuilds_on_reorder () =
  (* g1 is redefined to read g2, which sits AFTER it in the old topological
     order: the edit reverses a dependency, and the edited circuit's own
     sort orders it. *)
  let build redefined =
    let b = Builder.create ~name:"reorder" () in
    Builder.add_input b "a";
    if redefined then Builder.add_gate b ~output:"g1" ~kind:Gate.Not [ "g2" ]
    else Builder.add_gate b ~output:"g1" ~kind:Gate.Not [ "a" ];
    Builder.add_gate b ~output:"g2" ~kind:Gate.Not [ "a" ];
    Builder.add_output b "g1";
    Builder.add_output b "g2";
    Builder.freeze b
  in
  let before = build false and after = build true in
  let d = Delta.structural_diff ~before ~after in
  let analysis = Analysis.get before in
  let _, how = Analysis.apply_delta analysis d in
  check_bool "dependency reversal forces a rebuild" true (how = `Rebuilt);
  (* And the incremental sweep over that rebuilt analysis still matches a
     cold sweep bit-for-bit. *)
  let engine = Epp.Epp_engine.create before in
  let outcome = full_sweep ~rung:Batch engine in
  let engine', how' = Epp.Incremental.rebase engine d in
  check_bool "rebase reports the rebuild" true (how' = `Rebuilt);
  let plan = Epp.Incremental.plan ~before:engine ~after:engine' d in
  let outcome' =
    incremental_sweep ~rung:Batch plan ~prior:outcome.entries engine'
  in
  let cold = full_sweep ~rung:Batch (Epp.Epp_engine.create (clone after)) in
  check_bool "still bit-identical after the rebuild" true
    (outcomes_identical outcome' cold)

let test_apply_delta_rejects_wrong_circuit () =
  let c = Circuit_gen.Embedded.s27 () in
  let other = Circuit_gen.Embedded.c17 () in
  let _, d = Transform.insert_identity_delta c ~net:0 in
  Alcotest.check_raises "delta from another circuit"
    (Invalid_argument
       "Analysis.apply_delta: delta's before-circuit is not this context's")
    (fun () -> ignore (Analysis.apply_delta (Analysis.get other) d))

(* --- plan geometry ---------------------------------------------------------- *)

(* Two disjoint blocks: an edit inside block A provably leaves every block-B
   site clean, so the partial-plan splice path is exercised deterministically
   (s27 is too small — any edit there dirties the whole circuit). *)
let two_blocks () =
  let b = Builder.create ~name:"two_blocks" () in
  Builder.add_input b "a1";
  Builder.add_input b "a2";
  Builder.add_input b "b1";
  Builder.add_input b "b2";
  Builder.add_gate b ~output:"ga1" ~kind:Gate.And [ "a1"; "a2" ];
  Builder.add_gate b ~output:"ga2" ~kind:Gate.Not [ "ga1" ];
  Builder.add_gate b ~output:"gb1" ~kind:Gate.Or [ "b1"; "b2" ];
  Builder.add_gate b ~output:"gb2" ~kind:Gate.Not [ "gb1" ];
  Builder.add_output b "ga2";
  Builder.add_output b "gb2";
  Builder.freeze b

let test_plan_is_partial_and_metered () =
  let m = fresh_registry () in
  let c = two_blocks () in
  let engine = Epp.Epp_engine.create c in
  let outcome = full_sweep ~rung:Batch engine in
  let gate = Circuit.find c "ga1" in
  let _, d = Transform.triplicate_delta c ~nodes:[ gate ] in
  let engine', _ = Epp.Incremental.rebase engine d in
  let plan = Epp.Incremental.plan ~before:engine ~after:engine' d in
  check_bool "plan is not full-dirty" true (not (Epp.Incremental.is_full plan));
  check_bool "some sites dirty" true (Epp.Incremental.dirty_count plan > 0);
  check_bool "some sites clean" true
    (Epp.Incremental.dirty_count plan < Epp.Incremental.total plan);
  let outcome' =
    incremental_sweep ~rung:Batch plan ~prior:outcome.entries engine'
  in
  check_bool "spliced entries counted as resumed" true
    (outcome'.stats.Epp.Diag.resumed > 0);
  let s = Obs.Metrics.snapshot m in
  check_bool "dirty_sites metered" true
    (Obs.Metrics.counter_value s "epp.incremental.dirty_sites" > 0);
  check_bool "clean_reused metered" true
    (Obs.Metrics.counter_value s "epp.incremental.clean_reused" > 0);
  (match Obs.Metrics.gauge_value s "epp.incremental.dirty_fraction" with
  | Some f -> check_bool "dirty_fraction gauge in (0, 1)" true (f > 0.0 && f < 1.0)
  | None -> Alcotest.fail "dirty_fraction gauge missing");
  (* The live registry's Prometheus exposition carries the incremental
     series and lints clean. *)
  let exposition = Obs.Prom.of_snapshot s in
  check_bool "prometheus exposition lints" true (Obs.Prom.lint exposition = Ok ());
  let contains needle =
    let nh = String.length exposition and nn = String.length needle in
    let rec at i =
      i + nn <= nh && (String.sub exposition i nn = needle || at (i + 1))
    in
    at 0
  in
  check_bool "exposition has epp_incremental_dirty_sites" true
    (contains "epp_incremental_dirty_sites");
  check_bool "exposition has epp_incremental_clean_reused" true
    (contains "epp_incremental_clean_reused");
  check_bool "exposition has epp_incremental_dirty_fraction" true
    (contains "epp_incremental_dirty_fraction")

let test_plan_degrades_to_full_on_new_observation () =
  (* Adding an observation point changes the observation interface length:
     no positional correspondence exists, so the plan must go full-dirty
     rather than splice results computed against the old interface. *)
  let c = Circuit_gen.Embedded.s27 () in
  let b = Builder.create ~name:(Circuit.name c) () in
  for v = 0 to Circuit.node_count c - 1 do
    let name = Circuit.node_name c v in
    match Circuit.node c v with
    | Circuit.Input -> Builder.add_input b name
    | Circuit.Ff { data } ->
      Builder.add_dff b ~q:name ~d:(Circuit.node_name c data)
    | Circuit.Gate { kind; fanins } ->
      Builder.add_gate b ~output:name ~kind
        (List.map (Circuit.node_name c) (Array.to_list fanins))
  done;
  List.iter
    (fun v -> Builder.add_output b (Circuit.node_name c v))
    (Circuit.outputs c);
  Builder.add_output b "G8";
  let after = Builder.freeze b in
  let d = Delta.structural_diff ~before:c ~after in
  let engine = Epp.Epp_engine.create c in
  let outcome = full_sweep ~rung:Batch engine in
  let engine', _ = Epp.Incremental.rebase engine d in
  let plan = Epp.Incremental.plan ~before:engine ~after:engine' d in
  check_bool "new PO degrades the plan to full" true
    (Epp.Incremental.is_full plan);
  (* Full-dirty still produces the right bits (nothing is spliced). *)
  let outcome' =
    incremental_sweep ~rung:Batch plan ~prior:outcome.entries engine'
  in
  check_int "nothing resumed on a full plan" 0 outcome'.stats.Epp.Diag.resumed;
  let cold = full_sweep ~rung:Batch (Epp.Epp_engine.create (clone after)) in
  check_bool "full plan matches cold sweep" true (outcomes_identical outcome' cold)

(* A zero-budget edit sweeps nothing, yet the spliced clean sites are
   finished work: they count as analyzed, so analyzed + remaining is the
   post-edit node count and analyzed is the number of entries returned.
   (When the edit path merged the splice itself, a TMR of s1196:3's
   lowest-id gate returned 34 entries but reported 0 analyzed and 533
   remaining of 567.) *)
let test_zero_budget_edit_counts () =
  let c = Circuit_gen.Random_dag.generate ~seed:3 Circuit_gen.Profiles.s1196 in
  let engine = Epp.Epp_engine.create c in
  let outcome = full_sweep ~rung:Batch engine in
  let gate =
    List.find (Circuit.is_gate c) (List.init (Circuit.node_count c) Fun.id)
  in
  let _, d = Transform.triplicate_delta c ~nodes:[ gate ] in
  let engine', _ = Epp.Incremental.rebase engine d in
  let plan = Epp.Incremental.plan ~before:engine ~after:engine' d in
  let outcome' =
    Epp.Incremental.sweep ~domains:1 ~deadline:(Obs.Deadline.of_budget_ms 0.0)
      plan ~prior:outcome.entries engine'
  in
  let entries = List.length outcome'.entries in
  check_bool "some clean sites spliced" true (entries > 0);
  check_int "every returned entry was spliced" entries
    outcome'.stats.Epp.Diag.resumed;
  match outcome'.completion with
  | Epp.Diag.Deadline_expired { analyzed; remaining; _ } ->
    check_int "analyzed = entries returned" entries analyzed;
    check_int "analyzed + remaining = post-edit node count"
      (Circuit.node_count (Delta.after d))
      (analyzed + remaining)
  | Epp.Diag.Complete -> Alcotest.fail "expected the zero budget to expire"

(* A clean site's entry after an edit is the base sweep's entry itself,
   not a copy: rows name observations by position and carry no site id,
   so nothing about them changes across an observation-compatible edit. *)
let test_clean_entries_shared () =
  let c = Circuit_gen.Random_dag.generate ~seed:3 Circuit_gen.Profiles.s1196 in
  let engine = Epp.Epp_engine.create c in
  let outcome = full_sweep ~rung:Batch engine in
  let gate =
    List.nth (List.filter (Circuit.is_gate c) (List.init (Circuit.node_count c) Fun.id)) 40
  in
  let _, d = Transform.triplicate_delta c ~nodes:[ gate ] in
  let engine', _ = Epp.Incremental.rebase engine d in
  let plan = Epp.Incremental.plan ~before:engine ~after:engine' d in
  let outcome' =
    incremental_sweep ~rung:Batch plan ~prior:outcome.entries engine'
  in
  let before = Array.of_list (List.map snd outcome.entries) in
  let old_of_new = Delta.old_of_new d in
  let clean = ref 0 in
  List.iter
    (fun (w, entry) ->
      let v = old_of_new.(w) in
      if (not (Epp.Incremental.dirty plan).(w)) && v >= 0 then begin
        incr clean;
        check_bool (Printf.sprintf "site %d keeps site %d's entry" w v) true
          (entry == before.(v))
      end)
    outcome'.entries;
  check_bool "the edit left clean sites" true (!clean > 0);
  check_int "every clean site resumed" !clean outcome'.stats.Epp.Diag.resumed

(* The dirty set as it was computed with one pass per seed family: the
   edit's backward-dirty set over both graphs, then a second backward pass
   per graph from the SP and observation seeds, OR-ed together.  [plan]
   runs one pass per graph from all the seeds at once; reachability from a
   union of seeds is the union of the reachabilities, so the arrays must be
   equal bit for bit. *)
let two_pass_dirty ~before ~after d =
  let c_old = Delta.before d and c_new = Delta.after d in
  let g_old = Circuit.graph c_old and g_new = Circuit.graph c_new in
  let old_of_new = Delta.old_of_new d and new_of_old = Delta.new_of_old d in
  let n_new = Circuit.node_count c_new in
  let touched_old = List.filter_map (fun w -> let v = old_of_new.(w) in if v >= 0 then Some v else None) (Delta.touched d) in
  let bwd_new = Reach.backward_set g_new (Delta.touched d) in
  let bwd_old = Reach.backward_set g_old (Delta.removed d @ touched_old) in
  let base =
    Array.init n_new (fun w ->
        let v = old_of_new.(w) in
        bwd_new.(w) || (v >= 0 && bwd_old.(v)) || v < 0)
  in
  let seeds_new = ref [] and seeds_old = ref [] in
  let seed c seeds v = seeds := (v :: Circuit.fanouts c v) @ !seeds in
  let sp_old = (Epp.Epp_engine.signal_probabilities before).Sigprob.Sp.values in
  let sp_new = (Epp.Epp_engine.signal_probabilities after).Sigprob.Sp.values in
  for w = 0 to n_new - 1 do
    let v = old_of_new.(w) in
    if v >= 0 && Int64.bits_of_float sp_old.(v) <> Int64.bits_of_float sp_new.(w) then begin
      seed c_new seeds_new w;
      seed c_old seeds_old v
    end
  done;
  let obs_new = Array.of_list (Circuit.observations c_new) in
  List.iteri
    (fun i o ->
      let net_old = Circuit.observation_net c_old o in
      let net_new = Circuit.observation_net c_new obs_new.(i) in
      if new_of_old.(net_old) <> net_new then begin
        seed c_new seeds_new net_new;
        seed c_old seeds_old net_old
      end)
    (Circuit.observations c_old);
  let extra_new = Reach.backward_set g_new !seeds_new in
  let extra_old = Reach.backward_set g_old !seeds_old in
  Array.init n_new (fun w ->
      let v = old_of_new.(w) in
      base.(w) || extra_new.(w) || (v >= 0 && extra_old.(v)))

(* Edits aimed at the planner's SP and observation seeds: a buffer on a PO
   net and TMR of an FF's data driver move an observation net; TMR or de
   Morgan of an FF's data driver moves that FF's signal probability, and
   with it the probabilities downstream of the FF, upstream of the edit
   included. *)
let targeted_edit rng circuit =
  let pick l = List.nth l (Rng.int rng ~bound:(List.length l)) in
  let drivers =
    List.filter_map
      (fun ff ->
        match Circuit.node circuit ff with
        | Circuit.Ff { data } when Circuit.is_gate circuit data -> Some data
        | Circuit.Ff _ | Circuit.Input | Circuit.Gate _ -> None)
      (Circuit.ffs circuit)
  in
  let dualizable =
    List.filter
      (fun g ->
        match Circuit.kind_of circuit g with
        | Some (Gate.And | Gate.Or | Gate.Nand | Gate.Nor) -> true
        | _ -> false)
      drivers
  in
  match Rng.int rng ~bound:3 with
  | 1 when drivers <> [] -> Transform.triplicate_delta circuit ~nodes:[ pick drivers ]
  | 2 when dualizable <> [] -> Transform.de_morgan_delta circuit ~gate:(pick dualizable)
  | _ -> Transform.insert_identity_delta circuit ~net:(pick (Circuit.outputs circuit))

(* What one step of a chain exercised: some survivor upstream of the edit
   (reaching a touched node) changed its signal probability, and some
   observation moved to another net. *)
let seeds_exercised ~before ~after d =
  let old_of_new = Delta.old_of_new d and new_of_old = Delta.new_of_old d in
  let c_old = Delta.before d and c_new = Delta.after d in
  let upstream = Reach.backward_set (Circuit.graph c_new) (Delta.touched d) in
  let sp_old = (Epp.Epp_engine.signal_probabilities before).Sigprob.Sp.values in
  let sp_new = (Epp.Epp_engine.signal_probabilities after).Sigprob.Sp.values in
  let sp_upstream = ref false in
  Array.iteri
    (fun w v ->
      if v >= 0 && upstream.(w) && Int64.bits_of_float sp_old.(v) <> Int64.bits_of_float sp_new.(w) then
        sp_upstream := true)
    old_of_new;
  let obs_new = Array.of_list (Circuit.observations c_new) in
  let moved =
    List.exists2
      (fun o o' ->
        new_of_old.(Circuit.observation_net c_old o) <> Circuit.observation_net c_new o')
      (Circuit.observations c_old)
      (Array.to_list obs_new)
  in
  (!sp_upstream, moved)

(* A chain of [edit]s on one random DAG: the planner's dirty set against
   the two-pass one at every step, and how many steps exercised each seed
   family. *)
let planner_chain ~edit seed =
  let sp_steps = ref 0 and moved_steps = ref 0 in
  let agree =
    with_repro ~build:(fun s -> random_dag ~seed:s) seed (fun c0 ->
        let rng = Rng.create ~seed:((seed * 7) + 3) in
        let rec go i circuit engine =
          i > 5
          ||
          let _, d = edit rng circuit in
          let engine', _ = Epp.Incremental.rebase engine d in
          let plan = Epp.Incremental.plan ~before:engine ~after:engine' d in
          let sp, moved = seeds_exercised ~before:engine ~after:engine' d in
          if sp then incr sp_steps;
          if moved then incr moved_steps;
          (Epp.Incremental.is_full plan
          || Epp.Incremental.dirty plan = two_pass_dirty ~before:engine ~after:engine' d
          || QCheck2.Test.fail_reportf "step %d: the dirty sets differ" i)
          && go (i + 1) (Delta.after d) engine'
        in
        go 1 c0 (Epp.Epp_engine.create c0))
  in
  (agree, !sp_steps, !moved_steps)

let prop_plan_dirty_two_pass =
  qtest ~count:25 ~name:"dirty set equals the two-pass planner" seed_arbitrary (fun seed ->
      let agree, _, _ = planner_chain ~edit:random_edit seed in
      let agree', _, _ = planner_chain ~edit:targeted_edit seed in
      agree && agree')

(* The targeted chains do reach both seed families, on pinned seeds. *)
let test_targeted_chains_exercise_seeds () =
  let sp = ref 0 and moved = ref 0 in
  List.iter
    (fun seed ->
      let agree, s, m = planner_chain ~edit:targeted_edit seed in
      check_bool (Printf.sprintf "seed %d: planners agree" seed) true agree;
      sp := !sp + s;
      moved := !moved + m)
    [ 1; 2; 3; 4; 5; 6 ];
  check_bool (Printf.sprintf "%d steps changed SP upstream of the edit" !sp) true (!sp > 0);
  check_bool (Printf.sprintf "%d steps moved an observation net" !moved) true (!moved > 0)

(* An observation moved to a net that already existed, no node redefined:
   the edit seeds nothing, and only the moved-from net's new counterpart
   marks the site that stops reaching that position. *)
let test_observation_moved_in_place () =
  let build po =
    let b = Builder.create ~name:"retarget" () in
    Builder.add_input b "a";
    Builder.add_input b "b";
    Builder.add_gate b ~output:"g1" ~kind:Gate.Not [ "a" ];
    Builder.add_gate b ~output:"g2" ~kind:Gate.Not [ "b" ];
    Builder.add_output b po;
    Builder.freeze b
  in
  let before = build "g1" and after = build "g2" in
  let d = Delta.structural_diff ~before ~after in
  check_bool "no node redefined" true (Delta.touched d = [] && Delta.removed d = []);
  let engine = Epp.Epp_engine.create before in
  let outcome = full_sweep ~rung:Batch engine in
  let engine', _ = Epp.Incremental.rebase engine d in
  let plan = Epp.Incremental.plan ~before:engine ~after:engine' d in
  check_bool "a, which reached the old net only, is dirty" true
    (Epp.Incremental.dirty plan).(Circuit.find after "a");
  check_bool "dirty set equals the two-pass planner's" true
    (Epp.Incremental.dirty plan = two_pass_dirty ~before:engine ~after:engine' d);
  let outcome' = incremental_sweep ~rung:Batch plan ~prior:outcome.entries engine' in
  let cold = full_sweep ~rung:Batch (Epp.Epp_engine.create (clone after)) in
  check_bool "bit-identical to a cold sweep" true (outcomes_identical outcome' cold)

let () =
  Alcotest.run "incremental"
    [
      ( "apply_delta",
        [
          Alcotest.test_case "an edit sorts its circuit once" `Quick
            test_edit_sorts_once;
          Alcotest.test_case "rebuild on dependency reversal" `Quick
            test_apply_delta_rebuilds_on_reorder;
          Alcotest.test_case "wrong circuit rejected" `Quick
            test_apply_delta_rejects_wrong_circuit;
        ] );
      ( "plan",
        [
          Alcotest.test_case "partial plan, metered + prom" `Quick
            test_plan_is_partial_and_metered;
          Alcotest.test_case "full on new observation" `Quick
            test_plan_degrades_to_full_on_new_observation;
          Alcotest.test_case "zero-budget edit keeps the count" `Quick
            test_zero_budget_edit_counts;
          Alcotest.test_case "clean entries shared, not copied" `Quick
            test_clean_entries_shared;
          prop_plan_dirty_two_pass;
          Alcotest.test_case "targeted chains reach both seeds" `Quick
            test_targeted_chains_exercise_seeds;
          Alcotest.test_case "observation moved in place" `Quick
            test_observation_moved_in_place;
        ] );
      ( "bit identity",
        [ prop_chain Batch; prop_chain Reference ] );
    ]
