(* Tests for the production EPP sweep — the Epp_batch block engine behind
   Ser_estimator.analyze_sites — against the boxed reference engine
   (Epp_engine.analyze_site), and for the work-stealing fan-out it runs on.

   The batch engine mirrors the reference's arithmetic lane by lane, so the
   contract is bit identity: every field of every site_result, every float
   compared by its bits, on every circuit shape, at every block size, split
   or not. *)

open Helpers
open Netlist

let obs_equal (a : Circuit.observation) (b : Circuit.observation) =
  match a, b with
  | Circuit.Po x, Circuit.Po y -> x = y
  | Circuit.Ff_data x, Circuit.Ff_data y -> x = y
  | (Circuit.Po _ | Circuit.Ff_data _), _ -> false

let results_match_bitwise (a : Epp.Epp_engine.site_result)
    (b : Epp.Epp_engine.site_result) =
  a.Epp.Epp_engine.site = b.Epp.Epp_engine.site
  && a.Epp.Epp_engine.cone_size = b.Epp.Epp_engine.cone_size
  && a.Epp.Epp_engine.reached_outputs = b.Epp.Epp_engine.reached_outputs
  && Int64.equal
       (Int64.bits_of_float a.Epp.Epp_engine.p_sensitized)
       (Int64.bits_of_float b.Epp.Epp_engine.p_sensitized)
  && List.length a.Epp.Epp_engine.per_observation
     = List.length b.Epp.Epp_engine.per_observation
  && List.for_all2
       (fun (o1, p1) (o2, p2) ->
         obs_equal o1 o2 && Int64.equal (Int64.bits_of_float p1) (Int64.bits_of_float p2))
       a.Epp.Epp_engine.per_observation b.Epp.Epp_engine.per_observation

(* A block's row for [site] against the reference, through the row's
   list-shaped view. *)
let row_matches_reference engine site (row : Epp.Site_row.t) =
  let observations = Analysis.observations (Epp.Epp_engine.analysis engine) in
  results_match_bitwise
    (Epp.Epp_engine.analyze_site engine site)
    (Epp.Site_row.to_site_result observations ~site row)

let sp_for c =
  if Circuit.ff_count c > 0 then
    (Sigprob.Sp_sequential.compute c).Sigprob.Sp_sequential.result
  else Sigprob.Sp_topological.compute c

(* Every site of the circuit through the sweep driver, against the
   reference (or one of its per-site ablations) site by site. *)
let sweep_matches_reference ?(reference = Epp.Epp_engine.analyze_site) c =
  let engine = Epp.Epp_engine.create ~sp:(sp_for c) c in
  let n = Circuit.node_count c in
  let swept = Epp.Ser_estimator.analyze_site_array engine (Array.init n Fun.id) in
  let ok = ref true in
  for site = 0 to n - 1 do
    if not (results_match_bitwise (reference engine site) swept.(site)) then
      ok := false
  done;
  !ok

let gen_combinational ~seed =
  let profile =
    Circuit_gen.Profiles.make
      ~name:(Printf.sprintf "kcomb%d" seed)
      ~inputs:6 ~outputs:3 ~ffs:0
      ~gates:(30 + (seed mod 50))
  in
  Circuit_gen.Random_dag.generate ~seed profile

let gen_sequential ~seed =
  let profile =
    Circuit_gen.Profiles.make
      ~name:(Printf.sprintf "kseq%d" seed)
      ~inputs:4 ~outputs:3
      ~ffs:(3 + (seed mod 4))
      ~gates:(30 + (seed mod 50))
  in
  Circuit_gen.Random_dag.generate ~seed profile

let prop_polarity_combinational =
  qtest ~count:30 ~name:"kernel = reference (polarity, combinational)" seed_arbitrary
    (fun seed -> sweep_matches_reference (gen_combinational ~seed))

let prop_polarity_sequential =
  qtest ~count:30 ~name:"kernel = reference (polarity, sequential)" seed_arbitrary
    (fun seed -> sweep_matches_reference (gen_sequential ~seed))

(* The whole-circuit ablation of the reference (every gate, no cone) gives
   the same bits as the union-cone sweep. *)
let prop_no_cone_ablation =
  qtest ~count:10 ~name:"kernel = reference (whole-circuit ablation)" seed_arbitrary
    (fun seed ->
      sweep_matches_reference
        ~reference:Epp.Epp_engine.analyze_site_whole_circuit
        (gen_sequential ~seed))

(* Deterministic mid-size fixtures: the embedded real s27 netlist and an
   ISCAS-profiled random DAG. *)
let test_s27_both_modes () =
  let c = Circuit_gen.Embedded.s27 () in
  check_bool "polarity" true (sweep_matches_reference c);
  check_bool "whole-circuit ablation" true
    (sweep_matches_reference
       ~reference:Epp.Epp_engine.analyze_site_whole_circuit c)

let test_s344_profile () =
  let c = Circuit_gen.Random_dag.generate ~seed:4 Circuit_gen.Profiles.s344 in
  check_bool "polarity" true (sweep_matches_reference c)

let test_analyze_sites_consistent () =
  (* The list API vs the reference single-site API on repeated/unordered
     sites. *)
  let c = Circuit_gen.Random_dag.generate ~seed:7 Circuit_gen.Profiles.s298 in
  let engine = Epp.Epp_engine.create ~sp:(sp_for c) c in
  let sites = [ 11; 3; 11; 0; Circuit.node_count c - 1 ] in
  let swept = Epp.Ser_estimator.analyze_sites engine sites in
  List.iter2
    (fun site r ->
      check_bool
        (Printf.sprintf "site %d" site)
        true
        (results_match_bitwise (Epp.Epp_engine.analyze_site engine site) r))
    sites swept

let test_bad_site () =
  let c = fig1 () in
  let engine = Epp.Epp_engine.create ~sp:(Sigprob.Sp_topological.compute c) c in
  Alcotest.check_raises "negative site"
    (Invalid_argument "Epp_batch.Block.run: bad site") (fun () ->
      ignore (Epp.Ser_estimator.analyze_sites engine [ 0; -1 ]))

(* --- the block engine ------------------------------------------------------- *)

let blocks_of sites lanes =
  let n = Array.length sites in
  Array.init ((n + lanes - 1) / lanes) (fun i ->
      Array.sub sites (i * lanes) (min lanes (n - (i * lanes))))

(* [sites] in blocks of [lanes] on one workspace, released afterwards. *)
let run_blocks ?lanes engine sites =
  let b = Epp.Epp_batch.Block.create ?lanes engine in
  Fun.protect ~finally:(fun () -> Epp.Epp_batch.Block.release b) @@ fun () ->
  Array.concat
    (Array.to_list
       (Array.map
          (fun block ->
            Array.map
              (function Ok r -> r | Error e -> raise e)
              (Epp.Epp_batch.Block.run b block))
          (blocks_of sites (Epp.Epp_batch.Block.lanes b))))

(* Every site of the circuit through blocks of a given size must be
   bit-identical to the reference. *)
let batch_matches_reference ?lanes c =
  let engine = Epp.Epp_engine.create ~sp:(sp_for c) c in
  let n = Circuit.node_count c in
  let batch = run_blocks ?lanes engine (Array.init n Fun.id) in
  let ok = ref true in
  for site = 0 to n - 1 do
    if not (row_matches_reference engine site batch.(site)) then ok := false
  done;
  !ok

let prop_batch_bitwise_combinational =
  qtest ~count:20 ~name:"batch = kernel bitwise (combinational)" seed_arbitrary
    (fun seed -> batch_matches_reference (gen_combinational ~seed))

let prop_batch_bitwise_sequential =
  qtest ~count:20 ~name:"batch = kernel bitwise (sequential)" seed_arbitrary
    (fun seed -> batch_matches_reference (gen_sequential ~seed))

(* Block-size sweep: a degenerate 1-lane block, a ragged odd width, and the
   full lane width all chunk the same site list to the same bits.  With 7
   lanes, node_count sites always leaves a ragged final block (sites mod 7
   cycles), covering partial-block compaction. *)
let prop_batch_block_sizes =
  qtest ~count:10 ~name:"batch bitwise across block sizes 1/7/62" seed_arbitrary
    (fun seed ->
      let c = gen_sequential ~seed in
      List.for_all
        (fun lanes -> batch_matches_reference ~lanes c)
        [ 1; 7; Epp.Epp_batch.max_lanes ])

let test_batch_s27 () =
  check_bool "s27" true (batch_matches_reference (Circuit_gen.Embedded.s27 ()))

let test_batch_s344 () =
  let c = Circuit_gen.Random_dag.generate ~seed:4 Circuit_gen.Profiles.s344 in
  check_bool "s344 profile" true (batch_matches_reference c)

let test_batch_duplicates_and_order () =
  (* Duplicate sites share lanes' seed bits; order must be preserved. *)
  let c = Circuit_gen.Random_dag.generate ~seed:7 Circuit_gen.Profiles.s298 in
  let engine = Epp.Epp_engine.create ~sp:(sp_for c) c in
  let sites = [| 11; 3; 11; 0; Circuit.node_count c - 1; 11 |] in
  let batch = run_blocks engine sites in
  Array.iter2
    (fun site r ->
      check_bool
        (Printf.sprintf "site %d" site)
        true
        (row_matches_reference engine site r))
    sites batch

(* --- plane buffers ----------------------------------------------------------- *)

let plane_allocations f =
  let reg = Obs.Metrics.create () in
  Obs.Hooks.set_metrics reg;
  let result = Fun.protect ~finally:Obs.Hooks.reset f in
  ( result,
    Obs.Metrics.counter_value (Obs.Metrics.snapshot reg) "epp.batch.plane_allocations" )

let sweep engine =
  Epp.Ser_estimator.analyze_site_array engine
    (Array.init (Circuit.node_count (Epp.Epp_engine.circuit engine)) Fun.id)

(* Two workspaces live at once on one domain, one of them on a buffer a
   larger circuit's sweep left dirty, run their blocks interleaved: every
   lane is bit-identical to a separate sweep, and once both are released
   the separate sweeps find their planes in the pool. *)
let test_interleaved_workspaces () =
  Epp.Epp_batch.drop_spare_planes ();
  let engine_of c = Epp.Epp_engine.create ~sp:(sp_for c) c in
  let big = Circuit_gen.Random_dag.generate ~seed:2 Circuit_gen.Profiles.s641 in
  ignore (sweep (engine_of big));
  check_int "the sweep handed its planes back" 1 (Epp.Epp_batch.spare_planes ());
  let c1 = Circuit_gen.Random_dag.generate ~seed:4 Circuit_gen.Profiles.s344 in
  let c2 = Circuit_gen.Random_dag.generate ~seed:7 Circuit_gen.Profiles.s298 in
  let e1 = engine_of c1 and e2 = engine_of c2 in
  let lanes = 7 in
  let b1 = Epp.Epp_batch.Block.create ~lanes e1 in
  let b2 = Epp.Epp_batch.Block.create ~lanes e2 in
  let blocks1 = blocks_of (Array.init (Circuit.node_count c1) Fun.id) lanes in
  let blocks2 = blocks_of (Array.init (Circuit.node_count c2) Fun.id) lanes in
  let ok r = match r with Ok r -> r | Error e -> raise e in
  let out1 = ref [] and out2 = ref [] in
  for i = 0 to max (Array.length blocks1) (Array.length blocks2) - 1 do
    if i < Array.length blocks1 then
      out1 := Array.map ok (Epp.Epp_batch.Block.run b1 blocks1.(i)) :: !out1;
    if i < Array.length blocks2 then
      out2 := Array.map ok (Epp.Epp_batch.Block.run b2 blocks2.(i)) :: !out2
  done;
  Epp.Epp_batch.Block.release b1;
  Epp.Epp_batch.Block.release b2;
  (* a second release is a no-op *)
  Epp.Epp_batch.Block.release b2;
  check_int "two spares after two live workspaces" 2 (Epp.Epp_batch.spare_planes ());
  let (separate1, separate2), allocations =
    plane_allocations (fun () ->
        ( run_blocks ~lanes e1 (Array.init (Circuit.node_count c1) Fun.id),
          run_blocks ~lanes e2 (Array.init (Circuit.node_count c2) Fun.id) ))
  in
  check_int "separate sweeps reuse the spares" 0 allocations;
  let same interleaved separate =
    let interleaved = Array.concat (List.rev interleaved) in
    Array.length interleaved = Array.length separate
    && Array.for_all2 same_row interleaved separate
  in
  check_bool "workspace 1 bit-identical" true (same !out1 separate1);
  check_bool "workspace 2 bit-identical" true (same !out2 separate2);
  Alcotest.check_raises "released workspace rejected"
    (Invalid_argument "Epp_batch.Block: workspace used after release") (fun () ->
      ignore (Epp.Epp_batch.Block.run b1 blocks1.(0)))

(* A buffer too small for the next leaf is dropped, not kept beside the new
   one: the pool never holds more spares than workspaces were live at once.
   A buffer holds 17/16 of the [rows × sites] floats per plane of the leaf
   that outgrew the last one.  On these small circuits the split rule cuts
   every 62-site block into leaves of a few sites each, strided by their own
   site count: one leaf of the first s298 sweep allocates, one of the s344
   sweep and one of the first s641 sweep outgrow the buffer, and the later
   s298 and s641 sweeps reuse it. *)
let test_spares_bounded () =
  Epp.Epp_batch.drop_spare_planes ();
  let (), allocations =
    plane_allocations (fun () ->
        List.iter
          (fun (seed, profile) ->
            let c = Circuit_gen.Random_dag.generate ~seed profile in
            ignore (sweep (Epp.Epp_engine.create ~sp:(sp_for c) c)))
          Circuit_gen.Profiles.
            [ (1, s298); (2, s344); (3, s641); (4, s298); (5, s641) ])
  in
  check_int "one spare" 1 (Epp.Epp_batch.spare_planes ());
  check_int "growing leaves reallocate, smaller ones reuse" 3 allocations

(* --- plane rows ----------------------------------------------------------------

   A block hands plane rows out by liveness: a node's row is freed once the
   highest level among its fanouts has been evaluated, and handed to a node
   born later in the same leaf.  These fixtures make that reuse happen and
   check every lane against the reference, bit for bit, including the
   vector-sum sentinel the supervisor reads after the block. *)

(* Two rails of mixed gates, p and q, one gate of each per level, with p
   reading q's previous gate, so most levels free two rows and hand them
   out again to two gates.  It also has skip edges (q3 reads p1, q7 reads
   p3), a mid-ladder PO (p4) that keeps feeding both rails, a gate reading
   one net twice (p5), and a side branch from e that reads the input z. *)
let ladder () =
  let b = Builder.create ~name:"ladder" () in
  List.iter (Builder.add_input b) [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "z" ];
  let gate output kind fanins = Builder.add_gate b ~output ~kind fanins in
  gate "p1" Gate.And [ "a"; "b" ];
  gate "q1" Gate.Or [ "b"; "c" ];
  gate "p2" Gate.Xor [ "p1"; "q1" ];
  gate "q2" Gate.Nand [ "q1"; "d" ];
  gate "p3" Gate.Or [ "p2"; "q2" ];
  gate "q3" Gate.And [ "q2"; "p1" ];
  gate "p4" Gate.Nor [ "p3"; "q3" ];
  gate "q4" Gate.Xnor [ "q3"; "e" ];
  gate "p5" Gate.And [ "p4"; "p4" ];
  gate "q5" Gate.Or [ "q4"; "p4" ];
  gate "p6" Gate.Nand [ "p5"; "q5" ];
  gate "q6" Gate.Not [ "q5" ];
  gate "p7" Gate.Xor [ "p6"; "q6"; "f" ];
  gate "q7" Gate.And [ "q6"; "p3" ];
  gate "p8" Gate.Or [ "p7"; "q7"; "g" ];
  gate "q8" Gate.Buf [ "q7" ];
  gate "s1" Gate.Not [ "e" ];
  gate "s2" Gate.And [ "s1"; "z" ];
  List.iter (Builder.add_output b) [ "p4"; "p8"; "q8"; "s2" ];
  Builder.freeze b

let histogram_sum snap name =
  match Obs.Metrics.histogram_value snap name with
  | Some h -> h.Obs.Metrics.sum
  | None -> 0.0

(* One block on a fresh workspace under a live registry: the lane results,
   each completed lane's vector-sum sentinel, the leaves it ran as
   ([epp.batch.blocks]) and the rows they used, summed. *)
let one_block ?lanes engine sites =
  let reg = Obs.Metrics.create () in
  Obs.Hooks.set_metrics reg;
  Fun.protect ~finally:Obs.Hooks.reset @@ fun () ->
  let b = Epp.Epp_batch.Block.create ?lanes engine in
  Fun.protect ~finally:(fun () -> Epp.Epp_batch.Block.release b) @@ fun () ->
  let results = Epp.Epp_batch.Block.run b sites in
  let defects =
    Array.mapi
      (fun l r ->
        match r with
        | Ok _ -> Some (Epp.Epp_batch.Block.lane_vector_defect b l)
        | Error _ -> None)
      results
  in
  let snap = Obs.Metrics.snapshot reg in
  ( results,
    defects,
    Obs.Metrics.counter_value snap "epp.batch.blocks",
    int_of_float (histogram_sum snap "epp.batch.plane_rows") )

(* The leaves a block splits into, in order.  The split decision depends on
   a block's own sites only, so a block that runs as one leaf on its own is
   a leaf inside its parent too; otherwise its halves are probed. *)
let rec leaves engine sites =
  let _, _, count, rows = one_block engine sites in
  if count = 1 then [ (sites, rows) ]
  else
    let k = Array.length sites / 2 in
    leaves engine (Array.sub sites 0 k)
    @ leaves engine (Array.sub sites k (Array.length sites - k))

let union_size c sites =
  let ctx = Analysis.get c in
  let u = Array.make (Circuit.node_count c) false in
  Array.iter (fun s -> Array.iter (fun v -> u.(v) <- true) (Analysis.cone ctx s)) sites;
  Array.fold_left (fun k m -> if m then k + 1 else k) 0 u

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The reference's four-state sum drift at the observation nets a site
   reaches, NaN-propagating: what [lane_vector_defect] must reproduce. *)
let reference_defect engine site =
  let worst = ref 0.0 and saw_nan = ref false in
  List.iter
    (fun (_, (v : Epp.Prob4.t)) ->
      let d = Float.abs (v.Epp.Prob4.pa +. v.Epp.Prob4.pa_bar +. v.Epp.Prob4.p1 +. v.Epp.Prob4.p0 -. 1.0) in
      if Float.is_nan d then saw_nan := true else if d > !worst then worst := d)
    (Epp.Epp_engine.analyze_site_vectors engine site);
  if !saw_nan then Float.nan else !worst

(* Every lane of one block against the reference: a completed lane matches
   its site's result and sentinel bitwise, a faulted lane raised what the
   reference raises.  Every leaf the block ran as used fewer rows than its
   union has nodes, so some row was freed and handed out again, and no
   leaf's planes hold more floats than the sum of its cones plus n. *)
let check_block ?(engine_of = fun c -> Epp.Epp_engine.create ~sp:(sp_for c) c) c
    names =
  let sites = Array.of_list (List.map (Circuit.find c) names) in
  let engine = engine_of c in
  let results, defects, _, _ = one_block engine sites in
  Array.iteri
    (fun l site ->
      let name = List.nth names l in
      match (Epp.Epp_engine.analyze_site engine site, results.(l)) with
      | _, Ok r ->
        check_bool (name ^ ": bit-identical to the reference") true
          (row_matches_reference engine site r);
        check_bool (name ^ ": same vector-sum sentinel") true
          (same_bits (reference_defect engine site) (Option.get defects.(l)))
      | _, Error e ->
        Alcotest.failf "%s: lane faulted (%s), the reference did not" name
          (Printexc.to_string e)
      | exception k -> (
        match results.(l) with
        | Error e ->
          check_string (name ^ ": the reference's exception") (Printexc.to_string k)
            (Printexc.to_string e)
        | Ok _ -> Alcotest.failf "%s: the reference raised, the lane did not" name))
    sites;
  let n = Circuit.node_count c in
  List.iter
    (fun (leaf, rows) ->
      let union = union_size c leaf in
      let cones =
        Array.fold_left
          (fun acc s -> acc + Array.length (Analysis.cone (Analysis.get c) s))
          0 leaf
      in
      if Array.length leaf > 1 then
        check_bool
          (Printf.sprintf "%d rows for a %d-node union: a row was reused" rows union)
          true (rows < union);
      check_bool
        (Printf.sprintf "%d rows x %d sites <= %d cone nodes + %d" rows
           (Array.length leaf) cones n)
        true
        (rows * Array.length leaf <= cones + n))
    (leaves engine sites);
  results

let test_rows_sites_at_levels () =
  ignore (check_block (ladder ()) [ "a"; "p2"; "q3"; "p5"; "q7" ])

let test_rows_observed_site () =
  ignore (check_block (ladder ()) [ "p4"; "a"; "q6" ])

let test_rows_duplicate_site () =
  ignore (check_block (ladder ()) [ "q2"; "a"; "q2"; "p6" ])

let test_rows_repeated_fanin () =
  let c = ladder () in
  let p4 = Circuit.find c "p4" in
  check_bool "the builder keeps a repeated fanin" true
    (Circuit.fanins c (Circuit.find c "p5") = [| p4; p4 |]);
  ignore (check_block c [ "p4"; "q3"; "b" ])

(* The off-path input z is poisoned after the engine is built, so the lanes
   whose cones reach s2 (sites e and s1) fault at level 2 while the others
   run on through level 8, their rows still being freed and reused. *)
let test_rows_lane_faults_mid_block () =
  let c = ladder () in
  let engine_of c =
    let engine = Epp.Epp_engine.create ~sp:(sp_for c) c in
    (Epp.Epp_engine.signal_probabilities engine).Sigprob.Sp.values.(Circuit.find c "z")
    <- 1.5;
    engine
  in
  let results = check_block ~engine_of c [ "a"; "e"; "q2"; "s1"; "p5" ] in
  check_bool "lanes e and s1 faulted, the others completed" true
    (Array.map Result.is_ok results = [| true; false; true; false; true |])

(* A block's rows follow its live frontier, not the circuit.  On a parity
   tree 62 sites hold 62 rows and each level of the tree adds at most as
   many again as it frees; on the dense s13207 profile the sweep's buffer
   stays under a quarter of the n × 62 floats per plane the planes took
   when every node had a row. *)
let test_rows_parity_block () =
  let c = Circuit_gen.Structured.parity_tree ~width:1024 () in
  let n = Circuit.node_count c in
  let engine = Epp.Epp_engine.create ~sp:(sp_for c) c in
  let sites = Array.init Epp.Epp_batch.max_lanes (fun i -> i * n / Epp.Epp_batch.max_lanes) in
  let _, _, _, rows = one_block engine sites in
  check_bool (Printf.sprintf "%d rows for 62 parity sites" rows) true (rows <= 256)

let test_rows_dense_sweep () =
  let c = Circuit_gen.Random_dag.generate ~seed:1 Circuit_gen.Profiles.s13207 in
  let n = Circuit.node_count c in
  let engine = Epp.Epp_engine.create c in
  Epp.Epp_batch.drop_spare_planes ();
  let reg = Obs.Metrics.create () in
  Obs.Hooks.set_metrics reg;
  Fun.protect ~finally:Obs.Hooks.reset (fun () -> ignore (sweep engine));
  let snap = Obs.Metrics.snapshot reg in
  let bytes =
    Option.value ~default:0.0 (Obs.Metrics.gauge_value snap "epp.batch.plane_bytes")
  in
  let floats = int_of_float bytes / (4 * 8) in
  check_int "the sweep's buffer is the pool's only one" 1 (Epp.Epp_batch.spare_planes ());
  check_bool
    (Printf.sprintf "%d floats per plane <= 25%% of n x 62 = %d" floats (n * 62))
    true
    (4 * floats <= n * 62);
  (* the dense profile never splits: one leaf per 62-site block *)
  check_int "one leaf per block" ((n + 61) / 62)
    (Obs.Metrics.counter_value snap "epp.batch.blocks")

(* --- the split rule -----------------------------------------------------------

   A block whose planes would hold more floats per component than the sum
   of its cone sizes plus n is halved.  A mux tree's select lines fan out to
   whole levels, so its blocks' live frontiers dwarf their cones and split;
   a dense DAG's frontier is far below the sum of its overlapping cones, so
   its blocks never split. *)

let sweep_leaves c =
  Epp.Epp_batch.drop_spare_planes ();
  let engine = Epp.Epp_engine.create c in
  let reg = Obs.Metrics.create () in
  Obs.Hooks.set_metrics reg;
  let results = Fun.protect ~finally:Obs.Hooks.reset (fun () -> sweep engine) in
  let snap = Obs.Metrics.snapshot reg in
  ( engine,
    results,
    Obs.Metrics.counter_value snap "epp.batch.blocks",
    Option.value ~default:0.0 (Obs.Metrics.gauge_value snap "epp.batch.plane_bytes") )

let test_density_cutover () =
  let mux = Circuit_gen.Structured.mux_tree ~select_bits:10 () in
  let n = Circuit.node_count mux in
  let engine, results, leaves, bytes = sweep_leaves mux in
  let blocks = (n + 61) / 62 in
  check_bool (Printf.sprintf "mux10: %d blocks split into %d leaves" blocks leaves) true
    (leaves > blocks);
  (* Unsplit, its widest block alone needs about 39% of the n × 62 floats
     per plane every-node rows would take. *)
  let floats = int_of_float bytes / (4 * 8) in
  check_bool
    (Printf.sprintf "mux10: %d floats per plane <= 10%% of n x 62 = %d" floats (n * 62))
    true
    (10 * floats <= n * 62);
  check_bool "mux10 bit-identical to the reference" true
    (Array.for_all
       (fun (r : Epp.Epp_engine.site_result) ->
         results_match_bitwise (Epp.Epp_engine.analyze_site engine r.Epp.Epp_engine.site) r)
       results);
  List.iter
    (fun seed ->
      let c = Circuit_gen.Random_dag.generate ~seed Circuit_gen.Profiles.s13207 in
      let _, _, leaves, _ = sweep_leaves c in
      check_int
        (Printf.sprintf "s13207 profile seed %d keeps one leaf per block" seed)
        ((Circuit.node_count c + 61) / 62)
        leaves)
    [ 1; 2; 3 ]

(* A split block with a faulting lane in each half: poisoning inputs x0 and
   x40 of a parity tree faults lanes x1 and x41, which read them off-path
   at their first XOR, one in each half of the 62-site block.  The other
   lanes, and their vector-sum sentinels taken before the next leaf reused
   the planes, match the reference; every leaf obeys the split bound. *)
let test_split_with_faulting_lanes () =
  let c = Circuit_gen.Structured.parity_tree ~width:64 () in
  let names = List.init Epp.Epp_batch.max_lanes (Printf.sprintf "x%d") in
  let engine_of c =
    let engine = Epp.Epp_engine.create ~sp:(sp_for c) c in
    let sp = (Epp.Epp_engine.signal_probabilities engine).Sigprob.Sp.values in
    sp.(Circuit.find c "x0") <- 1.5;
    sp.(Circuit.find c "x40") <- 1.5;
    engine
  in
  let sites = Array.of_list (List.map (Circuit.find c) names) in
  check_bool "the block splits" true (List.length (leaves (engine_of c) sites) > 2);
  let results = check_block ~engine_of c names in
  List.iteri
    (fun l name ->
      check_bool (name ^ " faulted iff it reads a poisoned input") true
        (Result.is_error results.(l) = (name = "x1" || name = "x41")))
    names

(* --- parallel driver --------------------------------------------------------- *)

(* Every node, repeated to eight blocks: enough for Parallel.map_array to
   fan out at 4 domains (it keeps fewer than 2 x domains items on the
   calling domain), which the spawn count confirms. *)
let prop_parallel_domains_identical =
  qtest ~count:10 ~name:"Parallel.analyze_sites identical for domains 1/2/4"
    seed_arbitrary (fun seed ->
      let c = gen_sequential ~seed in
      let engine = Epp.Epp_engine.create ~sp:(sp_for c) c in
      let n = Circuit.node_count c in
      let reference = Array.init n (Epp.Epp_engine.analyze_site engine) in
      let sites = List.init (8 * Epp.Epp_batch.max_lanes) (fun i -> i mod n) in
      let expected = List.map (Array.get reference) sites in
      List.for_all
        (fun domains ->
          let got, spawned =
            with_spawned_workers (fun () ->
                Epp.Ser_estimator.analyze_sites ~domains engine sites)
          in
          spawned = domains - 1
          && List.length got = List.length expected
          && List.for_all2 results_match_bitwise expected got)
        [ 1; 2; 4 ])

let test_parallel_order_with_duplicates () =
  let c = Circuit_gen.Random_dag.generate ~seed:5 Circuit_gen.Profiles.s344 in
  let engine = Epp.Epp_engine.create ~sp:(sp_for c) c in
  let n = Circuit.node_count c in
  (* enough blocks to defeat the small-batch fallback at 4 domains *)
  let sites = List.init 620 (fun i -> (i * 37) mod n) in
  let got, spawned =
    with_spawned_workers (fun () ->
        Epp.Ser_estimator.analyze_sites ~domains:4 engine sites)
  in
  check_int "fanned out across 4 domains" 3 spawned;
  List.iter2
    (fun site (r : Epp.Epp_engine.site_result) ->
      check_int "input order preserved" site r.Epp.Epp_engine.site)
    sites got

let () =
  Alcotest.run "epp_kernel"
    [
      ( "equivalence",
        [
          prop_polarity_combinational;
          prop_polarity_sequential;
          prop_no_cone_ablation;
          Alcotest.test_case "s27 both modes" `Quick test_s27_both_modes;
          Alcotest.test_case "s344 profile" `Quick test_s344_profile;
          Alcotest.test_case "batch API consistent" `Quick test_analyze_sites_consistent;
          Alcotest.test_case "bad site" `Quick test_bad_site;
        ] );
      ( "batch",
        [
          prop_batch_bitwise_combinational;
          prop_batch_bitwise_sequential;
          prop_batch_block_sizes;
          Alcotest.test_case "s27" `Quick test_batch_s27;
          Alcotest.test_case "s344 profile" `Quick test_batch_s344;
          Alcotest.test_case "duplicates and order" `Quick
            test_batch_duplicates_and_order;
          Alcotest.test_case "density cutover" `Quick test_density_cutover;
          Alcotest.test_case "split with a faulting lane in each half" `Quick
            test_split_with_faulting_lanes;
        ] );
      ( "planes",
        [
          Alcotest.test_case "interleaved live workspaces" `Quick
            test_interleaved_workspaces;
          Alcotest.test_case "spares bounded" `Quick test_spares_bounded;
        ] );
      ( "plane rows",
        [
          Alcotest.test_case "sites at different levels" `Quick test_rows_sites_at_levels;
          Alcotest.test_case "site on an observation net" `Quick test_rows_observed_site;
          Alcotest.test_case "duplicate site" `Quick test_rows_duplicate_site;
          Alcotest.test_case "repeated fanin" `Quick test_rows_repeated_fanin;
          Alcotest.test_case "lane faults mid-block" `Quick test_rows_lane_faults_mid_block;
          Alcotest.test_case "parity block stays small" `Quick test_rows_parity_block;
          Alcotest.test_case "dense sweep under a quarter" `Quick test_rows_dense_sweep;
        ] );
      ( "parallel",
        [
          prop_parallel_domains_identical;
          Alcotest.test_case "order with duplicate sites" `Quick
            test_parallel_order_with_duplicates;
        ] );
    ]
