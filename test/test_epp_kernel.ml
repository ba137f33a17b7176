(* Tests for the allocation-free EPP kernel (Epp_engine.Workspace) and the
   work-stealing parallel driver built on it.

   The kernel is a reimplementation of the per-site pass — CSR cone DFS,
   epoch-stamped marks, SoA vectors, cone-local ordering — so the contract
   is equivalence with the boxed reference engine: every field of every
   site_result must match within 1e-12 (the arithmetic is mirrored
   operation-for-operation, so in practice the values are bit-identical),
   on every circuit shape, in both modes, with and without the cone
   restriction. *)

open Helpers
open Netlist

let obs_equal (a : Circuit.observation) (b : Circuit.observation) =
  match a, b with
  | Circuit.Po x, Circuit.Po y -> x = y
  | Circuit.Ff_data x, Circuit.Ff_data y -> x = y
  | (Circuit.Po _ | Circuit.Ff_data _), _ -> false

let results_match (a : Epp.Epp_engine.site_result) (b : Epp.Epp_engine.site_result) =
  a.Epp.Epp_engine.site = b.Epp.Epp_engine.site
  && a.Epp.Epp_engine.cone_size = b.Epp.Epp_engine.cone_size
  && a.Epp.Epp_engine.reached_outputs = b.Epp.Epp_engine.reached_outputs
  && Float.abs (a.Epp.Epp_engine.p_sensitized -. b.Epp.Epp_engine.p_sensitized) <= 1e-12
  && List.length a.Epp.Epp_engine.per_observation
     = List.length b.Epp.Epp_engine.per_observation
  && List.for_all2
       (fun (o1, p1) (o2, p2) -> obs_equal o1 o2 && Float.abs (p1 -. p2) <= 1e-12)
       a.Epp.Epp_engine.per_observation b.Epp.Epp_engine.per_observation

(* The batch engine's contract is stronger than the kernel's 1e-12: the
   arithmetic is mirrored per lane, so every float must be *bit-identical*
   to the per-site kernel's. *)
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

let sp_for c =
  if Circuit.ff_count c > 0 then
    (Sigprob.Sp_sequential.compute c).Sigprob.Sp_sequential.result
  else Sigprob.Sp_topological.compute c

(* One workspace reused across every site of the circuit — exactly the
   epoch-stamp reuse pattern the kernel exists for. *)
let kernel_matches_reference ?(restrict_to_cone = true) ~mode c =
  let engine = Epp.Epp_engine.create ~mode ~restrict_to_cone ~sp:(sp_for c) c in
  let ws = Epp.Epp_engine.Workspace.create engine in
  let ok = ref true in
  for site = 0 to Circuit.node_count c - 1 do
    let reference = Epp.Epp_engine.analyze_site engine site in
    let kernel = Epp.Epp_engine.Workspace.analyze_site ws site in
    if not (results_match reference kernel) then ok := false
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
    (fun seed -> kernel_matches_reference ~mode:Epp.Epp_engine.Polarity (gen_combinational ~seed))

let prop_polarity_sequential =
  qtest ~count:30 ~name:"kernel = reference (polarity, sequential)" seed_arbitrary
    (fun seed -> kernel_matches_reference ~mode:Epp.Epp_engine.Polarity (gen_sequential ~seed))

let prop_naive_combinational =
  qtest ~count:30 ~name:"kernel = reference (naive, combinational)" seed_arbitrary
    (fun seed -> kernel_matches_reference ~mode:Epp.Epp_engine.Naive (gen_combinational ~seed))

let prop_naive_sequential =
  qtest ~count:30 ~name:"kernel = reference (naive, sequential)" seed_arbitrary
    (fun seed -> kernel_matches_reference ~mode:Epp.Epp_engine.Naive (gen_sequential ~seed))

let prop_no_cone_ablation =
  qtest ~count:10 ~name:"kernel = reference (whole-circuit ablation)" seed_arbitrary
    (fun seed ->
      kernel_matches_reference ~restrict_to_cone:false ~mode:Epp.Epp_engine.Polarity
        (gen_sequential ~seed))

(* Deterministic mid-size fixtures: the embedded real s27 netlist and an
   ISCAS-profiled random DAG. *)
let test_s27_both_modes () =
  let c = Circuit_gen.Embedded.s27 () in
  check_bool "polarity" true (kernel_matches_reference ~mode:Epp.Epp_engine.Polarity c);
  check_bool "naive" true (kernel_matches_reference ~mode:Epp.Epp_engine.Naive c)

let test_s344_profile () =
  let c = Circuit_gen.Random_dag.generate ~seed:4 Circuit_gen.Profiles.s344 in
  check_bool "polarity" true (kernel_matches_reference ~mode:Epp.Epp_engine.Polarity c)

let test_analyze_sites_uses_kernel_consistently () =
  (* Batch API vs reference single-site API on repeated/unordered sites. *)
  let c = Circuit_gen.Random_dag.generate ~seed:7 Circuit_gen.Profiles.s298 in
  let engine = Epp.Epp_engine.create ~sp:(sp_for c) c in
  let sites = [ 11; 3; 11; 0; Circuit.node_count c - 1 ] in
  let batch = Epp.Epp_engine.analyze_sites engine sites in
  List.iter2
    (fun site r ->
      check_bool
        (Printf.sprintf "site %d" site)
        true
        (results_match (Epp.Epp_engine.analyze_site engine site) r))
    sites batch

let test_workspace_bad_site () =
  let c = fig1 () in
  let engine = Epp.Epp_engine.create ~sp:(Sigprob.Sp_topological.compute c) c in
  let ws = Epp.Epp_engine.Workspace.create engine in
  Alcotest.check_raises "negative site"
    (Invalid_argument "Epp_engine.Workspace.analyze_site: bad site") (fun () ->
      ignore (Epp.Epp_engine.Workspace.analyze_site ws (-1)))

(* --- level-synchronous batch engine ----------------------------------------- *)

(* Every site of the circuit through the batch engine at a given block size
   must be bit-identical to the per-site kernel. *)
let batch_matches_kernel ?lanes c =
  let engine = Epp.Epp_engine.create ~sp:(sp_for c) c in
  let ws = Epp.Epp_engine.Workspace.create engine in
  let n = Circuit.node_count c in
  let batch = Epp.Epp_batch.analyze_site_array ?lanes engine (Array.init n Fun.id) in
  let ok = ref true in
  for site = 0 to n - 1 do
    let kernel = Epp.Epp_engine.Workspace.analyze_site ws site in
    if not (results_match_bitwise kernel batch.(site)) then ok := false
  done;
  !ok

let prop_batch_bitwise_combinational =
  qtest ~count:20 ~name:"batch = kernel bitwise (combinational)" seed_arbitrary
    (fun seed -> batch_matches_kernel (gen_combinational ~seed))

let prop_batch_bitwise_sequential =
  qtest ~count:20 ~name:"batch = kernel bitwise (sequential)" seed_arbitrary
    (fun seed -> batch_matches_kernel (gen_sequential ~seed))

(* Block-size sweep: a degenerate 1-lane block, a ragged odd width, and the
   full lane width all chunk the same site list to the same bits.  With 7
   lanes, node_count sites always leaves a ragged final block (sites mod 7
   cycles), covering partial-block compaction. *)
let prop_batch_block_sizes =
  qtest ~count:10 ~name:"batch bitwise across block sizes 1/7/62" seed_arbitrary
    (fun seed ->
      let c = gen_sequential ~seed in
      List.for_all
        (fun lanes -> batch_matches_kernel ~lanes c)
        [ 1; 7; Epp.Epp_batch.max_lanes ])

let test_batch_s27 () =
  check_bool "s27" true (batch_matches_kernel (Circuit_gen.Embedded.s27 ()))

let test_batch_s344 () =
  let c = Circuit_gen.Random_dag.generate ~seed:4 Circuit_gen.Profiles.s344 in
  check_bool "s344 profile" true (batch_matches_kernel c)

let test_batch_duplicates_and_order () =
  (* Duplicate sites share lanes' seed bits; order must be preserved. *)
  let c = Circuit_gen.Random_dag.generate ~seed:7 Circuit_gen.Profiles.s298 in
  let engine = Epp.Epp_engine.create ~sp:(sp_for c) c in
  let sites = [ 11; 3; 11; 0; Circuit.node_count c - 1; 11 ] in
  let batch = Epp.Epp_batch.analyze_sites engine sites in
  List.iter2
    (fun site r ->
      check_bool
        (Printf.sprintf "site %d" site)
        true
        (results_match_bitwise (Epp.Epp_engine.analyze_site engine site) r))
    sites batch

let test_batch_rejects_naive () =
  let c = fig1 () in
  let engine =
    Epp.Epp_engine.create ~mode:Epp.Epp_engine.Naive
      ~sp:(Sigprob.Sp_topological.compute c) c
  in
  Alcotest.check_raises "naive rejected"
    (Invalid_argument "Epp_batch.Block.create: polarity mode only") (fun () ->
      ignore (Epp.Epp_batch.Block.create engine))

(* --- plane buffers ----------------------------------------------------------- *)

let plane_allocations f =
  let reg = Obs.Metrics.create () in
  Obs.Hooks.set_metrics reg;
  let result = Fun.protect ~finally:Obs.Hooks.reset f in
  ( result,
    Obs.Metrics.counter_value (Obs.Metrics.snapshot reg) "epp.batch.plane_allocations" )

let blocks_of sites lanes =
  let n = Array.length sites in
  Array.init ((n + lanes - 1) / lanes) (fun i ->
      Array.sub sites (i * lanes) (min lanes (n - (i * lanes))))

(* Two workspaces live at once on one domain, one of them on a buffer a
   larger circuit's sweep left dirty, run their blocks interleaved: every
   lane is bit-identical to a separate sweep, and once both are released
   the separate sweeps find their planes in the pool. *)
let test_interleaved_workspaces () =
  Epp.Epp_batch.drop_spare_planes ();
  let engine_of c = Epp.Epp_engine.create ~sp:(sp_for c) c in
  let big = Circuit_gen.Random_dag.generate ~seed:2 Circuit_gen.Profiles.s641 in
  ignore
    (Epp.Epp_batch.analyze_site_array (engine_of big)
       (Array.init (Circuit.node_count big) Fun.id));
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
        ( Epp.Epp_batch.analyze_site_array ~lanes e1
            (Array.init (Circuit.node_count c1) Fun.id),
          Epp.Epp_batch.analyze_site_array ~lanes e2
            (Array.init (Circuit.node_count c2) Fun.id) ))
  in
  check_int "separate sweeps reuse the spares" 0 allocations;
  let same interleaved separate =
    let interleaved = Array.concat (List.rev interleaved) in
    Array.length interleaved = Array.length separate
    && Array.for_all2 results_match_bitwise interleaved separate
  in
  check_bool "workspace 1 bit-identical" true (same !out1 separate1);
  check_bool "workspace 2 bit-identical" true (same !out2 separate2);
  Alcotest.check_raises "released workspace rejected"
    (Invalid_argument "Epp_batch.Block: workspace used after release") (fun () ->
      ignore (Epp.Epp_batch.Block.run b1 blocks1.(0)))

(* A buffer too small for the next block is dropped, not kept beside the
   new one: the pool never holds more spares than workspaces were live at
   once.  A buffer holds [rows · 17/16] plane rows, where [rows] is the
   largest live frontier a block needed when it was allocated, so a
   reallocation happens at each block whose frontier outgrows that: the
   first s298 block (102 rows), the third s344 block (124 > 108), and the
   first and last blocks of the first s641 sweep (146 > 131, 157 > 155).
   The later s298 and s641 sweeps (at most 97 and 161 rows) reuse it. *)
let test_spares_bounded () =
  Epp.Epp_batch.drop_spare_planes ();
  let sweep c =
    let engine = Epp.Epp_engine.create ~sp:(sp_for c) c in
    ignore (Epp.Epp_batch.analyze_site_array engine (Array.init (Circuit.node_count c) Fun.id))
  in
  let (), allocations =
    plane_allocations (fun () ->
        List.iter
          (fun (seed, profile) -> sweep (Circuit_gen.Random_dag.generate ~seed profile))
          Circuit_gen.Profiles.
            [ (1, s298); (2, s344); (3, s641); (4, s298); (5, s641) ])
  in
  check_int "one spare" 1 (Epp.Epp_batch.spare_planes ());
  check_int "growing frontiers reallocate, smaller ones reuse" 4 allocations

(* --- plane rows ----------------------------------------------------------------

   A block hands plane rows out by liveness: a node's row is freed once the
   highest level among its fanouts has been evaluated, and handed to a node
   born later in the same block.  These fixtures make that reuse happen and
   check every lane against the per-site kernel, bit for bit, including the
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
   each completed lane's vector-sum sentinel, and the rows the block used. *)
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
  let rows = histogram_sum (Obs.Metrics.snapshot reg) "epp.batch.plane_rows" in
  (results, defects, int_of_float rows)

let union_size c sites =
  let ctx = Analysis.get c in
  let u = Array.make (Circuit.node_count c) false in
  Array.iter (fun s -> Array.iteri (fun v m -> if m then u.(v) <- true) (Analysis.cone ctx s)) sites;
  Array.fold_left (fun k m -> if m then k + 1 else k) 0 u

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Every lane of one block against the kernel: a completed lane matches its
   site's result and sentinel bitwise, a faulted lane raised what the kernel
   raises.  The block used fewer rows than its union has nodes, so some row
   was freed and handed out again. *)
let check_block ?(engine_of = fun c -> Epp.Epp_engine.create ~sp:(sp_for c) c) c
    names =
  let sites = Array.of_list (List.map (Circuit.find c) names) in
  let engine = engine_of c in
  let results, defects, rows = one_block engine sites in
  let ws = Epp.Epp_engine.Workspace.create engine in
  Array.iteri
    (fun l site ->
      let name = List.nth names l in
      match (Epp.Epp_engine.Workspace.analyze_site ws site, results.(l)) with
      | kernel, Ok r ->
        check_bool (name ^ ": bit-identical to the kernel") true
          (results_match_bitwise kernel r);
        check_bool (name ^ ": same vector-sum sentinel") true
          (same_bits
             (Epp.Epp_engine.Workspace.last_vector_defect ws)
             (Option.get defects.(l)))
      | _, Error e ->
        Alcotest.failf "%s: lane faulted (%s), the kernel did not" name
          (Printexc.to_string e)
      | exception k -> (
        match results.(l) with
        | Error e ->
          check_string (name ^ ": the kernel's exception") (Printexc.to_string k)
            (Printexc.to_string e)
        | Ok _ -> Alcotest.failf "%s: the kernel raised, the lane did not" name))
    sites;
  let union = union_size c sites in
  check_bool
    (Printf.sprintf "%d rows for a %d-node union: a row was reused" rows union)
    true (rows < union);
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
  let _, _, rows = one_block engine sites in
  check_bool (Printf.sprintf "%d rows for 62 parity sites" rows) true (rows <= 256)

let test_rows_dense_sweep () =
  let c = Circuit_gen.Random_dag.generate ~seed:1 Circuit_gen.Profiles.s13207 in
  let n = Circuit.node_count c in
  let engine = Epp.Epp_engine.create c in
  Epp.Epp_batch.drop_spare_planes ();
  let reg = Obs.Metrics.create () in
  Obs.Hooks.set_metrics reg;
  Fun.protect ~finally:Obs.Hooks.reset (fun () ->
      ignore (Epp.Epp_batch.analyze_site_array engine (Array.init n Fun.id)));
  let bytes =
    Option.value ~default:0.0
      (Obs.Metrics.gauge_value (Obs.Metrics.snapshot reg) "epp.batch.plane_bytes")
  in
  let floats = int_of_float bytes / (4 * 8) in
  check_int "the sweep's buffer is the pool's only one" 1 (Epp.Epp_batch.spare_planes ());
  check_bool
    (Printf.sprintf "%d floats per plane <= 25%% of n x 62 = %d" floats (n * 62))
    true
    (4 * floats <= n * 62)

(* The density heuristic must keep tiny circuits on the per-site path and
   route dense mid-size sweeps to batch. *)
let test_density_cutover () =
  let s27 = Circuit_gen.Embedded.s27 () in
  let e27 = Epp.Epp_engine.create ~sp:(sp_for s27) s27 in
  check_bool "tiny circuit stays per-site" false
    (Epp.Epp_batch.should_batch e27 ~sites:(Circuit.node_count s27));
  let c = Circuit_gen.Random_dag.generate ~seed:4 Circuit_gen.Profiles.s344 in
  let engine = Epp.Epp_engine.create ~sp:(sp_for c) c in
  check_bool "small sweep stays per-site" false
    (Epp.Epp_batch.should_batch ~min_nodes:1 engine ~sites:2);
  check_bool "dense sweep batches" true
    (Epp.Epp_batch.should_batch ~min_nodes:1 ~density_threshold:0.0 engine
       ~sites:64);
  let d = Epp.Epp_batch.density engine in
  check_bool "density in (0, 1]" true (d > 0.0 && d <= 1.0);
  (* ablation engines never batch: the whole-circuit reference path is a
     measurement tool, not a production sweep *)
  let abl = Epp.Epp_engine.create ~restrict_to_cone:false ~sp:(sp_for c) c in
  check_bool "no-cone ablation stays per-site" false
    (Epp.Epp_batch.should_batch ~min_nodes:1 ~density_threshold:0.0 abl
       ~sites:64)

(* --- parallel driver --------------------------------------------------------- *)

let prop_parallel_domains_identical =
  qtest ~count:10 ~name:"Parallel.analyze_sites identical for domains 1/2/4"
    seed_arbitrary (fun seed ->
      let c = gen_sequential ~seed in
      let engine = Epp.Epp_engine.create ~sp:(sp_for c) c in
      let sites = List.init (Circuit.node_count c) Fun.id in
      let expected = Epp.Epp_engine.analyze_sites engine sites in
      List.for_all
        (fun domains ->
          let got = Epp.Parallel.analyze_sites ~domains engine sites in
          List.length got = List.length expected
          && List.for_all2 results_match expected got)
        [ 1; 2; 4 ])

let test_parallel_order_with_duplicates () =
  let c = Circuit_gen.Random_dag.generate ~seed:5 Circuit_gen.Profiles.s344 in
  let engine = Epp.Epp_engine.create ~sp:(sp_for c) c in
  let n = Circuit.node_count c in
  (* enough sites to defeat the small-batch fallback at 4 domains *)
  let sites = List.init 64 (fun i -> (i * 37) mod n) in
  let got = Epp.Parallel.analyze_sites ~domains:4 engine sites in
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
          prop_naive_combinational;
          prop_naive_sequential;
          prop_no_cone_ablation;
          Alcotest.test_case "s27 both modes" `Quick test_s27_both_modes;
          Alcotest.test_case "s344 profile" `Quick test_s344_profile;
          Alcotest.test_case "batch API consistent" `Quick
            test_analyze_sites_uses_kernel_consistently;
          Alcotest.test_case "bad site" `Quick test_workspace_bad_site;
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
          Alcotest.test_case "naive rejected" `Quick test_batch_rejects_naive;
          Alcotest.test_case "density cutover" `Quick test_density_cutover;
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
