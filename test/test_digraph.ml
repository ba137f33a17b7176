(* Tests for the graph substrate: construction, topological sorting,
   levelization, reachability/cones, SCC. *)

open Helpers

(* A fixed diamond: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3. *)
let diamond () = Digraph.of_edges ~vertex_count:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ]

(* Deterministic random DAG on [n] vertices: edges only forward. *)
let random_dag_edges ~seed ~n ~density =
  let rng = Rng.create ~seed in
  let edges = ref [] in
  for u = 0 to n - 2 do
    for v = u + 1 to n - 1 do
      if Rng.float rng < density then edges := (u, v) :: !edges
    done
  done;
  !edges

let random_dag ~seed ~n ~density =
  Digraph.of_edges ~vertex_count:n (random_dag_edges ~seed ~n ~density)

(* The list-based graph the packed arrays replaced, written out as the
   reference: successor lists in insertion order, the transpose with every
   reversed list sorted by source (parallel edges kept), and a queue BFS
   over the lists. *)
let reference_succ ~n edges =
  let succ = Array.make n [] in
  List.iter (fun (u, v) -> succ.(u) <- v :: succ.(u)) (List.rev edges);
  succ

let reference_reverse succ =
  let pred = Array.make (Array.length succ) [] in
  for u = Array.length succ - 1 downto 0 do
    List.iter (fun v -> pred.(v) <- u :: pred.(v)) succ.(u)
  done;
  pred

let reference_distances succ source =
  let dist = Array.make (Array.length succ) (-1) in
  dist.(source) <- 0;
  let queue = Queue.create () in
  Queue.add source queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue
        end)
      succ.(u)
  done;
  dist

(* The graph in which [v]'s predecessors are [g]'s successors of [v]: [g]
   reversed, packed afresh by counting sort. *)
let repack g =
  let preds = Array.init (Digraph.vertex_count g) (fun v -> Array.of_list (Digraph.succ g v)) in
  Digraph.of_predecessors ~vertex_count:(Array.length preds) (Array.get preds)

(* --- construction --------------------------------------------------------- *)

let test_empty () =
  let g = Digraph.of_edges ~vertex_count:0 [] in
  check_int "vertices" 0 (Digraph.vertex_count g);
  check_int "edges" 0 (Digraph.edge_count g);
  Alcotest.(check (list (pair int int))) "no edges" [] (Digraph.edges g)

let test_counts () =
  let g = diamond () in
  check_int "vertices" 4 (Digraph.vertex_count g);
  check_int "edges" 4 (Digraph.edge_count g)

let test_succ_pred () =
  let g = diamond () in
  Alcotest.(check (list int)) "succ 0" [ 1; 2 ] (Digraph.succ g 0);
  Alcotest.(check (list int)) "succ 3" [] (Digraph.succ g 3);
  Alcotest.(check (list int)) "pred 3" [ 1; 2 ] (Digraph.pred g 3);
  Alcotest.(check (list int)) "pred 0" [] (Digraph.pred g 0)

let test_degrees () =
  let g = diamond () in
  check_int "out 0" 2 (Digraph.out_degree g 0);
  check_int "in 3" 2 (Digraph.in_degree g 3);
  check_int "in 0" 0 (Digraph.in_degree g 0)

let test_invalid_vertex () =
  let g = diamond () in
  Alcotest.check_raises "succ out of range" (Digraph.Invalid_vertex 7) (fun () ->
      ignore (Digraph.succ g 7));
  Alcotest.check_raises "negative" (Digraph.Invalid_vertex (-1)) (fun () ->
      ignore (Digraph.pred g (-1)))

let test_invalid_edge () =
  Alcotest.check_raises "bad endpoint" (Digraph.Invalid_vertex 5) (fun () ->
      ignore (Digraph.of_edges ~vertex_count:3 [ (0, 5) ]))

(* A netlist's construction: vertex 1 reads 0, vertex 2 reads 1 and 0,
   vertex 3 reads 2 twice. *)
let test_of_successors () =
  let fanins = [| [||]; [| 0 |]; [| 1; 0 |]; [| 2; 2 |] |] in
  let g = Digraph.of_predecessors ~vertex_count:4 (Array.get fanins) in
  check_int "edges" 5 (Digraph.edge_count g);
  Alcotest.(check (list int)) "consumers in id order" [ 1; 2 ] (Digraph.succ g 0);
  Alcotest.(check (list int)) "a repeated fanin twice" [ 3; 3 ] (Digraph.succ g 2);
  Alcotest.(check (list int)) "pred 2" [ 0; 1 ] (Digraph.pred g 2);
  Alcotest.check_raises "bad fanin" (Digraph.Invalid_vertex 4) (fun () ->
      ignore (Digraph.of_predecessors ~vertex_count:2 (fun _ -> [| 4 |])))

let test_mem_edge () =
  let g = diamond () in
  check_bool "0->1" true (Digraph.mem_edge g 0 1);
  check_bool "1->0" false (Digraph.mem_edge g 1 0);
  check_bool "0->3" false (Digraph.mem_edge g 0 3)

let test_parallel_edges () =
  let g = Digraph.of_edges ~vertex_count:2 [ (0, 1); (0, 1) ] in
  check_int "both kept" 2 (Digraph.edge_count g);
  Alcotest.(check (list int)) "succ" [ 1; 1 ] (Digraph.succ g 0)

let test_reverse () =
  let g = Digraph.reverse (diamond ()) in
  Alcotest.(check (list int)) "succ 3 in reverse" [ 1; 2 ] (Digraph.succ g 3);
  Alcotest.(check (list int)) "pred 0 in reverse" [ 1; 2 ] (Digraph.pred g 0);
  check_int "edge count preserved" 4 (Digraph.edge_count g)

let test_sources_sinks () =
  let g = diamond () in
  Alcotest.(check (list int)) "sources" [ 0 ] (Digraph.sources g);
  Alcotest.(check (list int)) "sinks" [ 3 ] (Digraph.sinks g)

let test_edges_roundtrip () =
  let edges = [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let g = Digraph.of_edges ~vertex_count:4 edges in
  Alcotest.(check (list (pair int int))) "edges back" edges (Digraph.edges g)

(* --- topological sorting -------------------------------------------------- *)

let test_topo_diamond () =
  let g = diamond () in
  Alcotest.(check (list int)) "deterministic order" [ 0; 1; 2; 3 ] (Topo.sort g)

let test_topo_cycle () =
  let g = Digraph.of_edges ~vertex_count:3 [ (0, 1); (1, 2); (2, 0) ] in
  (match Topo.sort g with
  | _ -> Alcotest.fail "expected Cycle"
  | exception Topo.Cycle leftover -> Alcotest.(check (list int)) "members" [ 0; 1; 2 ] leftover);
  check_bool "is_acyclic" false (Topo.is_acyclic g)

let test_topo_self_loop () =
  let g = Digraph.of_edges ~vertex_count:2 [ (0, 0); (0, 1) ] in
  check_bool "self loop is a cycle" false (Topo.is_acyclic g)

let test_levels_diamond () =
  let g = diamond () in
  Alcotest.(check (array int)) "levels" [| 0; 1; 1; 2 |] (Topo.levels g);
  check_int "depth" 2 (Topo.max_level g)

let test_by_level () =
  let g = diamond () in
  let buckets = Topo.by_level g in
  check_int "bucket count" 3 (Array.length buckets);
  Alcotest.(check (list int)) "level 1" [ 1; 2 ] buckets.(1)

let test_is_topological_order_spec () =
  let g = diamond () in
  check_bool "valid" true (Topo.is_topological_order g [ 0; 2; 1; 3 ]);
  check_bool "edge backwards" false (Topo.is_topological_order g [ 1; 0; 2; 3 ]);
  check_bool "not a permutation" false (Topo.is_topological_order g [ 0; 1; 2 ]);
  check_bool "duplicates" false (Topo.is_topological_order g [ 0; 1; 1; 3 ])

let prop_topo_sort_valid =
  qtest ~name:"Topo.sort yields a valid topological order on random DAGs"
    Helpers.seed_arbitrary (fun seed ->
      let g = random_dag ~seed ~n:(10 + (seed mod 30)) ~density:0.15 in
      Topo.is_topological_order g (Topo.sort g))

let prop_levels_monotonic =
  qtest ~name:"levels increase along every edge" Helpers.seed_arbitrary (fun seed ->
      let g = random_dag ~seed ~n:(10 + (seed mod 30)) ~density:0.2 in
      let lv = Topo.levels g in
      let ok = ref true in
      Digraph.iter_edges (fun u v -> if lv.(u) >= lv.(v) then ok := false) g;
      !ok)

let prop_level_zero_iff_source =
  qtest ~name:"level 0 exactly at sources" Helpers.seed_arbitrary (fun seed ->
      let g = random_dag ~seed ~n:(5 + (seed mod 20)) ~density:0.25 in
      let lv = Topo.levels g in
      let ok = ref true in
      Digraph.iter_vertices
        (fun v ->
          let is_source = Digraph.pred g v = [] in
          if (lv.(v) = 0) <> is_source then ok := false)
        g;
      !ok)

(* --- reachability --------------------------------------------------------- *)

(* Cone searches rank a graph by its topological order. *)
let ranking g = Reach.ranking g ~order:(Topo.sort_array g)
let forward_cone g roots = Reach.forward_cone (ranking g) roots
let backward_cone g roots = Reach.backward_cone (ranking g) roots

let member g members v =
  Reach.find (Reach.lookup ~position:(Reach.position (ranking g)) members) v >= 0

let test_reach_forward () =
  let g = diamond () in
  Alcotest.(check (array int)) "from 1" [| 1; 3 |] (forward_cone g [ 1 ]);
  Alcotest.(check (array int)) "from 0" [| 0; 1; 2; 3 |] (forward_cone g [ 0 ])

let test_reach_members_count () =
  let g = Digraph.of_edges ~vertex_count:4 [ (0, 2); (2, 3) ] in
  let position = Reach.position (ranking g) in
  let members = forward_cone g [ 0 ] in
  Alcotest.(check (array int)) "members" [| 0; 2; 3 |] members;
  Alcotest.(check (list int)) "index of each vertex" [ 0; -1; 1; 2 ]
    (List.init 4 (Reach.find (Reach.lookup ~position members)));
  check_int "count" 3 (Reach.count (Reach.backward_set g [ 3 ]))

let test_reach_backward () =
  let g = diamond () in
  Alcotest.(check (array bool)) "to 1" [| true; true; false; false |] (Reach.backward_set g [ 1 ]);
  Alcotest.(check (array int)) "members to 3" [| 0; 1; 2; 3 |] (backward_cone g [ 3 ]);
  Alcotest.(check (array int)) "members to 2" [| 0; 2 |] (backward_cone g [ 2 ])

let test_reach_multi_root () =
  let g = Digraph.of_edges ~vertex_count:5 [ (0, 2); (1, 3) ] in
  Alcotest.(check (array int)) "two roots" [| 0; 1; 2; 3 |] (forward_cone g [ 0; 1 ]);
  Alcotest.(check (array int)) "two roots, backward" [| 0; 1; 2; 3 |]
    (backward_cone g [ 3; 2; 3 ]);
  Alcotest.(check (array bool)) "two roots, backward set"
    [| true; true; true; true; false |]
    (Reach.backward_set g [ 2; 3 ])

let test_output_cone () =
  let g = diamond () in
  let cone = forward_cone g [ 1 ] in
  check_int "size" 2 (Array.length cone);
  Alcotest.(check (list int)) "reached" [ 3 ] (List.filter (member g cone) [ 3 ])

let test_output_cone_unreachable () =
  let g = Digraph.of_edges ~vertex_count:3 [ (0, 1) ] in
  let cone = forward_cone g [ 0 ] in
  Alcotest.(check (list int)) "no sinks reached" [] (List.filter (member g cone) [ 2 ])

let test_cone_needs_topological_position () =
  let g = diamond () in
  Alcotest.check_raises "an edge that goes back"
    (Invalid_argument "Reach.ranking: order is not topological") (fun () ->
      ignore (Reach.ranking g ~order:[| 3; 0; 1; 2 |]));
  Alcotest.check_raises "not a permutation"
    (Invalid_argument "Reach.ranking: order is not a permutation") (fun () ->
      ignore (Reach.ranking g ~order:[| 0; 1; 1; 3 |]));
  Alcotest.check_raises "bad root" (Digraph.Invalid_vertex 4) (fun () ->
      ignore (forward_cone g [ 4 ]));
  (* A raising search leaves the ranking usable. *)
  Alcotest.(check (array int)) "after the failure" [| 1; 3 |] (forward_cone g [ 1 ])

(* Lookups against a plain membership test, on random subsets of random
   rankings: sparse, dense, clustered and empty member sets. *)
let prop_lookup_finds_members =
  qtest ~name:"lookup finds exactly the members" Helpers.seed_arbitrary (fun seed ->
      let rng = Rng.create ~seed in
      let n = 1 + Rng.int rng ~bound:300 in
      let order = Array.init n Fun.id in
      for i = n - 1 downto 1 do
        let j = Rng.int rng ~bound:(i + 1) in
        let t = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- t
      done;
      let position = Array.make n 0 in
      Array.iteri (fun i v -> position.(v) <- i) order;
      let keep = Rng.int rng ~bound:4 in
      let members =
        List.filter
          (fun p ->
            match keep with
            | 0 -> Rng.int rng ~bound:20 = 0
            | 1 -> Rng.int rng ~bound:2 = 0
            | 2 -> p < n / 3
            | _ -> false)
          (List.init n Fun.id)
        |> List.map (fun p -> order.(p))
        |> Array.of_list
      in
      let l = Reach.lookup ~position members in
      List.for_all
        (fun v ->
          let expected =
            let rec index i = if i = Array.length members then -1 else if members.(i) = v then i else index (i + 1) in
            index 0
          in
          Reach.find l v = expected)
        (List.init n Fun.id))

let prop_reachability_transitive =
  qtest ~name:"reachability is transitive" Helpers.seed_arbitrary (fun seed ->
      let g = random_dag ~seed ~n:12 ~density:0.2 in
      let r = ranking g in
      let ok = ref true in
      for u = 0 to 11 do
        let ru = Reach.forward_cone r [ u ] in
        for v = 0 to 11 do
          if member g ru v then begin
            let rv = Reach.forward_cone r [ v ] in
            for w = 0 to 11 do
              if member g rv w && not (member g ru w) then ok := false
            done
          end
        done
      done;
      !ok)

(* --- BFS shortest paths ----------------------------------------------------- *)

let test_bfs_distances () =
  let g = diamond () in
  Alcotest.(check (array int)) "from 0" [| 0; 1; 1; 2 |] (Bfs.distances g 0);
  Alcotest.(check (array int)) "from 3 (sink)" [| -1; -1; -1; 0 |] (Bfs.distances g 3)

let test_bfs_distance_option () =
  let g = diamond () in
  Alcotest.(check (option int)) "0 -> 3" (Some 2) (Bfs.distance g ~source:0 ~target:3);
  Alcotest.(check (option int)) "3 -> 0" None (Bfs.distance g ~source:3 ~target:0)

let test_bfs_prefers_short_route () =
  (* 0 -> 1 -> 2 -> 3 and a shortcut 0 -> 3. *)
  let g = Digraph.of_edges ~vertex_count:4 [ (0, 1); (1, 2); (2, 3); (0, 3) ] in
  Alcotest.(check (option int)) "shortcut wins" (Some 1) (Bfs.distance g ~source:0 ~target:3)

let test_bfs_shortest_path () =
  let g = Digraph.of_edges ~vertex_count:4 [ (0, 1); (1, 2); (2, 3); (0, 3) ] in
  Alcotest.(check (option (list int))) "path" (Some [ 0; 3 ])
    (Bfs.shortest_path g ~source:0 ~target:3);
  Alcotest.(check (option (list int))) "unreachable" None
    (Bfs.shortest_path g ~source:3 ~target:0);
  Alcotest.(check (option (list int))) "self" (Some [ 0 ])
    (Bfs.shortest_path g ~source:0 ~target:0)

let test_bfs_invalid_vertex () =
  let g = diamond () in
  Alcotest.check_raises "bad source" (Digraph.Invalid_vertex 9) (fun () ->
      ignore (Bfs.distances g 9))

let prop_bfs_distance_at_most_levels =
  qtest ~name:"BFS distance consistent with a valid path" seed_arbitrary (fun seed ->
      let g = random_dag ~seed ~n:15 ~density:0.2 in
      let ok = ref true in
      for s = 0 to 14 do
        let dist = Bfs.distances g s in
        for t = 0 to 14 do
          match Bfs.shortest_path g ~source:s ~target:t with
          | None -> if dist.(t) <> Bfs.unreachable then ok := false
          | Some path ->
            if List.length path - 1 <> dist.(t) then ok := false;
            (* every consecutive pair must be an edge *)
            let rec edges = function
              | a :: (b :: _ as rest) ->
                if not (Digraph.mem_edge g a b) then ok := false;
                edges rest
              | [ _ ] | [] -> ()
            in
            edges path
        done
      done;
      !ok)

(* --- packed transpose and BFS, against the list-based reference ----------- *)

let test_csr_reverse_empty () =
  let rev = Digraph.reverse (Digraph.of_edges ~vertex_count:0 []) in
  check_int "vertices" 0 (Digraph.vertex_count rev);
  check_int "edges" 0 (Digraph.edge_count rev)

let test_csr_reverse_diamond () =
  let rev = Digraph.reverse (diamond ()) in
  check_int "edge count preserved" 4 (Digraph.edge_count rev);
  Alcotest.(check (list int)) "succ 3 in reverse" [ 1; 2 ] (Digraph.succ rev 3);
  Alcotest.(check (list int)) "succ 1 in reverse" [ 0 ] (Digraph.succ rev 1);
  Alcotest.(check (list int)) "succ 0 in reverse" [] (Digraph.succ rev 0)

let test_csr_reverse_multi_edge () =
  let g = Digraph.of_edges ~vertex_count:3 [ (0, 1); (0, 1); (2, 1) ] in
  let rev = Digraph.reverse g in
  check_int "multi-edges kept" 3 (Digraph.edge_count rev);
  Alcotest.(check (list int)) "both copies, sorted by source" [ 0; 0; 2 ]
    (Digraph.succ rev 1)

(* Transposing by counting sort twice gives back every array when each
   successor list is sorted, as the diamond's are. *)
let test_csr_double_reverse () =
  let g = diamond () in
  let back = repack (repack g) in
  Alcotest.(check (array int)) "offsets" (Digraph.offsets g) (Digraph.offsets back);
  Alcotest.(check (array int)) "targets" (Digraph.targets g) (Digraph.targets back);
  Alcotest.(check (array int)) "reverse offsets" (Digraph.rev_offsets g) (Digraph.rev_offsets back);
  Alcotest.(check (array int)) "reverse targets" (Digraph.rev_targets g) (Digraph.rev_targets back);
  check_bool "reverse twice is the graph" true
    (Digraph.offsets (Digraph.reverse (Digraph.reverse g)) == Digraph.offsets g)

let prop_csr_reverse_transpose =
  qtest ~name:"Csr.reverse agrees with Digraph.reverse on random DAGs"
    seed_arbitrary (fun seed ->
      let edges = random_dag_edges ~seed ~n:15 ~density:0.25 in
      let g = Digraph.of_edges ~vertex_count:15 edges in
      let spec = reference_reverse (reference_succ ~n:15 edges) in
      let rev = Digraph.reverse g in
      let ok = ref (Digraph.edge_count rev = List.length edges) in
      for v = 0 to 14 do
        if Digraph.succ rev v <> spec.(v) || Digraph.pred g v <> spec.(v) then ok := false
      done;
      !ok)

let prop_bfs_distances_csr_agrees =
  qtest ~name:"Bfs.distances_csr matches Bfs.distances" seed_arbitrary
    (fun seed ->
      let edges = random_dag_edges ~seed ~n:15 ~density:0.25 in
      let g = Digraph.of_edges ~vertex_count:15 edges in
      let succ = reference_succ ~n:15 edges in
      let ok = ref true in
      for s = 0 to 14 do
        if Bfs.distances g s <> reference_distances succ s then ok := false
      done;
      !ok)

let prop_reverse_bfs_is_forward_distance =
  (* The trick the analysis context's distance maps rest on: one backward
     BFS from a target over the transpose gives every vertex's forward
     distance to that target. *)
  qtest ~name:"BFS on Csr.reverse gives distance-to-target" seed_arbitrary
    (fun seed ->
      let edges = random_dag_edges ~seed ~n:15 ~density:0.25 in
      let g = Digraph.of_edges ~vertex_count:15 edges in
      let succ = reference_succ ~n:15 edges in
      let rev = Digraph.reverse g in
      let ok = ref true in
      for target = 0 to 14 do
        let to_target = Bfs.distances rev target in
        for v = 0 to 14 do
          if to_target.(v) <> (reference_distances succ v).(target) then ok := false
        done
      done;
      !ok)

(* --- strongly connected components ---------------------------------------- *)

let test_scc_dag_trivial () =
  let g = diamond () in
  check_int "four singletons" 4 (List.length (Scc.components g));
  Alcotest.(check (list (list int))) "no nontrivial" [] (Scc.nontrivial g)

let test_scc_cycle () =
  let g = Digraph.of_edges ~vertex_count:4 [ (0, 1); (1, 2); (2, 0); (2, 3) ] in
  let nontrivial = Scc.nontrivial g in
  check_int "one loop" 1 (List.length nontrivial);
  Alcotest.(check (list int)) "loop members" [ 0; 1; 2 ] (List.sort compare (List.hd nontrivial))

let test_scc_self_loop () =
  let g = Digraph.of_edges ~vertex_count:2 [ (0, 0) ] in
  check_int "self loop is nontrivial" 1 (List.length (Scc.nontrivial g))

let test_scc_two_cycles () =
  let g =
    Digraph.of_edges ~vertex_count:6 [ (0, 1); (1, 0); (2, 3); (3, 4); (4, 2); (4, 5) ]
  in
  let loops = List.map (List.sort compare) (Scc.nontrivial g) in
  check_int "two loops" 2 (List.length loops);
  check_bool "01 loop found" true (List.mem [ 0; 1 ] loops);
  check_bool "234 loop found" true (List.mem [ 2; 3; 4 ] loops)

let test_scc_component_of_consistent () =
  let g = Digraph.of_edges ~vertex_count:4 [ (0, 1); (1, 0); (2, 3) ] in
  let comp = Scc.component_of g in
  check_int "0 and 1 together" comp.(0) comp.(1);
  check_bool "2 and 3 apart" true (comp.(2) <> comp.(3))

let prop_scc_partition =
  qtest ~name:"SCCs partition the vertex set" Helpers.seed_arbitrary (fun seed ->
      let rng = Rng.create ~seed in
      let n = 8 + (seed mod 12) in
      (* arbitrary directed graph, cycles allowed *)
      let edges = ref [] in
      for _ = 1 to 2 * n do
        edges := (Rng.int rng ~bound:n, Rng.int rng ~bound:n) :: !edges
      done;
      let g = Digraph.of_edges ~vertex_count:n !edges in
      let members = List.concat (Scc.components g) in
      List.length members = n && List.sort compare members = List.init n Fun.id)

let prop_scc_dag_all_singletons =
  qtest ~name:"every SCC of a DAG is a singleton" Helpers.seed_arbitrary (fun seed ->
      let g = random_dag ~seed ~n:15 ~density:0.2 in
      List.for_all
        (fun comp ->
          match comp with
          | [ _ ] -> true
          | [] | _ :: _ :: _ -> false)
        (Scc.components g))

let () =
  Alcotest.run "digraph"
    [
      ( "construction",
        [
          Alcotest.test_case "empty graph" `Quick test_empty;
          Alcotest.test_case "vertex and edge counts" `Quick test_counts;
          Alcotest.test_case "succ and pred" `Quick test_succ_pred;
          Alcotest.test_case "degrees" `Quick test_degrees;
          Alcotest.test_case "invalid vertex raises" `Quick test_invalid_vertex;
          Alcotest.test_case "invalid edge raises" `Quick test_invalid_edge;
          Alcotest.test_case "of_successors" `Quick test_of_successors;
          Alcotest.test_case "mem_edge" `Quick test_mem_edge;
          Alcotest.test_case "parallel edges kept" `Quick test_parallel_edges;
          Alcotest.test_case "reverse" `Quick test_reverse;
          Alcotest.test_case "sources and sinks" `Quick test_sources_sinks;
          Alcotest.test_case "edges round-trip" `Quick test_edges_roundtrip;
        ] );
      ( "topological",
        [
          Alcotest.test_case "diamond order" `Quick test_topo_diamond;
          Alcotest.test_case "cycle raises with members" `Quick test_topo_cycle;
          Alcotest.test_case "self loop detected" `Quick test_topo_self_loop;
          Alcotest.test_case "levels of diamond" `Quick test_levels_diamond;
          Alcotest.test_case "by_level buckets" `Quick test_by_level;
          Alcotest.test_case "is_topological_order spec" `Quick test_is_topological_order_spec;
          prop_topo_sort_valid;
          prop_levels_monotonic;
          prop_level_zero_iff_source;
        ] );
      ( "reachability",
        [
          Alcotest.test_case "forward sets" `Quick test_reach_forward;
          Alcotest.test_case "members and count" `Quick test_reach_members_count;
          Alcotest.test_case "backward set" `Quick test_reach_backward;
          Alcotest.test_case "multiple roots" `Quick test_reach_multi_root;
          Alcotest.test_case "output cone" `Quick test_output_cone;
          Alcotest.test_case "cone with unreachable sink" `Quick test_output_cone_unreachable;
          Alcotest.test_case "cone needs a topological rank" `Quick
            test_cone_needs_topological_position;
          prop_lookup_finds_members;
          prop_reachability_transitive;
        ] );
      ( "bfs",
        [
          Alcotest.test_case "distances" `Quick test_bfs_distances;
          Alcotest.test_case "distance option" `Quick test_bfs_distance_option;
          Alcotest.test_case "shortcut preferred" `Quick test_bfs_prefers_short_route;
          Alcotest.test_case "shortest path" `Quick test_bfs_shortest_path;
          Alcotest.test_case "invalid vertex" `Quick test_bfs_invalid_vertex;
          prop_bfs_distance_at_most_levels;
        ] );
      ( "csr",
        [
          Alcotest.test_case "reverse of empty graph" `Quick test_csr_reverse_empty;
          Alcotest.test_case "reverse of diamond" `Quick test_csr_reverse_diamond;
          Alcotest.test_case "reverse keeps multi-edges" `Quick test_csr_reverse_multi_edge;
          Alcotest.test_case "double reverse is identity" `Quick test_csr_double_reverse;
          prop_csr_reverse_transpose;
          prop_bfs_distances_csr_agrees;
          prop_reverse_bfs_is_forward_distance;
        ] );
      ( "scc",
        [
          Alcotest.test_case "DAG has only singletons" `Quick test_scc_dag_trivial;
          Alcotest.test_case "one cycle found" `Quick test_scc_cycle;
          Alcotest.test_case "self loop nontrivial" `Quick test_scc_self_loop;
          Alcotest.test_case "two separate cycles" `Quick test_scc_two_cycles;
          Alcotest.test_case "component_of consistency" `Quick test_scc_component_of_consistent;
          prop_scc_partition;
          prop_scc_dag_all_singletons;
        ] );
    ]
