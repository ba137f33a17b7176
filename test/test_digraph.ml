(* Tests for the graph substrate: construction, topological sorting,
   levelization, reachability/cones, SCC. *)

open Helpers

(* A fixed diamond: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3. *)
let diamond () = graph_of_edges ~vertex_count:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ]

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
  graph_of_edges ~vertex_count:n (random_dag_edges ~seed ~n ~density)

(* The predecessors of [v], read from the reverse arrays, and the number
   of edges. *)
let preds g v =
  let rev_offsets = Digraph.rev_offsets g and rev_targets = Digraph.rev_targets g in
  List.init (rev_offsets.(v + 1) - rev_offsets.(v)) (fun k -> rev_targets.(rev_offsets.(v) + k))

let edge_count g = Array.length (Digraph.targets g)

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
  let g = graph_of_edges ~vertex_count:0 [] in
  check_int "vertices" 0 (Digraph.vertex_count g);
  check_int "edges" 0 (edge_count g);
  Digraph.iter_edges (fun _ _ -> Alcotest.fail "no edges") g

let test_counts () =
  let g = diamond () in
  check_int "vertices" 4 (Digraph.vertex_count g);
  check_int "edges" 4 (edge_count g)

let test_succ_pred () =
  let g = diamond () in
  Alcotest.(check (list int)) "succ 0" [ 1; 2 ] (Digraph.succ g 0);
  Alcotest.(check (list int)) "succ 3" [] (Digraph.succ g 3);
  Alcotest.(check (list int)) "pred 3" [ 1; 2 ] (preds g 3);
  Alcotest.(check (list int)) "pred 0" [] (preds g 0)

let test_invalid_vertex () =
  let g = diamond () in
  Alcotest.check_raises "succ out of range" (Digraph.Invalid_vertex 7) (fun () ->
      ignore (Digraph.succ g 7));
  Alcotest.check_raises "negative" (Digraph.Invalid_vertex (-1)) (fun () ->
      ignore (Digraph.mem_edge g (-1) 0))

let test_invalid_edge () =
  Alcotest.check_raises "bad endpoint" (Digraph.Invalid_vertex 5) (fun () ->
      ignore (graph_of_edges ~vertex_count:3 [ (5, 0) ]))

(* A netlist's construction: vertex 1 reads 0, vertex 2 reads 1 and 0,
   vertex 3 reads 2 twice. *)
let test_of_successors () =
  let fanins = [| [||]; [| 0 |]; [| 1; 0 |]; [| 2; 2 |] |] in
  let g = Digraph.of_predecessors ~vertex_count:4 (Array.get fanins) in
  check_int "edges" 5 (edge_count g);
  Alcotest.(check (list int)) "consumers in id order" [ 1; 2 ] (Digraph.succ g 0);
  Alcotest.(check (list int)) "a repeated fanin twice" [ 3; 3 ] (Digraph.succ g 2);
  Alcotest.(check (list int)) "pred 2" [ 0; 1 ] (preds g 2);
  Alcotest.check_raises "bad fanin" (Digraph.Invalid_vertex 4) (fun () ->
      ignore (Digraph.of_predecessors ~vertex_count:2 (fun _ -> [| 4 |])))

let test_mem_edge () =
  let g = diamond () in
  check_bool "0->1" true (Digraph.mem_edge g 0 1);
  check_bool "1->0" false (Digraph.mem_edge g 1 0);
  check_bool "0->3" false (Digraph.mem_edge g 0 3)

let test_parallel_edges () =
  let g = graph_of_edges ~vertex_count:2 [ (0, 1); (0, 1) ] in
  check_int "both kept" 2 (edge_count g);
  Alcotest.(check (list int)) "succ" [ 1; 1 ] (Digraph.succ g 0)

let test_reverse () =
  let g = Digraph.reverse (diamond ()) in
  Alcotest.(check (list int)) "succ 3 in reverse" [ 1; 2 ] (Digraph.succ g 3);
  Alcotest.(check (list int)) "pred 0 in reverse" [ 1; 2 ] (preds g 0);
  check_int "edge count preserved" 4 (edge_count g)

(* --- topological sorting -------------------------------------------------- *)

let test_topo_diamond () =
  let g = diamond () in
  Alcotest.(check (array int)) "deterministic order" [| 0; 1; 2; 3 |] (Topo.sort_array g)

let sort_raises_cycle g =
  match Topo.sort_array g with
  | _ -> Alcotest.fail "expected Cycle"
  | exception Topo.Cycle leftover -> leftover

(* The payload is every vertex the drain could not order, downstream of a
   cycle too; the cycle itself is Scc.nontrivial's to name. *)
let test_topo_cycle () =
  let g = graph_of_edges ~vertex_count:3 [ (0, 1); (1, 2); (2, 0) ] in
  Alcotest.(check (list int)) "members" [ 0; 1; 2 ] (sort_raises_cycle g);
  check_bool "is_acyclic" false (Topo.is_acyclic g);
  let g = graph_of_edges ~vertex_count:3 [ (0, 1); (1, 0); (1, 2) ] in
  Alcotest.(check (list int)) "and what they feed" [ 0; 1; 2 ] (sort_raises_cycle g);
  Alcotest.(check (list (list int))) "the cycle alone" [ [ 0; 1 ] ]
    (List.map (List.sort compare) (Scc.nontrivial g))

let test_topo_self_loop () =
  let g = graph_of_edges ~vertex_count:2 [ (0, 0); (0, 1) ] in
  check_bool "self loop is a cycle" false (Topo.is_acyclic g)

(* Catlab's topological-sort cases (a discrete graph, a path, a diamond,
   parallel edges, a 3-cycle), the predecessor arrays written out. *)
let test_topo_standard_cases () =
  let sort preds =
    Topo.sort_array (Digraph.of_predecessors ~vertex_count:(Array.length preds) (Array.get preds))
  in
  Alcotest.(check (array int)) "discrete" [| 0; 1; 2; 3; 4 |] (sort (Array.make 5 [||]));
  Alcotest.(check (array int)) "path 4 -> 0" [| 4; 3; 2; 1; 0 |]
    (sort [| [| 1 |]; [| 2 |]; [| 3 |]; [| 4 |]; [||] |]);
  Alcotest.(check (array int)) "diamond" [| 0; 1; 2; 3 |]
    (sort [| [||]; [| 0 |]; [| 0 |]; [| 1; 2 |] |]);
  Alcotest.(check (array int)) "parallel edges" [| 0; 1; 2 |]
    (sort [| [||]; [| 0; 0 |]; [| 0; 1 |] |]);
  Alcotest.check_raises "3-cycle" (Topo.Cycle [ 0; 1; 2 ]) (fun () ->
      ignore (sort [| [| 2 |]; [| 0 |]; [| 1 |] |]))

let levels g = Topo.levels_from g (Topo.sort_array g)

let test_levels_diamond () =
  let g = diamond () in
  Alcotest.(check (array int)) "levels" [| 0; 1; 1; 2 |] (levels g)

let test_is_topological_order_spec () =
  let g = diamond () in
  check_bool "valid" true (is_topological_order g [ 0; 2; 1; 3 ]);
  check_bool "edge backwards" false (is_topological_order g [ 1; 0; 2; 3 ]);
  check_bool "not a permutation" false (is_topological_order g [ 0; 1; 2 ]);
  check_bool "duplicates" false (is_topological_order g [ 0; 1; 1; 3 ])

let prop_topo_sort_valid =
  qtest ~name:"Topo.sort yields a valid topological order on random DAGs"
    Helpers.seed_arbitrary (fun seed ->
      let g = random_dag ~seed ~n:(10 + (seed mod 30)) ~density:0.15 in
      is_topological_order g (Array.to_list (Topo.sort_array g)))

let prop_levels_monotonic =
  qtest ~name:"levels increase along every edge" Helpers.seed_arbitrary (fun seed ->
      let g = random_dag ~seed ~n:(10 + (seed mod 30)) ~density:0.2 in
      let lv = levels g in
      let ok = ref true in
      Digraph.iter_edges (fun u v -> if lv.(u) >= lv.(v) then ok := false) g;
      !ok)

let prop_level_zero_iff_source =
  qtest ~name:"level 0 exactly at sources" Helpers.seed_arbitrary (fun seed ->
      let g = random_dag ~seed ~n:(5 + (seed mod 20)) ~density:0.25 in
      let lv = levels g in
      let ok = ref true in
      for v = 0 to Digraph.vertex_count g - 1 do
        if (lv.(v) = 0) <> (preds g v = []) then ok := false
      done;
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
  let g = graph_of_edges ~vertex_count:4 [ (0, 2); (2, 3) ] in
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
  let g = graph_of_edges ~vertex_count:5 [ (0, 2); (1, 3) ] in
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
  let g = graph_of_edges ~vertex_count:3 [ (0, 1) ] in
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

let test_bfs_prefers_short_route () =
  (* 0 -> 1 -> 2 -> 3 and a shortcut 0 -> 3. *)
  let g = graph_of_edges ~vertex_count:4 [ (0, 1); (1, 2); (2, 3); (0, 3) ] in
  check_int "shortcut wins" 1 (Bfs.distances g 0).(3)

let test_bfs_invalid_vertex () =
  let g = diamond () in
  Alcotest.check_raises "bad source" (Digraph.Invalid_vertex 9) (fun () ->
      ignore (Bfs.distances g 9))

(* Unreachable exactly outside the source's cone; otherwise a walk back
   from the target, one edge to a vertex a step closer each time, reaches
   the source in exactly the distance. *)
let prop_bfs_distance_at_most_levels =
  qtest ~name:"BFS distance consistent with a valid path" seed_arbitrary (fun seed ->
      let g = random_dag ~seed ~n:15 ~density:0.2 in
      let ok = ref true in
      for s = 0 to 14 do
        let dist = Bfs.distances g s in
        let cone = forward_cone g [ s ] in
        for t = 0 to 14 do
          if dist.(t) = Bfs.unreachable then begin
            if member g cone t then ok := false
          end
          else begin
            let v = ref t in
            for _ = 1 to dist.(t) do
              match List.find_opt (fun u -> dist.(u) = dist.(!v) - 1) (preds g !v) with
              | Some u ->
                if not (Digraph.mem_edge g u !v) then ok := false;
                v := u
              | None -> ok := false
            done;
            if !v <> s then ok := false
          end
        done
      done;
      !ok)

(* --- packed transpose and BFS, against the list-based reference ----------- *)

let test_csr_reverse_empty () =
  let rev = Digraph.reverse (graph_of_edges ~vertex_count:0 []) in
  check_int "vertices" 0 (Digraph.vertex_count rev);
  check_int "edges" 0 (edge_count rev)

let test_csr_reverse_diamond () =
  let rev = Digraph.reverse (diamond ()) in
  check_int "edge count preserved" 4 (edge_count rev);
  Alcotest.(check (list int)) "succ 3 in reverse" [ 1; 2 ] (Digraph.succ rev 3);
  Alcotest.(check (list int)) "succ 1 in reverse" [ 0 ] (Digraph.succ rev 1);
  Alcotest.(check (list int)) "succ 0 in reverse" [] (Digraph.succ rev 0)

let test_csr_reverse_multi_edge () =
  let g = graph_of_edges ~vertex_count:3 [ (0, 1); (0, 1); (2, 1) ] in
  let rev = Digraph.reverse g in
  check_int "multi-edges kept" 3 (edge_count rev);
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
      let g = graph_of_edges ~vertex_count:15 edges in
      let spec = reference_reverse (reference_succ ~n:15 edges) in
      let rev = Digraph.reverse g in
      let ok = ref (edge_count rev = List.length edges) in
      for v = 0 to 14 do
        if Digraph.succ rev v <> spec.(v) || preds g v <> spec.(v) then ok := false
      done;
      !ok)

let prop_bfs_distances_csr_agrees =
  qtest ~name:"Bfs.distances_csr matches Bfs.distances" seed_arbitrary
    (fun seed ->
      let edges = random_dag_edges ~seed ~n:15 ~density:0.25 in
      let g = graph_of_edges ~vertex_count:15 edges in
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
      let g = graph_of_edges ~vertex_count:15 edges in
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
  Alcotest.(check (list (list int))) "no nontrivial" [] (Scc.nontrivial g)

let test_scc_cycle () =
  let g = graph_of_edges ~vertex_count:4 [ (0, 1); (1, 2); (2, 0); (2, 3) ] in
  let nontrivial = Scc.nontrivial g in
  check_int "one loop" 1 (List.length nontrivial);
  Alcotest.(check (list int)) "loop members" [ 0; 1; 2 ] (List.sort compare (List.hd nontrivial))

let test_scc_self_loop () =
  let g = graph_of_edges ~vertex_count:2 [ (0, 0) ] in
  check_int "self loop is nontrivial" 1 (List.length (Scc.nontrivial g))

let test_scc_two_cycles () =
  let g =
    graph_of_edges ~vertex_count:6 [ (0, 1); (1, 0); (2, 3); (3, 4); (4, 2); (4, 5) ]
  in
  let loops = List.map (List.sort compare) (Scc.nontrivial g) in
  check_int "two loops" 2 (List.length loops);
  check_bool "01 loop found" true (List.mem [ 0; 1 ] loops);
  check_bool "234 loop found" true (List.mem [ 2; 3; 4 ] loops)

let prop_scc_partition =
  qtest ~name:"SCCs partition the vertex set" Helpers.seed_arbitrary (fun seed ->
      let rng = Rng.create ~seed in
      let n = 8 + (seed mod 12) in
      (* arbitrary directed graph, cycles allowed *)
      let edges = ref [] in
      for _ = 1 to 2 * n do
        edges := (Rng.int rng ~bound:n, Rng.int rng ~bound:n) :: !edges
      done;
      let g = graph_of_edges ~vertex_count:n !edges in
      (* The cyclic components and a singleton for each other vertex are
         the classes of mutual reachability: two vertices share a cyclic
         component iff each reaches the other, and a component of one
         vertex is cyclic iff it has a self-loop. *)
      let block = Array.make n (-1) in
      let ok = ref true in
      List.iteri
        (fun i comp ->
          List.iter
            (fun v ->
              if block.(v) >= 0 then ok := false;
              block.(v) <- i)
            comp;
          match comp with
          | [ v ] -> if not (Digraph.mem_edge g v v) then ok := false
          | _ -> ())
        (Scc.nontrivial g);
      let reaches_to = Array.init n (fun v -> Reach.backward_set g [ v ]) in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let mutual = reaches_to.(v).(u) && reaches_to.(u).(v) in
          if u <> v && (block.(u) >= 0 && block.(u) = block.(v)) <> mutual then ok := false
        done;
        if block.(u) < 0 && Digraph.mem_edge g u u then ok := false
      done;
      !ok)

let prop_scc_dag_all_singletons =
  qtest ~name:"every SCC of a DAG is a singleton" Helpers.seed_arbitrary (fun seed ->
      Scc.nontrivial (random_dag ~seed ~n:15 ~density:0.2) = [])

let () =
  Alcotest.run "digraph"
    [
      ( "construction",
        [
          Alcotest.test_case "empty graph" `Quick test_empty;
          Alcotest.test_case "vertex and edge counts" `Quick test_counts;
          Alcotest.test_case "succ and pred" `Quick test_succ_pred;
          Alcotest.test_case "invalid vertex raises" `Quick test_invalid_vertex;
          Alcotest.test_case "invalid edge raises" `Quick test_invalid_edge;
          Alcotest.test_case "of_successors" `Quick test_of_successors;
          Alcotest.test_case "mem_edge" `Quick test_mem_edge;
          Alcotest.test_case "parallel edges kept" `Quick test_parallel_edges;
          Alcotest.test_case "reverse" `Quick test_reverse;
        ] );
      ( "topological",
        [
          Alcotest.test_case "diamond order" `Quick test_topo_diamond;
          Alcotest.test_case "cycle raises with members" `Quick test_topo_cycle;
          Alcotest.test_case "self loop detected" `Quick test_topo_self_loop;
          Alcotest.test_case "standard small graphs" `Quick test_topo_standard_cases;
          Alcotest.test_case "levels of diamond" `Quick test_levels_diamond;
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
          Alcotest.test_case "shortcut preferred" `Quick test_bfs_prefers_short_route;
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
          prop_scc_partition;
          prop_scc_dag_all_singletons;
        ] );
    ]
