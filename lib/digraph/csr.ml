(* Compressed sparse row adjacency: the cache-friendly view of a Digraph.

   The list-of-successors representation is convenient to build and fine for
   one-shot traversals, but the EPP engine walks the forward cone of every
   error site — millions of successor enumerations on a whole-circuit
   sweep.  Chasing cons cells costs a pointer dereference (and a potential
   cache miss) per edge; CSR packs all successors into two int arrays

     targets.(offsets.(v) .. offsets.(v+1) - 1)   — the successors of v

   so a DFS touches memory sequentially and allocates nothing.  The view is
   immutable and safe to share across domains. *)

type t = {
  vertex_count : int;
  offsets : int array;  (* length vertex_count + 1, non-decreasing *)
  targets : int array;  (* length edge_count, grouped by source *)
}

let vertex_count t = t.vertex_count
let edge_count t = Array.length t.targets
let offsets t = t.offsets
let targets t = t.targets

let check_vertex t v =
  if v < 0 || v >= t.vertex_count then raise (Digraph.Invalid_vertex v)

let degree t v =
  check_vertex t v;
  t.offsets.(v + 1) - t.offsets.(v)

let iter_succ f t v =
  check_vertex t v;
  for i = t.offsets.(v) to t.offsets.(v + 1) - 1 do
    f t.targets.(i)
  done

let fold_succ f t v init =
  check_vertex t v;
  let acc = ref init in
  for i = t.offsets.(v) to t.offsets.(v + 1) - 1 do
    acc := f !acc t.targets.(i)
  done;
  !acc

let succ_list t v = List.rev (fold_succ (fun acc u -> u :: acc) t v [])

(* Successor order is preserved from the graph, so traversals over the CSR
   view visit edges in exactly the order list-based traversals do. *)
let of_graph g =
  let n = Digraph.vertex_count g in
  let offsets = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    offsets.(v + 1) <- offsets.(v) + Digraph.out_degree g v
  done;
  let targets = Array.make offsets.(n) 0 in
  for v = 0 to n - 1 do
    let i = ref offsets.(v) in
    List.iter
      (fun u ->
        targets.(!i) <- u;
        incr i)
      (Digraph.succ g v)
  done;
  { vertex_count = n; offsets; targets }

(* Transpose: an edge u -> v becomes v -> u.  Built by counting sort in
   O(V + E) without touching a Digraph.  Multi-edges are preserved (a gate
   reading the same net twice contributes two reverse edges), and the
   reversed successor lists come out sorted by source vertex, so the result
   is deterministic.  This is the backward view the analysis context serves
   to whole-circuit backward passes (required-time traversals, per-
   observation-point BFS distance maps). *)
let reverse t =
  let n = t.vertex_count in
  let m = Array.length t.targets in
  let offsets = Array.make (n + 1) 0 in
  for i = 0 to m - 1 do
    let v = t.targets.(i) in
    offsets.(v + 1) <- offsets.(v + 1) + 1
  done;
  for v = 0 to n - 1 do
    offsets.(v + 1) <- offsets.(v + 1) + offsets.(v)
  done;
  let targets = Array.make m 0 in
  let cursor = Array.copy offsets in
  for u = 0 to n - 1 do
    for i = t.offsets.(u) to t.offsets.(u + 1) - 1 do
      let v = t.targets.(i) in
      targets.(cursor.(v)) <- u;
      cursor.(v) <- cursor.(v) + 1
    done
  done;
  { vertex_count = n; offsets; targets }

let pp ppf t =
  Fmt.pf ppf "csr (%d vertices, %d edges)" t.vertex_count (edge_count t)
