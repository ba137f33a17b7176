(* A minimal immutable directed graph over integer vertices [0 .. n-1], in
   packed (compressed-sparse-row) form.

   Vertices are plain array indices: every consumer in this project
   (netlists, signal-probability engines, the EPP engine) already numbers
   its objects densely.  All successors sit contiguously in one int array,

     targets.(offsets.(v) .. offsets.(v+1) - 1)   — the successors of v

   and all predecessors likewise in [rev_offsets]/[rev_targets], so a
   traversal touches memory sequentially and allocates nothing per edge.
   The graph is built from each vertex's predecessors, and both kinds of
   range read in increasing vertex order (parallel edges side by side),
   which keeps every traversal deterministic. *)

type vertex = int

type t = {
  offsets : int array;  (* length vertex_count + 1, non-decreasing *)
  targets : int array;  (* length edge_count, grouped by source *)
  rev_offsets : int array;
  rev_targets : int array;  (* grouped by target, sorted by source *)
}

exception Invalid_vertex of vertex

let vertex_count t = Array.length t.offsets - 1
let offsets t = t.offsets
let targets t = t.targets
let rev_offsets t = t.rev_offsets
let rev_targets t = t.rev_targets

let check_vertex t v = if v < 0 || v >= vertex_count t then raise (Invalid_vertex v)

(* Counting sort, in place.  [cells.(v)] holds a per-vertex edge count for
   [v < n] and [cells.(n)] is 0; the inclusive prefix sums turn each cell
   into the end of its vertex's slot range (and the last into the total).
   Filling every range from its end then moves each cell back to its
   range's start, so the array ends up as the offsets themselves. *)
let ends_of_counts cells =
  for v = 1 to Array.length cells - 1 do
    cells.(v) <- cells.(v) + cells.(v - 1)
  done

(* The predecessor arrays, by counting sort over the successor arrays.
   Sources are visited from the last down, so each predecessor range fills
   from its end in decreasing source order and reads in increasing order. *)
let transpose offsets targets =
  let n = Array.length offsets - 1 in
  let rev_offsets = Array.make (n + 1) 0 in
  Array.iter (fun v -> rev_offsets.(v) <- rev_offsets.(v) + 1) targets;
  ends_of_counts rev_offsets;
  let rev_targets = Array.make (Array.length targets) 0 in
  for u = n - 1 downto 0 do
    for i = offsets.(u + 1) - 1 downto offsets.(u) do
      let v = targets.(i) in
      rev_offsets.(v) <- rev_offsets.(v) - 1;
      rev_targets.(rev_offsets.(v)) <- u
    done
  done;
  { offsets; targets; rev_offsets; rev_targets }

(* A netlist hands over its fanin arrays: no list cell and no copy of them
   is made.  Consumers are placed from the last down, so each successor
   range reads in increasing consumer order, a repeated fanin's two edges
   side by side. *)
let of_predecessors ~vertex_count preds =
  if vertex_count < 0 then invalid_arg "Digraph.of_predecessors: negative vertex_count";
  let offsets = Array.make (vertex_count + 1) 0 in
  for v = 0 to vertex_count - 1 do
    let p = preds v in
    for k = 0 to Array.length p - 1 do
      let u = p.(k) in
      if u < 0 || u >= vertex_count then raise (Invalid_vertex u);
      offsets.(u) <- offsets.(u) + 1
    done
  done;
  ends_of_counts offsets;
  let targets = Array.make offsets.(vertex_count) 0 in
  for v = vertex_count - 1 downto 0 do
    let p = preds v in
    for k = Array.length p - 1 downto 0 do
      let u = p.(k) in
      offsets.(u) <- offsets.(u) - 1;
      targets.(offsets.(u)) <- v
    done
  done;
  transpose offsets targets

let succ t v =
  check_vertex t v;
  let acc = ref [] in
  for i = t.offsets.(v + 1) - 1 downto t.offsets.(v) do
    acc := t.targets.(i) :: !acc
  done;
  !acc

let mem_edge t u v =
  check_vertex t u;
  check_vertex t v;
  let found = ref false in
  for i = t.offsets.(u) to t.offsets.(u + 1) - 1 do
    if t.targets.(i) = v then found := true
  done;
  !found

let reverse t =
  { offsets = t.rev_offsets; targets = t.rev_targets; rev_offsets = t.offsets;
    rev_targets = t.targets }

let iter_edges f t =
  for u = 0 to vertex_count t - 1 do
    for i = t.offsets.(u) to t.offsets.(u + 1) - 1 do
      f u t.targets.(i)
    done
  done
