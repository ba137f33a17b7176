(* Topological ordering and levelization (Kahn's algorithm).

   The EPP engine of the paper depends on processing on-path gates "in a
   topological order, from the error site to reachable outputs" (step 3 of the
   algorithm in Sec. 2); levelization is also what makes the bit-parallel
   logic simulator a single linear pass. *)

exception Cycle of Digraph.vertex list

let in_degrees g =
  let n = Digraph.vertex_count g in
  let deg = Array.make n 0 in
  Digraph.iter_edges (fun _ v -> deg.(v) <- deg.(v) + 1) g;
  deg

(* Kahn's algorithm with a FIFO worklist: among ready vertices, lower indices
   first, so the order is deterministic and stable across runs.  [emit] sees
   the vertices in that order; the result says whether every vertex was
   emitted, with the in-degrees left over (positive exactly on the vertices
   a cycle blocked). *)
let drain g ~emit =
  let n = Digraph.vertex_count g in
  let deg = in_degrees g in
  let queue = Queue.create () in
  for v = 0 to n - 1 do
    if deg.(v) = 0 then Queue.add v queue
  done;
  let emitted = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    emit u;
    incr emitted;
    List.iter
      (fun v ->
        deg.(v) <- deg.(v) - 1;
        if deg.(v) = 0 then Queue.add v queue)
      (Digraph.succ g u)
  done;
  (!emitted = n, deg)

let sort g =
  let order = ref [] in
  let complete, deg = drain g ~emit:(fun u -> order := u :: !order) in
  if not complete then begin
    let leftover = ref [] in
    for v = Array.length deg - 1 downto 0 do
      if deg.(v) > 0 then leftover := v :: !leftover
    done;
    raise (Cycle !leftover)
  end;
  List.rev !order

let sort_array g = Array.of_list (sort g)

(* Netlist validation runs this on every circuit built, so it drains
   without collecting the order. *)
let is_acyclic g = fst (drain g ~emit:ignore)

(* level v = 0 for sources, otherwise 1 + max level of predecessors.  The
   [levels_from] variant takes an already-computed topological order so a
   caller that memoizes the sort (Circuit's analysis context) does not pay
   for a second one; [levels] keeps the self-contained signature. *)
let levels_from g order =
  let n = Digraph.vertex_count g in
  let level = Array.make n 0 in
  Array.iter
    (fun u ->
      List.iter
        (fun v -> if level.(u) + 1 > level.(v) then level.(v) <- level.(u) + 1)
        (Digraph.succ g u))
    order;
  level

let levels g = levels_from g (sort_array g)

let max_level g =
  let lv = levels g in
  Array.fold_left max 0 lv

let by_level g =
  let lv = levels g in
  let depth = Array.fold_left max 0 lv in
  let buckets = Array.make (depth + 1) [] in
  for v = Digraph.vertex_count g - 1 downto 0 do
    buckets.(lv.(v)) <- v :: buckets.(lv.(v))
  done;
  buckets

let is_topological_order g order =
  let n = Digraph.vertex_count g in
  if List.length order <> n then false
  else begin
    let position = Array.make n (-1) in
    List.iteri (fun i v -> if v >= 0 && v < n then position.(v) <- i) order;
    if Array.exists (fun p -> p < 0) position then false
    else begin
      let ok = ref true in
      Digraph.iter_edges (fun u v -> if position.(u) >= position.(v) then ok := false) g;
      !ok
    end
  end
