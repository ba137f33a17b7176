(* Topological ordering and levelization (Kahn's algorithm).

   The EPP engine of the paper depends on processing on-path gates "in a
   topological order, from the error site to reachable outputs" (step 3 of the
   algorithm in Sec. 2); levelization is also what makes the bit-parallel
   logic simulator a single linear pass. *)

exception Cycle of Digraph.vertex list

(* Kahn's algorithm with a FIFO worklist: among ready vertices, lower indices
   first, so the order is deterministic and stable across runs.  In-degrees
   are the lengths of the predecessor ranges.  Every vertex enters the
   worklist at most once, so the FIFO is one int array with a read and a
   write cursor, and what it holds at the end is the order.  The in-degrees
   left over are positive exactly on the vertices a cycle blocked. *)
let sort_array g =
  let n = Digraph.vertex_count g in
  let offsets = Digraph.offsets g and targets = Digraph.targets g in
  let rev_offsets = Digraph.rev_offsets g in
  let deg = Array.init n (fun v -> rev_offsets.(v + 1) - rev_offsets.(v)) in
  let queue = Array.make n 0 in
  let tail = ref 0 in
  for v = 0 to n - 1 do
    if deg.(v) = 0 then begin
      queue.(!tail) <- v;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for i = offsets.(u) to offsets.(u + 1) - 1 do
      let v = targets.(i) in
      deg.(v) <- deg.(v) - 1;
      if deg.(v) = 0 then begin
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  if !head < n then begin
    let leftover = ref [] in
    for v = n - 1 downto 0 do
      if deg.(v) > 0 then leftover := v :: !leftover
    done;
    raise (Cycle !leftover)
  end;
  queue

(* level v = 0 for sources, otherwise 1 + max level of predecessors, from
   an already-computed topological order: the analysis context memoizes
   its one sort and derives levels from it. *)
let levels_from g order =
  let offsets = Digraph.offsets g and targets = Digraph.targets g in
  let level = Array.make (Digraph.vertex_count g) 0 in
  Array.iter
    (fun u ->
      let next = level.(u) + 1 in
      for i = offsets.(u) to offsets.(u + 1) - 1 do
        let v = targets.(i) in
        if next > level.(v) then level.(v) <- next
      done)
    order;
  level
