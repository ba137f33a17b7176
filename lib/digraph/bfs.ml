(* Breadth-first shortest paths (unit edge weights).

   Used by the electrical-masking refinement: the pulse attenuation depth
   from an error site to an observation point is the minimum number of gate
   traversals, i.e. the BFS distance in the combinational graph. *)

let unreachable = -1

(* Each vertex is enqueued at most once, so the queue is one flat int array
   with a read and a write cursor, and nothing but the result and that
   array is allocated. *)
let distances g source =
  let n = Digraph.vertex_count g in
  if source < 0 || source >= n then raise (Digraph.Invalid_vertex source);
  let offsets = Digraph.offsets g and targets = Digraph.targets g in
  let dist = Array.make n unreachable in
  dist.(source) <- 0;
  let queue = Array.make n 0 in
  queue.(0) <- source;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du = dist.(u) in
    for i = offsets.(u) to offsets.(u + 1) - 1 do
      let v = targets.(i) in
      if dist.(v) = unreachable then begin
        dist.(v) <- du + 1;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  dist
