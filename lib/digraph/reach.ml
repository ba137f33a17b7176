(* Reachability and cone extraction.

   Step 1 of the paper's per-site algorithm: "Extract all on-path signals (and
   gates) from n_i to every reachable primary output PO_j and/or flip-flop
   FF_k using the forward Depth-First Search (DFS) algorithm."

   All searches are iterative so that circuits with tens of thousands of
   gates do not overflow the OCaml stack. *)

(* One search over one packed adjacency: the reverse arrays for fan-in
   sets.  Each vertex is pushed at most once, so a flat array of [n] cells
   is the whole stack and nothing but the result and that stack is
   allocated. *)
let search offsets targets roots =
  let n = Array.length offsets - 1 in
  let visited = Array.make n false in
  let stack = Array.make n 0 in
  let top = ref 0 in
  List.iter
    (fun r ->
      if r < 0 || r >= n then raise (Digraph.Invalid_vertex r);
      if not visited.(r) then begin
        visited.(r) <- true;
        stack.(!top) <- r;
        incr top
      end)
    roots;
  while !top > 0 do
    decr top;
    let u = stack.(!top) in
    for i = offsets.(u) to offsets.(u + 1) - 1 do
      let v = targets.(i) in
      if not visited.(v) then begin
        visited.(v) <- true;
        stack.(!top) <- v;
        incr top
      end
    done
  done;
  visited

let backward_set g roots = search (Digraph.rev_offsets g) (Digraph.rev_targets g) roots

let count visited = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 visited

(* --- cones as member arrays -------------------------------------------------

   A cone search that costs the cone, not the graph.  A ranking holds a
   topological order, its inverse and one mark per vertex, allocated once;
   each search takes a fresh generation, so marking a vertex is one store
   and no search clears or scans the marks.  The search is breadth-first,
   marking on discovery, with its member buffer as the queue; the members'
   positions are then radix-sorted (a byte per pass) and mapped back
   through the order.  Everything it allocates is proportional to the
   members, plus one 257-entry count table. *)

type ranking = {
  graph : Digraph.t;
  order : int array;
  position : int array;
  marks : int array;  (* the generation of the last search that reached each vertex *)
  mutable generation : int;
  lock : Mutex.t;  (* searches share the marks, so they run one at a time *)
}

let ranking g ~order =
  let n = Digraph.vertex_count g in
  if Array.length order <> n then invalid_arg "Reach.ranking: order has the wrong length";
  let position = Array.make n (-1) in
  Array.iteri
    (fun i v ->
      if v < 0 || v >= n || position.(v) >= 0 then
        invalid_arg "Reach.ranking: order is not a permutation";
      position.(v) <- i)
    order;
  Digraph.iter_edges
    (fun u v ->
      if position.(u) >= position.(v) then
        invalid_arg "Reach.ranking: order is not topological")
    g;
  { graph = g; order; position; marks = Array.make n 0; generation = 0; lock = Mutex.create () }

let position t = t.position

let grow (a : int array) =
  let b = Array.make (2 * Array.length a) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Least-significant-byte radix sort of [keys], all in [0, bound). *)
let radix_sort (keys : int array) ~bound =
  let k = Array.length keys in
  let counts = Array.make 257 0 in
  let src = ref keys and dst = ref (Array.make k 0) and shift = ref 0 in
  while (bound - 1) lsr !shift > 0 do
    let s = !src and d = !dst and sh = !shift in
    Array.fill counts 0 257 0;
    for i = 0 to k - 1 do
      let b = ((s.(i) lsr sh) land 255) + 1 in
      counts.(b) <- counts.(b) + 1
    done;
    for b = 1 to 256 do
      counts.(b) <- counts.(b) + counts.(b - 1)
    done;
    for i = 0 to k - 1 do
      let b = (s.(i) lsr sh) land 255 in
      d.(counts.(b)) <- s.(i);
      counts.(b) <- counts.(b) + 1
    done;
    src := d;
    dst := s;
    shift := sh + 8
  done;
  !src

let search t offsets targets roots =
  let n = Array.length t.position in
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  t.generation <- t.generation + 1;
  let generation = t.generation and marks = t.marks in
  let found = ref (Array.make 16 0) and count = ref 0 in
  List.iter
    (fun r ->
      if r < 0 || r >= n then raise (Digraph.Invalid_vertex r);
      if marks.(r) <> generation then begin
        marks.(r) <- generation;
        if !count = Array.length !found then found := grow !found;
        !found.(!count) <- r;
        incr count
      end)
    roots;
  let next = ref 0 in
  while !next < !count do
    let u = !found.(!next) in
    incr next;
    for j = offsets.(u) to offsets.(u + 1) - 1 do
      let w = targets.(j) in
      if marks.(w) <> generation then begin
        marks.(w) <- generation;
        if !count = Array.length !found then found := grow !found;
        !found.(!count) <- w;
        incr count
      end
    done
  done;
  let found = !found in
  let keys = Array.init !count (fun i -> t.position.(found.(i))) in
  Array.map (fun p -> t.order.(p)) (radix_sort keys ~bound:n)

let forward_cone t roots = search t (Digraph.offsets t.graph) (Digraph.targets t.graph) roots

let backward_cone t roots =
  search t (Digraph.rev_offsets t.graph) (Digraph.rev_targets t.graph) roots

(* --- finding a vertex among members ------------------------------------------

   The members' positions, ascending, with a directory over them: the
   position range is cut into buckets of [2^shift] positions, one or two
   buckets per member, and [dir.(b)] is the first member whose position
   falls in bucket [b] or later.  A lookup is a shift and a binary search
   inside one bucket — almost always zero to two comparisons, where a
   binary search over the whole cone takes a dozen unpredictable branches
   (on s13207-profile cones, halving the buckets to one per member made a
   lookup about 40% slower). *)

type lookup = {
  position : int array;  (* the graph's ranking, shared *)
  keys : int array;  (* the members' positions, ascending *)
  low : int;  (* the least key *)
  shift : int;
  dir : int array;  (* per bucket, then a sentinel: the first member at or after it *)
}

let lookup ~position members =
  let k = Array.length members in
  let keys = Array.map (fun v -> position.(v)) members in
  let low = if k = 0 then 0 else keys.(0) in
  let span = if k = 0 then 0 else keys.(k - 1) - low in
  let shift = ref 0 in
  while span lsr !shift >= 2 * max 1 k do
    incr shift
  done;
  let shift = !shift in
  let buckets = (span lsr shift) + 1 in
  let dir = Array.make (buckets + 1) k in
  let i = ref 0 in
  for b = 0 to buckets - 1 do
    while !i < k && (keys.(!i) - low) lsr shift < b do
      incr i
    done;
    dir.(b) <- !i
  done;
  { position; keys; low; shift; dir }

let find t v =
  let p = t.position.(v) in
  let d = p - t.low in
  let b = d lsr t.shift in
  if d < 0 || b >= Array.length t.dir - 1 then -1
  else begin
    let lo = ref t.dir.(b) and hi = ref (t.dir.(b + 1) - 1) and found = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) lsr 1 in
      let km = t.keys.(mid) in
      if km = p then begin
        found := mid;
        lo := !hi + 1
      end
      else if km < p then lo := mid + 1
      else hi := mid - 1
    done;
    !found
  end
