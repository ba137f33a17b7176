(* Reachability and cone extraction by iterative depth-first search.

   Step 1 of the paper's per-site algorithm: "Extract all on-path signals (and
   gates) from n_i to every reachable primary output PO_j and/or flip-flop
   FF_k using the forward Depth-First Search (DFS) algorithm."

   All searches are iterative so that circuits with tens of thousands of
   gates do not overflow the OCaml stack. *)

(* One search over one packed adjacency: the forward arrays for output
   cones, the reverse ones for fan-in cones.  Each vertex is pushed at most
   once, so a flat array of [n] cells is the whole stack and nothing but
   the result and that stack is allocated. *)
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

let forward_set g roots = search (Digraph.offsets g) (Digraph.targets g) roots

let backward_set g roots = search (Digraph.rev_offsets g) (Digraph.rev_targets g) roots

let forward g root = forward_set g [ root ]

let members visited =
  let acc = ref [] in
  for v = Array.length visited - 1 downto 0 do
    if visited.(v) then acc := v :: !acc
  done;
  !acc

let reachable g ~source ~target = (forward g source).(target)

let count visited = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 visited

(* The output cone of [site]: all vertices reachable from it, together with
   the subset of designated sinks it reaches.  This is exactly the "on-path
   signal" set of the paper once restricted to a netlist. *)
type cone = {
  site : Digraph.vertex;
  in_cone : bool array;
  reached_sinks : Digraph.vertex list;
}

let output_cone g ~sinks site =
  let in_cone = forward g site in
  let reached_sinks = List.filter (fun s -> in_cone.(s)) sinks in
  { site; in_cone; reached_sinks }

let cone_size c = count c.in_cone
