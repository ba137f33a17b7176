(* A minimal immutable directed graph over integer vertices [0 .. n-1].

   Vertices are plain array indices: every consumer in this project (netlists,
   signal-probability engines, the EPP engine) already numbers its objects
   densely, so an adjacency-array representation is both the simplest and the
   fastest choice.  Successor lists are stored in the order edges were added,
   which keeps traversals deterministic. *)

type vertex = int

type t = {
  vertex_count : int;
  succ : vertex list array;
  pred : vertex list array;
  edge_count : int;
}

exception Invalid_vertex of vertex

let check_vertex t v = if v < 0 || v >= t.vertex_count then raise (Invalid_vertex v)

let vertex_count t = t.vertex_count

let edge_count t = t.edge_count

let succ t v =
  check_vertex t v;
  t.succ.(v)

let pred t v =
  check_vertex t v;
  t.pred.(v)

let out_degree t v = List.length (succ t v)

let in_degree t v = List.length (pred t v)

let of_edges ~vertex_count edges =
  if vertex_count < 0 then invalid_arg "Digraph.of_edges: negative vertex_count";
  let succ = Array.make vertex_count [] in
  let pred = Array.make vertex_count [] in
  let count = ref 0 in
  let add (u, v) =
    if u < 0 || u >= vertex_count then raise (Invalid_vertex u);
    if v < 0 || v >= vertex_count then raise (Invalid_vertex v);
    succ.(u) <- v :: succ.(u);
    pred.(v) <- u :: pred.(v);
    incr count
  in
  List.iter add edges;
  (* Reverse so that successor lists preserve insertion order. *)
  Array.iteri (fun i l -> succ.(i) <- List.rev l) succ;
  Array.iteri (fun i l -> pred.(i) <- List.rev l) pred;
  { vertex_count; succ; pred; edge_count = !count }

(* Takes ownership of [succ]: a circuit builds the array only to hand it
   over, so copying it would double the graph's largest allocation. *)
let of_successors succ =
  let vertex_count = Array.length succ in
  let pred = Array.make vertex_count [] in
  let count = ref 0 in
  (* Sources are visited from the last down, so every predecessor list
     comes out in ascending source order without a reversal pass. *)
  for u = vertex_count - 1 downto 0 do
    List.iter
      (fun v ->
        if v < 0 || v >= vertex_count then raise (Invalid_vertex v);
        pred.(v) <- u :: pred.(v);
        incr count)
      succ.(u)
  done;
  { vertex_count; succ; pred; edge_count = !count }

let edges t =
  let acc = ref [] in
  for u = t.vertex_count - 1 downto 0 do
    List.iter (fun v -> acc := (u, v) :: !acc) (List.rev t.succ.(u))
  done;
  !acc

let reverse t =
  { vertex_count = t.vertex_count; succ = Array.copy t.pred; pred = Array.copy t.succ;
    edge_count = t.edge_count }

let mem_edge t u v =
  check_vertex t u;
  check_vertex t v;
  List.mem v t.succ.(u)

let sources t =
  let acc = ref [] in
  for v = t.vertex_count - 1 downto 0 do
    if t.pred.(v) = [] then acc := v :: !acc
  done;
  !acc

let sinks t =
  let acc = ref [] in
  for v = t.vertex_count - 1 downto 0 do
    if t.succ.(v) = [] then acc := v :: !acc
  done;
  !acc

let iter_vertices f t =
  for v = 0 to t.vertex_count - 1 do
    f v
  done

let fold_vertices f t init =
  let acc = ref init in
  for v = 0 to t.vertex_count - 1 do
    acc := f v !acc
  done;
  !acc

let iter_edges f t = Array.iteri (fun u vs -> List.iter (fun v -> f u v) vs) t.succ

let pp ppf t =
  Fmt.pf ppf "@[<v>digraph (%d vertices, %d edges)" t.vertex_count t.edge_count;
  iter_vertices
    (fun v ->
      match t.succ.(v) with
      | [] -> ()
      | vs -> Fmt.pf ppf "@,%d -> @[%a@]" v Fmt.(list ~sep:sp int) vs)
    t;
  Fmt.pf ppf "@]"
