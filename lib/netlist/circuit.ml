(* Immutable gate-level netlist.

   Every signal (net) is identified with the node driving it, and nodes are
   dense integers, so all per-node data in the engines are plain arrays.

   Sequential circuits are represented the way the paper uses them: a
   flip-flop contributes a node for its output Q, which acts as a
   pseudo-primary-input of the combinational core, while its data input D is a
   pseudo-primary-output (an observation point for error propagation).  The
   combinational graph therefore contains only fanin -> gate edges and must be
   acyclic. *)

type node =
  | Input
  | Ff of { data : int }
  | Gate of { kind : Gate.kind; fanins : int array }

(* Extension point for the shared analysis context (Analysis.t).  The
   context needs the circuit and the circuit carries the context, so the
   slot is an extensible variant: Analysis adds its constructor without
   creating a module cycle. *)
type context = ..

type t = {
  name : string;
  nodes : node array;
  names : string array;
  index : Name_table.t;
  inputs : int array;
  outputs : int array;
  ffs : int array;
  graph : Digraph.t;  (* combinational graph: fanin -> gate edges only *)
  context : context option Atomic.t;
      (* the analysis context, published once by compare-and-set *)
}

let name t = t.name
let node_count t = Array.length t.nodes
let node t v = t.nodes.(v)
let node_name t v = t.names.(v)
let inputs t = Array.to_list t.inputs
let outputs t = Array.to_list t.outputs
let ffs t = Array.to_list t.ffs
let input_count t = Array.length t.inputs
let output_count t = Array.length t.outputs
let ff_count t = Array.length t.ffs

let gate_count t =
  Array.fold_left
    (fun acc n ->
      match n with
      | Gate _ -> acc + 1
      | Input | Ff _ -> acc)
    0 t.nodes

let find t name =
  let v = Name_table.find t.index t.names name in
  if v < 0 then raise Not_found else v

let find_opt t name =
  let v = Name_table.find t.index t.names name in
  if v < 0 then None else Some v

let fanins t v =
  match t.nodes.(v) with
  | Input | Ff _ -> [||]
  | Gate { fanins; _ } -> fanins

let kind_of t v =
  match t.nodes.(v) with
  | Gate { kind; _ } -> Some kind
  | Input | Ff _ -> None

let is_input t v =
  match t.nodes.(v) with
  | Input -> true
  | Ff _ | Gate _ -> false

let is_ff t v =
  match t.nodes.(v) with
  | Ff _ -> true
  | Input | Gate _ -> false

let is_gate t v =
  match t.nodes.(v) with
  | Gate _ -> true
  | Input | Ff _ -> false

(* Pseudo-primary inputs of the combinational core: PIs and FF outputs. *)
let is_pseudo_input t v =
  match t.nodes.(v) with
  | Input | Ff _ -> true
  | Gate _ -> false

let pseudo_inputs t =
  let acc = ref [] in
  for v = node_count t - 1 downto 0 do
    if is_pseudo_input t v then acc := v :: !acc
  done;
  !acc

(* Observation points: where a propagated error becomes architecturally
   visible.  POs observe their driving net; FFs observe (capture) their data
   net.  A net can be observed several times (e.g. it drives both a PO and
   two FFs); each observation is a distinct point, as in the paper's product
   over reachable outputs. *)
type observation = Po of int | Ff_data of int

let observation_net t obs =
  match obs with
  | Po v ->
    ignore t;
    v
  | Ff_data ff -> (
    match t.nodes.(ff) with
    | Ff { data } -> data
    | Input | Gate _ -> invalid_arg "Circuit.observation_net: not a flip-flop")

let observations t =
  let pos = Array.to_list t.outputs |> List.map (fun v -> Po v) in
  let ffds = Array.to_list t.ffs |> List.map (fun f -> Ff_data f) in
  pos @ ffds

let observation_name t = function
  | Po v -> t.names.(v)
  | Ff_data ff -> t.names.(ff) ^ ".D"

let graph t = t.graph

let fanouts t v = Digraph.succ t.graph v

let context t = t.context

(* Construction, with no validation beyond indices.  [index] maps each
   name to its node id (Builder hands over the table it interned names
   into) and reads the names through [names]; the circuit owns both from
   here on.  Node values may be shared with other circuits (an edit keeps
   the definitions it leaves alone), which is safe because no circuit
   mutates one.  The graph is packed straight from the fanin arrays, with
   no list cell: every parse, generator call and rewrite builds one. *)
let make_indexed ~name ~nodes ~names ~index ~inputs ~outputs ~ffs =
  let n = Array.length nodes in
  assert (Array.length names = n);
  let graph =
    Digraph.of_predecessors ~vertex_count:n (fun v ->
        match nodes.(v) with
        | Gate { fanins; _ } -> fanins
        | Input | Ff _ -> [||])
  in
  { name; nodes; names; index; inputs; outputs; ffs; graph; context = Atomic.make None }

let make ~name ~nodes ~names ~inputs ~outputs ~ffs =
  make_indexed ~name ~nodes ~names ~index:(Name_table.of_names names) ~inputs ~outputs ~ffs

let pp ppf t =
  Fmt.pf ppf "@[<v>circuit %S: %d nodes (%d PI, %d PO, %d FF, %d gates)@]" t.name
    (node_count t) (input_count t) (output_count t) (ff_count t) (gate_count t)
