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
  csr : Csr.t;  (* packed adjacency of [graph], shared by per-site hot paths *)
  (* Memoized whole-graph facts.  Each cell is written exactly once (under
     [lock], double-checked) and the cached arrays are immutable by
     contract: every accessor returns the shared array, so a caller that
     wrote into one would corrupt every other engine on the circuit.
     [Atomic] cells publish the initialized payload to domains that race on
     the first force. *)
  lock : Mutex.t;
  topo : int array option Atomic.t;
  level_memo : int array option Atomic.t;
  depth_memo : int option Atomic.t;
  rev_csr : Csr.t option Atomic.t;
  context : context option Atomic.t;
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
  let v = Name_table.find t.index name in
  if v < 0 then raise Not_found else v

let find_opt t name =
  let v = Name_table.find t.index name in
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
let csr t = t.csr

let fanouts t v = Digraph.succ t.graph v

(* --- memoized analysis facts ----------------------------------------------

   Counter names are shared with Analysis so one pair of metrics
   (analysis.cache.{hit,miss}) tells the whole reuse story; the per-fact
   *.computed counters prove single-pass behaviour (a supervised sweep must
   report exactly one analysis.topo.computed).  Counter handles are resolved
   per event: the events are rare once memoized, and with the default null
   sink the lookup is a single pattern match. *)

let count name =
  Obs.Metrics.incr (Obs.Metrics.counter (Obs.Hooks.metrics ()) name)

let cache_hit () = count "analysis.cache.hit"
let cache_miss () = count "analysis.cache.miss"

(* Double-checked memoization: the fast path is one atomic load; the slow
   path computes under [t.lock].  [compute] must not re-enter another
   memoized accessor of the same circuit (the lock is not reentrant) —
   derived facts fetch their inputs before calling [memoize]. *)
let memoize t cell ~computed compute =
  match Atomic.get cell with
  | Some v ->
    cache_hit ();
    v
  | None ->
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
    (match Atomic.get cell with
    | Some v ->
      cache_hit ();
      v
    | None ->
      let v = compute () in
      cache_miss ();
      count computed;
      Atomic.set cell (Some v);
      v)

(* The one topological sort of the circuit's life.  Not metered as a direct
   call: this is the context-internal accessor Analysis pulls from;
   stragglers go through [topological_order] below. *)
let order_for_context t =
  memoize t t.topo ~computed:"analysis.topo.computed" (fun () ->
      Topo.sort_array t.graph)

(* Kept for compatibility; served from the same memo.  The extra counter
   makes call sites that still recompute-by-accessor (instead of pulling a
   shared Analysis context) visible in metrics output. *)
let topological_order t =
  count "analysis.topo.direct_calls";
  order_for_context t

let levels t =
  let order = order_for_context t in
  memoize t t.level_memo ~computed:"analysis.levels.computed" (fun () ->
      Topo.levels_from t.graph order)

let depth t =
  let lv = levels t in
  memoize t t.depth_memo ~computed:"analysis.depth.computed" (fun () ->
      Array.fold_left max 0 lv)

let reverse_csr t =
  memoize t t.rev_csr ~computed:"analysis.reverse_csr.computed" (fun () ->
      Csr.reverse t.csr)

(* Install externally-derived topo/levels (Analysis.apply_delta patches them
   from the pre-edit circuit) without a recompute and without bumping the
   *.computed counters — these facts were not computed here.  First writer
   wins; already-memoized cells are left untouched. *)
let seed_analysis_facts t ~order ~levels =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  if Atomic.get t.topo = None then Atomic.set t.topo (Some order);
  if Atomic.get t.level_memo = None then Atomic.set t.level_memo (Some levels);
  if Atomic.get t.depth_memo = None then
    Atomic.set t.depth_memo (Some (Array.fold_left max 0 levels))

(* Build-or-get for the analysis context.  [build] runs *outside* the lock
   (it reads the memoized facts above, which take it); if two domains race
   on the very first force, the loser's context is discarded — the winner's
   is the one every later caller sees. *)
let context_slot t build =
  match Atomic.get t.context with
  | Some c ->
    cache_hit ();
    c
  | None ->
    let c = build () in
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
    (match Atomic.get t.context with
    | Some c' -> c'
    | None ->
      cache_miss ();
      count "analysis.context.computed";
      Atomic.set t.context (Some c);
      c)

(* Construction, with no validation beyond indices.  [index] maps each
   name to its node id (Builder hands over the table it interned names
   into); the circuit owns it from here on. *)
let make_indexed ~name ~nodes ~names ~index ~inputs ~outputs ~ffs =
  let n = Array.length nodes in
  assert (Array.length names = n);
  (* Consumers are consed from the last node down, so each list comes out
     in node order without a reversal pass: a rewrite builds a circuit per
     edit, and every list cell here is long-lived. *)
  let succ = Array.make n [] in
  for v = n - 1 downto 0 do
    match nodes.(v) with
    | Gate { fanins; _ } ->
      for k = 0 to Array.length fanins - 1 do
        let u = fanins.(k) in
        succ.(u) <- v :: succ.(u)
      done
    | Input | Ff _ -> ()
  done;
  let graph = Digraph.of_successors succ (* takes [succ] over *) in
  (* Built eagerly (not lazily) so engines created before a domain fan-out
     can hand the view to every worker without a racy first force. *)
  let csr = Csr.of_graph graph in
  {
    name;
    nodes;
    names;
    index;
    inputs;
    outputs;
    ffs;
    graph;
    csr;
    lock = Mutex.create ();
    topo = Atomic.make None;
    level_memo = Atomic.make None;
    depth_memo = Atomic.make None;
    rev_csr = Atomic.make None;
    context = Atomic.make None;
  }

let make ~name ~nodes ~names ~inputs ~outputs ~ffs =
  make_indexed ~name ~nodes ~names ~index:(Name_table.of_names names) ~inputs ~outputs ~ffs

let pp ppf t =
  Fmt.pf ppf "@[<v>circuit %S: %d nodes (%d PI, %d PO, %d FF, %d gates)@]" t.name
    (node_count t) (input_count t) (output_count t) (ff_count t) (gate_count t)
