(* The shared circuit-analysis context.

   Every engine in the pipeline needs the same handful of structural facts —
   a topological order, its inverse permutation, the gates-only order, the
   observation-point arrays, distance maps — and until this module existed
   each of them recomputed its own copy per run (or, for distances, once
   per site).  The context computes each fact once per circuit and serves
   the shared instance:

   - whole-graph facts (order, gate order, observation arrays) are
     assembled once, on first [get]: Builder.freeze calls it, so the sort
     that validates a parsed or generated circuit is its order, and a
     circuit made by id (an edit) is sorted on first use; levels, depth,
     the batch engine's layouts and the cone searches' ranking are
     computed on first demand and published once;
   - per-observation-point BFS distance maps are memoized by net, each a
     whole-graph search that answers every site's depth query at once;
   - cones are not kept: a cone is the array of its members in topological
     order, found by a search that costs the cone, not the circuit
     (Reach.forward_cone), and each call searches afresh and hands its
     caller the array.

   Ownership/aliasing contract (DESIGN.md §11): every memoized fact
   returned here is the shared instance, immutable by contract.  Engines
   must treat those arrays as read-only; a writer would corrupt every other
   consumer of the circuit.  The distance memo is mutex-protected and the
   whole-graph arrays are written once before publication, so a context is
   safe to share across domains — build it (or the engine owning it)
   before fanning out.  Each circuit has its own context.

   Reuse is observable: [analysis.cache.hit] / [analysis.cache.miss] count
   every served-from-memo vs computed fact, and [analysis.*.computed]
   counters prove single-pass behaviour (one [analysis.topo.computed] per
   circuit, whatever runs on it). *)

let count name =
  Obs.Metrics.incr (Obs.Metrics.counter (Obs.Hooks.metrics ()) name)

let cache_hit () = count "analysis.cache.hit"
let cache_miss () = count "analysis.cache.miss"

type t = {
  circuit : Circuit.t;
  order : int array;  (* one topological order, all nodes *)
  gate_order : int array;  (* gates only, topological *)
  observations : (Circuit.observation * int) array;  (* (obs, observed net) *)
  observation_nets : int array;  (* the nets, same order *)
  distance_maps : (int, int array) Hashtbl.t;  (* obs net -> reverse-BFS distances *)
  distance_lock : Mutex.t;  (* guards [distance_maps], held while one is computed *)
  ranking : Reach.ranking option Atomic.t;
      (* [order], its inverse and the cone searches' marks, memoized *)
  levels : int array option Atomic.t;  (* ASAP levels, memoized *)
  depth : int option Atomic.t;  (* the largest level, memoized *)
  level_gates : int array array option Atomic.t;
      (* gates bucketed by ASAP level, memoized on first demand *)
  max_fanout_level : int array option Atomic.t;
      (* per node, the highest ASAP level among its fanouts, memoized *)
  level_offsets : int array option Atomic.t;
      (* per level, the nodes at lower levels, memoized *)
  observed : Bytes.t option Atomic.t;  (* observation-net byte mask, memoized *)
}

type Circuit.context += Context of t

let computed name =
  count name;
  cache_miss ()

(* Publish-once memo for every derived fact of a circuit, the context
   itself included: racing domains may both compute, but only the published
   instance is ever served, so the shared-instance contract holds. *)
let publish_once cell ~computed:name compute =
  match Atomic.get cell with
  | Some fact ->
    cache_hit ();
    fact
  | None ->
    let fact = compute () in
    if Atomic.compare_and_set cell None (Some fact) then begin
      computed name;
      fact
    end
    else begin
      cache_hit ();
      match Atomic.get cell with
      | Some published -> published
      | None -> assert false (* the cell is set-once *)
    end

(* The one topological sort of the circuit's life, and the context around
   it.  [Builder.freeze] runs it to prove a netlist acyclic; a circuit made
   by id (an edit) runs it on first use. *)
let build circuit =
  let order = Topo.sort_array (Circuit.graph circuit) in
  computed "analysis.topo.computed";
  let gate_order =
    let acc = ref [] in
    for i = Array.length order - 1 downto 0 do
      let v = order.(i) in
      if Circuit.is_gate circuit v then acc := v :: !acc
    done;
    Array.of_list !acc
  in
  let observations =
    Circuit.observations circuit
    |> List.map (fun o -> (o, Circuit.observation_net circuit o))
    |> Array.of_list
  in
  let observation_nets = Array.map snd observations in
  {
    circuit;
    order;
    gate_order;
    observations;
    observation_nets;
    distance_maps = Hashtbl.create 16;
    distance_lock = Mutex.create ();
    ranking = Atomic.make None;
    levels = Atomic.make None;
    depth = Atomic.make None;
    level_gates = Atomic.make None;
    max_fanout_level = Atomic.make None;
    level_offsets = Atomic.make None;
    observed = Atomic.make None;
  }

(* A sort that raises [Topo.Cycle] publishes nothing. *)
let get circuit =
  match
    publish_once (Circuit.context circuit) ~computed:"analysis.context.computed"
      (fun () -> Context (build circuit))
  with
  | Context ctx -> ctx
  | _ -> assert false (* the slot only ever holds our constructor *)

let circuit t = t.circuit
let order t = t.order
let gate_order t = t.gate_order
let observations t = t.observations
let observation_nets t = t.observation_nets
let csr t = Circuit.graph t.circuit

let ranking t =
  publish_once t.ranking ~computed:"analysis.ranking.computed" @@ fun () ->
  Reach.ranking (Circuit.graph t.circuit) ~order:t.order

let position t = Reach.position (ranking t)

let levels t =
  publish_once t.levels ~computed:"analysis.levels.computed" @@ fun () ->
  Topo.levels_from (Circuit.graph t.circuit) t.order

let depth t =
  publish_once t.depth ~computed:"analysis.depth.computed" @@ fun () ->
  Array.fold_left max 0 (levels t)

(* Gates bucketed by ASAP level — the evaluation schedule of the
   level-synchronous batch engine.  Filling the buckets from [gate_order]
   keeps each bucket in topological-position order, so a bucket walk is a
   valid topological schedule. *)
let level_gates t =
  publish_once t.level_gates ~computed:"analysis.level_gates.computed"
  @@ fun () ->
  let lv = levels t in
  let counts = Array.make (depth t + 1) 0 in
  Array.iter (fun g -> counts.(lv.(g)) <- counts.(lv.(g)) + 1) t.gate_order;
  let buckets = Array.map (fun k -> Array.make k 0) counts in
  let cursor = Array.make (Array.length counts) 0 in
  Array.iter
    (fun g ->
      let l = lv.(g) in
      buckets.(l).(cursor.(l)) <- g;
      cursor.(l) <- cursor.(l) + 1)
    t.gate_order;
  buckets

(* Per node, the highest ASAP level among its fanouts (its own level when it
   has none): once a level-order walk has evaluated that level, nothing
   reads the node again.  The batch engine frees a node's plane row there.
   One pass over the forward arrays. *)
let max_fanout_level t =
  publish_once t.max_fanout_level ~computed:"analysis.max_fanout_level.computed"
  @@ fun () ->
  let lv = levels t in
  let g = Circuit.graph t.circuit in
  let offsets = Digraph.offsets g and targets = Digraph.targets g in
  Array.init (Array.length lv) (fun v ->
      let m = ref lv.(v) in
      for j = offsets.(v) to offsets.(v + 1) - 1 do
        m := max !m lv.(targets.(j))
      done;
      !m)

(* Prefix sums of the per-level node counts: laid out level by level, the
   nodes of level [l] start at slot [level_offsets.(l)]. *)
let level_offsets t =
  publish_once t.level_offsets ~computed:"analysis.level_offsets.computed"
  @@ fun () ->
  let lv = levels t in
  let offsets = Array.make (depth t + 2) 0 in
  Array.iter (fun l -> offsets.(l + 1) <- offsets.(l + 1) + 1) lv;
  for l = 1 to Array.length offsets - 1 do
    offsets.(l) <- offsets.(l) + offsets.(l - 1)
  done;
  offsets

let observed t =
  publish_once t.observed ~computed:"analysis.observed.computed" @@ fun () ->
  let mask = Bytes.make (Circuit.node_count t.circuit) '\000' in
  Array.iter (fun v -> Bytes.set mask v '\001') t.observation_nets;
  mask

let check_node t v ~what =
  if v < 0 || v >= Circuit.node_count t.circuit then
    invalid_arg (Printf.sprintf "Analysis.%s: bad node %d" what v)

let cone t site =
  check_node t site ~what:"cone";
  Reach.forward_cone (ranking t) [ site ]

let fanin_cone t nets =
  List.iter (fun net -> check_node t net ~what:"fanin_cone") nets;
  (* The union over a site's reached observation nets is the support the
     certified exact tier builds over: one search from all of them, which
     costs the union rather than a pass over the circuit per net. *)
  Reach.backward_cone (ranking t) nets

let distances_to t target =
  check_node t target ~what:"distances_to";
  (* One backward BFS per *target* (observation net) replaces one forward
     BFS per *site*: sites outnumber observation points by orders of
     magnitude, and the map answers every site's depth query at once.
     A miss computes under the lock: serializing a rare concurrent miss is
     cheaper than running the whole-graph search twice. *)
  Mutex.lock t.distance_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.distance_lock) @@ fun () ->
  match Hashtbl.find_opt t.distance_maps target with
  | Some map ->
    cache_hit ();
    map
  | None ->
    let map = Bfs.distances (Digraph.reverse (Circuit.graph t.circuit)) target in
    computed "analysis.distance_maps.computed";
    Hashtbl.replace t.distance_maps target map;
    map

let reached_observations t members =
  let members = Reach.lookup ~position:(position t) members in
  let acc = ref [] in
  for i = Array.length t.observations - 1 downto 0 do
    let (obs, net) = t.observations.(i) in
    if Reach.find members net >= 0 then acc := obs :: !acc
  done;
  !acc

let apply_delta t d =
  if not (Delta.before d == t.circuit) then
    invalid_arg "Analysis.apply_delta: delta's before-circuit is not this context's";
  if Delta.after d == t.circuit then (t, `Patched) (* the identity edit *)
  else (get (Delta.after d), `Rebuilt)
