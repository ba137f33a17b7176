(* The shared circuit-analysis context.

   Every engine in the pipeline needs the same handful of structural facts —
   a topological order, its inverse permutation, the gates-only order, the
   observation-point arrays, forward-reach cones, distance maps — and until
   this module existed each of them recomputed its own copy per run (or, for
   cones and distances, once per site).  The context computes each fact once
   per circuit and serves the shared instance:

   - whole-graph facts (order, positions, gate order, observation arrays,
     max fanin) are assembled once, on first [get], from the circuit's own
     memoized accessors;
   - per-site artifacts (forward cones, per-observation-point BFS distance
     maps) sit behind bounded LRU caches keyed by node id, so interleaved
     engines (a supervised sweep runs SP, EPP and ranking over one circuit)
     and repeated queries (test generation fault-simulating the same sites
     under many vectors) reuse instead of re-traversing.

   Ownership/aliasing contract (DESIGN.md §11): everything returned here is
   the cached instance, immutable by contract.  Engines must treat the
   arrays as read-only; a writer would corrupt every other consumer of the
   circuit.  The caches are mutex-protected and the whole-graph arrays are
   written once before publication, so a context is safe to share across
   domains — build it (or the engine owning it) before fanning out.

   Reuse is observable: [analysis.cache.hit] / [analysis.cache.miss] count
   every served-from-cache vs computed fact (including the circuit-level
   memos), and [analysis.*.computed] counters prove single-pass behaviour. *)

let count name =
  Obs.Metrics.incr (Obs.Metrics.counter (Obs.Hooks.metrics ()) name)

let cache_hit () = count "analysis.cache.hit"
let cache_miss () = count "analysis.cache.miss"

(* Bounded LRU keyed by a small int (node id).  Lookup and insert run under
   the cache mutex, including the compute of a missing entry: the payloads
   are whole-graph traversals, so serializing rare concurrent misses is
   cheaper than ever computing one twice.  Eviction scans for the oldest
   stamp — O(capacity), trivial next to the traversal it replaces. *)
module Lru = struct
  type 'a entry = { mutable stamp : int; value : 'a }

  type 'a t = {
    capacity : int;
    table : (int, 'a entry) Hashtbl.t;
    mutable tick : int;
    lock : Mutex.t;
  }

  let create capacity =
    {
      capacity = max 1 capacity;
      table = Hashtbl.create 64;
      tick = 0;
      lock = Mutex.create ();
    }

  let evict_oldest t =
    let victim = ref (-1) in
    let oldest = ref max_int in
    Hashtbl.iter
      (fun key e ->
        if e.stamp < !oldest then begin
          oldest := e.stamp;
          victim := key
        end)
      t.table;
    if !victim >= 0 then Hashtbl.remove t.table !victim

  let find_or_compute t key compute =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
    t.tick <- t.tick + 1;
    match Hashtbl.find_opt t.table key with
    | Some e ->
      e.stamp <- t.tick;
      cache_hit ();
      e.value
    | None ->
      let value = compute () in
      cache_miss ();
      if Hashtbl.length t.table >= t.capacity then evict_oldest t;
      Hashtbl.replace t.table key { stamp = t.tick; value };
      value
end

type t = {
  circuit : Circuit.t;
  order : int array;  (* one topological order, all nodes *)
  position : int array;  (* position.(v) = index of v in order *)
  gate_order : int array;  (* gates only, topological *)
  observations : (Circuit.observation * int) array;  (* (obs, observed net) *)
  observation_nets : int array;  (* the nets, same order *)
  max_fanin : int;
  cones : bool array Lru.t;  (* site -> forward-reach marks *)
  fanin_cones : bool array Lru.t;  (* net -> backward-reach marks *)
  distance_maps : int array Lru.t;  (* obs net -> reverse-BFS distances *)
  level_gates : int array array option Atomic.t;
      (* gates bucketed by ASAP level, memoized on first demand *)
  max_fanout_level : int array option Atomic.t;
      (* per node, the highest ASAP level among its fanouts, memoized *)
  level_offsets : int array option Atomic.t;
      (* per level, the nodes at lower levels, memoized *)
  observed : bool array option Atomic.t;  (* observation-net mask, memoized *)
}

(* Cache bounds.  A cone is [node_count] bools, so the cone cache tops out
   at 256 * node_count bytes — a few MB on the largest ISCAS'89 profiles —
   and recomputes on evict beyond that.  The distance cache instead scales
   with the circuit's observation count: the electrical-masking path scans a
   site's reached observations in a fixed order, and a cache smaller than
   that working set would evict every map right before its reuse (cyclic
   scans are LRU's worst case), costing one BFS per (site, observation)
   pair — worse than the per-site BFS it replaces.  Sized to the observation
   count, each map is computed exactly once: O(obs · E) total. *)
let cone_cache_capacity = 256
let distance_cache_floor = 64

type Circuit.context += Context of t

let build circuit =
  let order = Circuit.order_for_context circuit in
  let n = Circuit.node_count circuit in
  let position = Array.make n 0 in
  Array.iteri (fun i v -> position.(v) <- i) order;
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
  let max_fanin = ref 1 in
  for v = 0 to n - 1 do
    max_fanin := max !max_fanin (Array.length (Circuit.fanins circuit v))
  done;
  {
    circuit;
    order;
    position;
    gate_order;
    observations;
    observation_nets;
    max_fanin = !max_fanin;
    cones = Lru.create cone_cache_capacity;
    fanin_cones =
      (* Keyed by observation net in the certified exact tier, so size it
         like the distance cache: a smaller cache would evict every cone
         right before the next site reuses it. *)
      Lru.create (max distance_cache_floor (Array.length observation_nets));
    distance_maps =
      Lru.create (max distance_cache_floor (Array.length observation_nets));
    level_gates = Atomic.make None;
    max_fanout_level = Atomic.make None;
    level_offsets = Atomic.make None;
    observed = Atomic.make None;
  }

let get circuit =
  match Circuit.context_slot circuit (fun () -> Context (build circuit)) with
  | Context ctx -> ctx
  | _ -> assert false (* the slot only ever holds our constructor *)

let circuit t = t.circuit
let order t = t.order
let position t = t.position
let gate_order t = t.gate_order
let observations t = t.observations
let observation_nets t = t.observation_nets
let max_fanin t = t.max_fanin

(* Delegates to the circuit-level memos (same cache counters). *)
let levels t = Circuit.levels t.circuit
let depth t = Circuit.depth t.circuit
let csr t = Circuit.csr t.circuit
let reverse_csr t = Circuit.reverse_csr t.circuit

(* Publish-once memo for the derived whole-graph facts below: racing
   domains may both compute, but only the published instance is ever
   served, so the shared-instance contract holds. *)
let publish_once cell ~computed compute =
  match Atomic.get cell with
  | Some fact ->
    cache_hit ();
    fact
  | None ->
    let fact = compute () in
    if Atomic.compare_and_set cell None (Some fact) then begin
      count computed;
      cache_miss ();
      fact
    end
    else begin
      cache_hit ();
      match Atomic.get cell with
      | Some published -> published
      | None -> assert false (* the cell is set-once *)
    end

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
   One pass over the forward CSR. *)
let max_fanout_level t =
  publish_once t.max_fanout_level ~computed:"analysis.max_fanout_level.computed"
  @@ fun () ->
  let lv = levels t in
  let csr = csr t in
  let offsets = Csr.offsets csr and targets = Csr.targets csr in
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
  let mask = Array.make (Circuit.node_count t.circuit) false in
  Array.iter (fun v -> mask.(v) <- true) t.observation_nets;
  mask

let check_node t v ~what =
  if v < 0 || v >= Circuit.node_count t.circuit then
    invalid_arg (Printf.sprintf "Analysis.%s: bad node %d" what v)

let cone t site =
  check_node t site ~what:"cone";
  Lru.find_or_compute t.cones site (fun () ->
      count "analysis.cones.computed";
      Reach.forward_csr (Circuit.csr t.circuit) site)

let fanin_cone t net =
  check_node t net ~what:"fanin_cone";
  (* Backward reachability = forward reachability over the reverse CSR.
     Keyed by observation net, these are shared by every site whose forward
     cone reaches that net — the support-extraction step of the certified
     exact tier. *)
  let rev = Circuit.reverse_csr t.circuit in
  Lru.find_or_compute t.fanin_cones net (fun () ->
      count "analysis.fanin_cones.computed";
      Reach.forward_csr rev net)

let distances_to t target =
  check_node t target ~what:"distances_to";
  (* One backward BFS per *target* (observation net) replaces one forward
     BFS per *site*: sites outnumber observation points by orders of
     magnitude, and the map answers every site's depth query at once. *)
  let rev = Circuit.reverse_csr t.circuit in
  Lru.find_or_compute t.distance_maps target (fun () ->
      count "analysis.distance_maps.computed";
      Bfs.distances_csr rev target)

let reached_observations t site =
  let in_cone = cone t site in
  let acc = ref [] in
  for i = Array.length t.observations - 1 downto 0 do
    let (obs, net) = t.observations.(i) in
    if in_cone.(net) then acc := obs :: !acc
  done;
  !acc

(* --- incremental patching across a Transform edit ------------------------

   [apply_delta] carries a context across an edit instead of throwing it
   away: the pre-edit topological order is patched onto the post-edit
   circuit when the edit is order-preserving, levels are re-derived from
   the patched order, and the per-site LRU entries whose geometry provably
   did not change are migrated under the id remap.  Everything else (the
   dirty cones, the level buckets) rebuilds lazily on demand.

   Validity arguments for the migrations, in terms of Delta's dirty sets:
   - a cone entry for a surviving site [w] outside [backward_dirty] is the
     exact image of the old cone: no node of the old cone was removed (the
     site would be old-side backward-dirty), and no added node joins the
     new cone (the site would be new-side backward-dirty);
   - a distance map for a surviving observation net [w] outside
     [forward_dirty] is exact: every node on every path into [w] is an
     untouched survivor (a touched/removed/added node on such a path would
     make [w] forward-dirty on one side), and added nodes cannot reach [w],
     so they keep [Bfs.unreachable]. *)

exception Order_patch_failed

(* Patch the old order onto the new circuit: survivors keep their old
   relative order; each added node is placed on demand, right before its
   first consumer (recursing through added fanins only — an unplaced
   *surviving* fanin means the edit reordered survivors, so we bail to a
   full rebuild).  A final O(V+E) edge check backstops the construction. *)
let patch_order ~old_order d =
  let after = Delta.after d in
  let new_of_old = Delta.new_of_old d in
  let old_of_new = Delta.old_of_new d in
  let n_new = Circuit.node_count after in
  let out = Array.make n_new 0 in
  let cursor = ref 0 in
  let placed = Array.make n_new false in
  let in_progress = Array.make n_new false in
  let emit w =
    placed.(w) <- true;
    out.(!cursor) <- w;
    incr cursor
  in
  let rec require u =
    if not placed.(u) then
      if old_of_new.(u) >= 0 then raise Order_patch_failed
      else place_added u
  and place_added u =
    if in_progress.(u) then raise Order_patch_failed;
    in_progress.(u) <- true;
    require_fanins u;
    in_progress.(u) <- false;
    emit u
  and require_fanins u =
    match Circuit.node after u with
    | Circuit.Gate { fanins; _ } -> Array.iter require fanins
    | Circuit.Input | Circuit.Ff _ -> ()
  in
  Array.iter
    (fun v ->
      let w = new_of_old.(v) in
      if w >= 0 then begin
        require_fanins w;
        emit w
      end)
    old_order;
  for u = 0 to n_new - 1 do
    if not placed.(u) then place_added u (* added nodes nothing consumes *)
  done;
  assert (!cursor = n_new);
  let pos = Array.make n_new 0 in
  Array.iteri (fun i v -> pos.(v) <- i) out;
  for w = 0 to n_new - 1 do
    match Circuit.node after w with
    | Circuit.Gate { fanins; _ } ->
      Array.iter (fun u -> if pos.(u) >= pos.(w) then raise Order_patch_failed) fanins
    | Circuit.Input | Circuit.Ff _ -> ()
  done;
  out

(* Migrate the LRU entries that stay valid, remapping ids.  Stamps restart
   from zero — relative recency within the survivors is noise next to the
   traversals saved. *)
let migrate_cones ~old_cones ~dirty d =
  let fresh = Lru.create old_cones.Lru.capacity in
  let new_of_old = Delta.new_of_old d in
  let old_of_new = Delta.old_of_new d in
  let n_new = Circuit.node_count (Delta.after d) in
  Mutex.lock old_cones.Lru.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock old_cones.Lru.lock) @@ fun () ->
  Hashtbl.iter
    (fun old_site (e : bool array Lru.entry) ->
      let w = if old_site < Array.length new_of_old then new_of_old.(old_site) else -1 in
      if w >= 0 && not dirty.(w) then begin
        let marks = Array.make n_new false in
        for x = 0 to n_new - 1 do
          let v = old_of_new.(x) in
          if v >= 0 && e.Lru.value.(v) then marks.(x) <- true
        done;
        fresh.Lru.tick <- fresh.Lru.tick + 1;
        Hashtbl.replace fresh.Lru.table w { Lru.stamp = fresh.Lru.tick; value = marks }
      end)
    old_cones.Lru.table;
  fresh

let migrate_distances ~old_maps ~dirty d =
  let fresh = Lru.create old_maps.Lru.capacity in
  let new_of_old = Delta.new_of_old d in
  let old_of_new = Delta.old_of_new d in
  let n_new = Circuit.node_count (Delta.after d) in
  Mutex.lock old_maps.Lru.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock old_maps.Lru.lock) @@ fun () ->
  Hashtbl.iter
    (fun old_net (e : int array Lru.entry) ->
      let w = if old_net < Array.length new_of_old then new_of_old.(old_net) else -1 in
      if w >= 0 && not dirty.(w) then begin
        let dist = Array.make n_new Bfs.unreachable in
        for x = 0 to n_new - 1 do
          let v = old_of_new.(x) in
          if v >= 0 then dist.(x) <- e.Lru.value.(v)
        done;
        fresh.Lru.tick <- fresh.Lru.tick + 1;
        Hashtbl.replace fresh.Lru.table w { Lru.stamp = fresh.Lru.tick; value = dist }
      end)
    old_maps.Lru.table;
  fresh

let apply_delta t d =
  if not (Delta.before d == t.circuit) then
    invalid_arg "Analysis.apply_delta: delta's before-circuit is not this context's";
  if Delta.after d == t.circuit then (t, `Patched) (* no-op edit, nothing to do *)
  else begin
    let after = Delta.after d in
    match patch_order ~old_order:t.order d with
    | exception Order_patch_failed ->
      count "analysis.incremental.rebuilt";
      (get after, `Rebuilt)
    | order ->
      count "analysis.incremental.patched";
      let levels = Topo.levels_from (Circuit.graph after) order in
      Circuit.seed_analysis_facts after ~order ~levels;
      let fresh = build after in
      let fresh =
        {
          fresh with
          cones = migrate_cones ~old_cones:t.cones ~dirty:(Delta.backward_dirty d) d;
          distance_maps =
            migrate_distances ~old_maps:t.distance_maps
              ~dirty:(Delta.forward_dirty d) d;
        }
      in
      let installed =
        match Circuit.context_slot after (fun () -> Context fresh) with
        | Context ctx -> ctx
        | _ -> assert false
      in
      (installed, `Patched)
  end
