(* Incremental re-analysis after a Transform edit.

   A whole-circuit sweep is a per-site computation: site s's result depends
   only on s's forward cone (gate kinds and wiring on the cone, signal
   probabilities of the cone's side inputs) and on which observation points
   the cone reaches.  After an edit, a site whose dependencies all survived
   bit-identically does not need re-analysis — its pre-edit result can be
   spliced into the new outcome under the id remap, and the supervised
   sweep only runs over the dirty complement.

   Dirty geometry (per new node, evaluated over BOTH circuits — the old
   side catches paths the edit severed):
   - [Delta.backward_dirty]: the site's cone intersects a touched, added or
     removed node, so its wiring may have changed;
   - signal-probability seeds: where sp(w) changed bit-for-bit, sites
     reaching [w] (whose site-initialization uses sp) or any consumer of
     [w] (whose Table-1 rules read sp(w) as a side input) are dirty;
   - observation seeds: where position [i] of the observation list observes
     a different net than before, sites reaching either net are dirty.

   When the observation interfaces are incompatible (different length, a
   kind flip at some position, or an FF observation whose flip-flop does
   not map) no per-observation splice is meaningful and the plan degrades
   to a full sweep.

   Splice exactness: for a clean site every cone gate is an untouched
   survivor, every sp it reads is bit-equal, and every reached observation
   maps position-for-position, so the per-site pass would recompute the
   exact same floats — copying them is bit-identical (property-tested
   against a cold full sweep in test_incremental.ml). *)

let count name n =
  Obs.Metrics.add (Obs.Metrics.counter (Obs.Hooks.metrics ()) name) n

let set_gauge name v =
  Obs.Metrics.set_gauge (Obs.Metrics.gauge (Obs.Hooks.metrics ()) name) v

type plan = {
  delta : Netlist.Delta.t;
  dirty : bool array;  (* per new node id *)
  dirty_count : int;
  total : int;
  full : bool;  (* observation interfaces incompatible: everything dirty *)
}

let delta plan = plan.delta
let dirty plan = plan.dirty
let dirty_count plan = plan.dirty_count
let total plan = plan.total
let is_full plan = plan.full

let dirty_fraction plan =
  if plan.total = 0 then 0.0
  else float_of_int plan.dirty_count /. float_of_int plan.total

let rebase engine d =
  let ctx = Epp_engine.analysis engine in
  let _ctx, how = Netlist.Analysis.apply_delta ctx d in
  (* The fresh engine picks the patched (or rebuilt) context back up via
     Analysis.get; sp is recomputed from scratch — the sequential fixpoint
     is a global computation, and bit-comparing old vs new values is what
     the planner uses to bound the damage. *)
  let engine' =
    Epp_engine.create ~mode:(Epp_engine.mode engine)
      ~restrict_to_cone:(Epp_engine.restrict_to_cone engine)
      (Netlist.Delta.after d)
  in
  (engine', how)

(* Position-wise observation compatibility: the per-observation lists of a
   spliced result are remapped by position, which is only meaningful when
   every position keeps its kind (and, for FF observations, its flip-flop). *)
let observations_compatible ~obs_old ~obs_new ~new_of_old =
  Array.length obs_old = Array.length obs_new
  &&
  let ok = ref true in
  Array.iteri
    (fun i o ->
      match (o, obs_new.(i)) with
      | Netlist.Circuit.Po _, Netlist.Circuit.Po _ -> ()
      | Netlist.Circuit.Ff_data f_old, Netlist.Circuit.Ff_data f_new ->
        if new_of_old.(f_old) <> f_new then ok := false
      | _ -> ok := false)
    obs_old;
  !ok

let plan ~before ~after d =
  if not (Epp_engine.circuit before == Netlist.Delta.before d) then
    invalid_arg "Incremental.plan: before-engine is not on the delta's before-circuit";
  if not (Epp_engine.circuit after == Netlist.Delta.after d) then
    invalid_arg "Incremental.plan: after-engine is not on the delta's after-circuit";
  let c_old = Netlist.Delta.before d in
  let c_new = Netlist.Delta.after d in
  let n_new = Netlist.Circuit.node_count c_new in
  let new_of_old = Netlist.Delta.new_of_old d in
  let old_of_new = Netlist.Delta.old_of_new d in
  let obs_old = Array.of_list (Netlist.Circuit.observations c_old) in
  let obs_new = Array.of_list (Netlist.Circuit.observations c_new) in
  if not (observations_compatible ~obs_old ~obs_new ~new_of_old) then
    {
      delta = d;
      dirty = Array.make n_new true;
      dirty_count = n_new;
      total = n_new;
      full = true;
    }
  else begin
    let base = Netlist.Delta.backward_dirty d in
    let seeds_new = ref [] in
    let seeds_old = ref [] in
    let seed_new w =
      seeds_new := w :: !seeds_new;
      List.iter (fun g -> seeds_new := g :: !seeds_new) (Netlist.Circuit.fanouts c_new w)
    in
    let seed_old v =
      seeds_old := v :: !seeds_old;
      List.iter (fun g -> seeds_old := g :: !seeds_old) (Netlist.Circuit.fanouts c_old v)
    in
    let sp_old = (Epp_engine.signal_probabilities before).Sigprob.Sp.values in
    let sp_new = (Epp_engine.signal_probabilities after).Sigprob.Sp.values in
    for w = 0 to n_new - 1 do
      let v = old_of_new.(w) in
      if
        v >= 0
        && Int64.bits_of_float sp_old.(v) <> Int64.bits_of_float sp_new.(w)
      then begin
        seed_new w;
        seed_old v
      end
    done;
    Array.iteri
      (fun i o ->
        let net_old = Netlist.Circuit.observation_net c_old o in
        let net_new = Netlist.Circuit.observation_net c_new obs_new.(i) in
        if new_of_old.(net_old) <> net_new then begin
          seed_new net_new;
          seed_old net_old
        end)
      obs_old;
    let extra_new = Reach.backward_set (Netlist.Circuit.graph c_new) !seeds_new in
    let extra_old = Reach.backward_set (Netlist.Circuit.graph c_old) !seeds_old in
    let dirty = Array.make n_new false in
    let dirty_count = ref 0 in
    for w = 0 to n_new - 1 do
      let v = old_of_new.(w) in
      let is_dirty =
        base.(w) || extra_new.(w) || (v >= 0 && extra_old.(v))
      in
      dirty.(w) <- is_dirty;
      if is_dirty then incr dirty_count
    done;
    { delta = d; dirty; dirty_count = !dirty_count; total = n_new; full = false }
  end

(* Remap one pre-edit analyzed result onto the post-edit circuit.  The
   per-observation constructors are translated by list position (the
   compatibility check above guarantees positions align): [po_map] and
   [ff_map], indexed by the pre-edit node an observation names, hold its
   post-edit twin.  Floats are copied bit-for-bit. *)
let splice_result ~po_map ~ff_map ~new_of_old (r : Epp_engine.site_result) =
  let remap = function
    | Netlist.Circuit.Po v when v < Array.length po_map -> po_map.(v)
    | Netlist.Circuit.Ff_data ff when ff < Array.length ff_map -> ff_map.(ff)
    | Netlist.Circuit.Po _ | Netlist.Circuit.Ff_data _ -> None
  in
  {
    r with
    Epp_engine.site = new_of_old.(r.Epp_engine.site);
    per_observation =
      List.map
        (fun (o, p) ->
          match remap o with Some o' -> (o', p) | None -> raise Exit)
        r.Epp_engine.per_observation;
  }

let sweep ?ctx ?domains ?tolerance ?chunk_size ?on_chunk ?batch ?batch_run
    ?kernel ?reference ?deadline plan ~prior engine =
  if not (Epp_engine.circuit engine == Netlist.Delta.after plan.delta) then
    invalid_arg "Incremental.sweep: engine is not on the plan's after-circuit";
  let d = plan.delta in
  let new_of_old = Netlist.Delta.new_of_old d in
  let old_of_new = Netlist.Delta.old_of_new d in
  let n_new = plan.total in
  let n_old = Array.length new_of_old in
  let po_map = Array.make n_old None and ff_map = Array.make n_old None in
  if not plan.full then begin
    let obs_old = Array.of_list (Netlist.Circuit.observations (Netlist.Delta.before d)) in
    let obs_new = Array.of_list (Netlist.Circuit.observations (Netlist.Delta.after d)) in
    Array.iteri
      (fun i o ->
        match o with
        | Netlist.Circuit.Po v -> po_map.(v) <- Some obs_new.(i)
        | Netlist.Circuit.Ff_data ff -> ff_map.(ff) <- Some obs_new.(i))
      obs_old
  end;
  (* Arrays indexed by site id, not hash tables: a whole circuit's worth of
     entries is spliced on every edit. *)
  let prior_of = Array.make n_old None in
  List.iter
    (fun (site, entry) ->
      if site >= 0 && site < n_old then prior_of.(site) <- Some entry)
    prior;
  (* Splice what we can; everything else (dirty, no prior, quarantined
     prior, or a failed observation remap) goes to the supervised sweep. *)
  let entry_of = Array.make n_new None in
  let reused_count = ref 0 in
  let to_sweep = ref [] in
  for w = n_new - 1 downto 0 do
    let v = old_of_new.(w) in
    let reused =
      (not plan.dirty.(w)) && v >= 0
      &&
      match prior_of.(v) with
      | Some (Supervisor.Analyzed { result; step }) -> (
        match splice_result ~po_map ~ff_map ~new_of_old result with
        | r ->
          entry_of.(w) <- Some (Supervisor.Analyzed { result = r; step });
          incr reused_count;
          true
        | exception Exit -> false)
      | Some (Supervisor.Quarantined _) | None -> false
    in
    if not reused then to_sweep := w :: !to_sweep
  done;
  let to_sweep = !to_sweep in
  let swept =
    Supervisor.sweep ?ctx ?domains ?tolerance ?chunk_size ?on_chunk ?batch
      ?batch_run ?kernel ?reference ?deadline engine to_sweep
  in
  List.iter
    (fun (site, entry) -> entry_of.(site) <- Some entry)
    swept.Supervisor.entries;
  let entries = ref [] in
  for w = n_new - 1 downto 0 do
    match entry_of.(w) with
    | Some entry -> entries := (w, entry) :: !entries
    | None -> () (* deadline expired before this site started *)
  done;
  let entries = !entries in
  let reused_count = !reused_count in
  count "epp.incremental.dirty_sites" (List.length to_sweep);
  count "epp.incremental.clean_reused" reused_count;
  set_gauge "epp.incremental.dirty_fraction"
    (if n_new = 0 then 0.0
     else float_of_int (List.length to_sweep) /. float_of_int n_new);
  {
    Supervisor.entries;
    stats = Supervisor.stats_of_entries ~resumed:reused_count entries;
    completion = swept.Supervisor.completion;
  }
