(* Incremental re-analysis after a Transform edit.

   A whole-circuit sweep is a per-site computation: site s's result depends
   only on s's forward cone (gate kinds and wiring on the cone, signal
   probabilities of the cone's side inputs) and on which observation points
   the cone reaches.  After an edit, a site whose dependencies all survived
   bit-identically does not need re-analysis — its pre-edit result can be
   handed to the whole-circuit supervised sweep as a held entry under the
   id remap, and the sweep only runs over the dirty complement.

   Dirty geometry (per new node), one [Delta.backward_dirty] pass per
   circuit from the union of these seeds:
   - the edit: the site's cone, in either circuit, intersects a touched,
     added or removed node, so its wiring may have changed (the old side
     catches paths the edit severed);
   - signal-probability seeds: where sp(w) changed bit-for-bit, sites
     reaching [w] (whose site-initialization uses sp) or any consumer of
     [w] (whose Table-1 rules read sp(w) as a side input) are dirty;
   - observation seeds: where position [i] of the observation list observes
     a different net than before, sites reaching either net are dirty.
   The last two are planted in the new circuit only: a site whose old path
   to such a net did not survive the edit is already dirty by the first.

   When the observation interfaces are incompatible (different length, a
   kind flip at some position, or an FF observation whose flip-flop does
   not map) no position-wise reuse is meaningful and the plan degrades to
   a full sweep.

   Reuse exactness: for a clean site every cone gate is an untouched
   survivor, every sp it reads is bit-equal, and every reached observation
   keeps its position, so the per-site pass would recompute the exact same
   row — rows name observations by position and carry no site id, so the
   prior entry itself is the post-edit one (property-tested against a cold
   full sweep in test_incremental.ml). *)

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
  (Epp_engine.create (Netlist.Delta.after d), how)

(* Position-wise observation compatibility: a reused row names its reached
   observations by position, which is only meaningful when every position
   keeps its kind (and, for FF observations, its flip-flop). *)
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
    (* A node and its consumers: the sites reaching either read its value.
       Seeds are planted in the new graph only (see Delta.backward_dirty):
       an old path to a seed's counterpart, or to a consumer of it, that
       the new graph lacks runs through a touched or removed node, which
       the edit's own old-side seeds cover. *)
    let seeds = ref [] in
    let seed v =
      seeds := v :: List.rev_append (Netlist.Circuit.fanouts c_new v) !seeds
    in
    let sp_old = (Epp_engine.signal_probabilities before).Sigprob.Sp.values in
    let sp_new = (Epp_engine.signal_probabilities after).Sigprob.Sp.values in
    for w = 0 to n_new - 1 do
      let v = old_of_new.(w) in
      if
        v >= 0
        && Int64.bits_of_float sp_old.(v) <> Int64.bits_of_float sp_new.(w)
      then seed w
    done;
    (* A moved observation seeds the net it observes now and the new
       counterpart of the net it observed (removed, that net is the edit's
       own seed). *)
    Array.iteri
      (fun i o ->
        let net_old = Netlist.Circuit.observation_net c_old o in
        let net_new = Netlist.Circuit.observation_net c_new obs_new.(i) in
        let moved_from = new_of_old.(net_old) in
        if moved_from <> net_new then begin
          seed net_new;
          if moved_from >= 0 then seed moved_from
        end)
      obs_old;
    let dirty = Netlist.Delta.backward_dirty ~seeds:!seeds d in
    { delta = d; dirty; dirty_count = Reach.count dirty; total = n_new; full = false }
  end

let sweep ?ctx ?domains ?batch_run ?deadline plan ~prior engine =
  if not (Epp_engine.circuit engine == Netlist.Delta.after plan.delta) then
    invalid_arg "Incremental.sweep: engine is not on the plan's after-circuit";
  let d = plan.delta in
  let old_of_new = Netlist.Delta.old_of_new d in
  let n_new = plan.total in
  let n_old = Array.length (Netlist.Delta.new_of_old d) in
  (* Arrays indexed by site id, not hash tables: a whole circuit's worth of
     entries is spliced on every edit. *)
  let prior_of = Array.make n_old None in
  List.iter
    (fun (site, entry) ->
      if site >= 0 && site < n_old then prior_of.(site) <- Some entry)
    prior;
  (* A clean site keeps its prior entry as it is: its row names reached
     observations by position, a plan that is not full keeps every
     position's kind, and a site reaching a position whose net moved is
     dirty.  Everything else (dirty, no prior, or a quarantined prior) is
     left to the sweep. *)
  let spliced = ref [] and reused = ref 0 in
  for w = n_new - 1 downto 0 do
    let v = old_of_new.(w) in
    if (not plan.dirty.(w)) && v >= 0 then
      match prior_of.(v) with
      | Some (Supervisor.Analyzed _ as entry) ->
        spliced := (w, entry) :: !spliced;
        incr reused
      | Some (Supervisor.Quarantined _) | None -> ()
  done;
  let dirty = n_new - !reused in
  count "epp.incremental.dirty_sites" dirty;
  count "epp.incremental.clean_reused" !reused;
  set_gauge "epp.incremental.dirty_fraction"
    (if n_new = 0 then 0.0 else float_of_int dirty /. float_of_int n_new);
  Supervisor.sweep_all ?ctx ?domains ?batch_run ?deadline ~prior:!spliced
    engine
