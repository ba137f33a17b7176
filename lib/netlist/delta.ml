(* A typed description of one Transform edit: which nodes changed, which
   vanished, which are new — the currency of incremental invalidation.

   Transforms preserve the names of surviving signals (the cleanups
   rebuild through Builder, the edits splice the new circuit by id), so
   the old<->new correspondence is name-based: a node survives iff its
   name exists on both sides.  Node ids shift freely across an edit
   (helper gates are interleaved), which is why every consumer of a delta
   works through [new_of_old] / [old_of_new] instead of comparing raw
   ids.

   "Touched" is an exact structural notion: a new node is touched iff it is
   added, or its definition differs from its old counterpart's up to the id
   remap — different node class, different gate kind, different fanin
   signals (by name, position-sensitive), or a flip-flop whose data net
   moved.  [structural_diff] computes that set from the two circuits alone
   and is the oracle the Transform-reported deltas are tested against. *)

type t = {
  before : Circuit.t;
  after : Circuit.t;
  new_of_old : int array;  (* old id -> new id, -1 when removed *)
  old_of_new : int array;  (* new id -> old id, -1 when added *)
  touched : int list;  (* new ids: added nodes + redefined survivors *)
  added : int list;  (* new ids with no old counterpart *)
  removed : int list;  (* old ids with no new counterpart *)
}

let before t = t.before
let after t = t.after
let new_of_old t = t.new_of_old
let old_of_new t = t.old_of_new
let touched t = t.touched
let added t = t.added
let removed t = t.removed

let is_identity t =
  t.touched = [] && t.removed = []
  && Circuit.node_count t.before = Circuit.node_count t.after

(* The name-based correspondence both constructors share.  Every Transform
   keeps the survivors in their relative order, so an old node's twin is
   usually the node right after the previous twin: a name comparison
   confirms that guess (names are unique) before the name index is
   consulted, and an edit pays a lookup only where it inserted or removed
   nodes. *)
let mapping ~before ~after =
  let n_old = Circuit.node_count before in
  let n_new = Circuit.node_count after in
  let new_of_old = Array.make n_old (-1) in
  let old_of_new = Array.make n_new (-1) in
  let guess = ref 0 in
  for v = 0 to n_old - 1 do
    let name = Circuit.node_name before v in
    let w =
      if !guess < n_new && String.equal (Circuit.node_name after !guess) name
      then !guess
      else Option.value ~default:(-1) (Circuit.find_opt after name)
    in
    if w >= 0 then begin
      new_of_old.(v) <- w;
      old_of_new.(w) <- v;
      guess := w + 1
    end
  done;
  (new_of_old, old_of_new)

(* Does new node [w]'s definition match old node [v]'s, up to the remap? *)
let same_definition ~before ~after ~new_of_old v w =
  match (Circuit.node before v, Circuit.node after w) with
  | Circuit.Input, Circuit.Input -> true
  | Circuit.Ff { data = d_old }, Circuit.Ff { data = d_new } ->
    new_of_old.(d_old) = d_new
  | Circuit.Gate { kind = k_old; fanins = f_old },
    Circuit.Gate { kind = k_new; fanins = f_new } ->
    k_old = k_new
    && Array.length f_old = Array.length f_new
    && (let ok = ref true in
        Array.iteri
          (fun i u -> if new_of_old.(u) <> f_new.(i) then ok := false)
          f_old;
        !ok)
  | _ -> false

let finish ~before ~after ~new_of_old ~old_of_new ~touched =
  let n_old = Array.length new_of_old in
  let n_new = Array.length old_of_new in
  let added = ref [] in
  for w = n_new - 1 downto 0 do
    if old_of_new.(w) < 0 then added := w :: !added
  done;
  let removed = ref [] in
  for v = n_old - 1 downto 0 do
    if new_of_old.(v) < 0 then removed := v :: !removed
  done;
  {
    before;
    after;
    new_of_old;
    old_of_new;
    touched;
    added = !added;
    removed = !removed;
  }

(* Normalize a touched set: sorted new ids, deduplicated, added nodes always
   included (an added node is by definition not its old self). *)
let normalize_touched ~old_of_new names_touched =
  let n_new = Array.length old_of_new in
  let mark = Array.make n_new false in
  List.iter (fun w -> if w >= 0 && w < n_new then mark.(w) <- true) names_touched;
  for w = 0 to n_new - 1 do
    if old_of_new.(w) < 0 then mark.(w) <- true
  done;
  let acc = ref [] in
  for w = n_new - 1 downto 0 do
    if mark.(w) then acc := w :: !acc
  done;
  !acc

let make ~before ~after ~touched:touched_names =
  let new_of_old, old_of_new = mapping ~before ~after in
  let ids =
    List.filter_map (Circuit.find_opt after) touched_names
  in
  let touched = normalize_touched ~old_of_new ids in
  finish ~before ~after ~new_of_old ~old_of_new ~touched

let structural_diff ~before ~after =
  let new_of_old, old_of_new = mapping ~before ~after in
  let n_new = Circuit.node_count after in
  let touched = ref [] in
  for w = n_new - 1 downto 0 do
    let v = old_of_new.(w) in
    if v < 0 || not (same_definition ~before ~after ~new_of_old v w) then
      touched := w :: !touched
  done;
  finish ~before ~after ~new_of_old ~old_of_new ~touched:!touched

let identity circuit =
  let n = Circuit.node_count circuit in
  {
    before = circuit;
    after = circuit;
    new_of_old = Array.init n Fun.id;
    old_of_new = Array.init n Fun.id;
    touched = [];
    added = [];
    removed = [];
  }

(* Structural dirty geometry for the incremental EPP planner.  The edit's
   old-side seeds are the removed nodes plus the old counterparts of
   touched survivors: reachability must be evaluated over BOTH graphs,
   because a removed edge breaks exactly the new-graph paths that used to
   connect a site to the change.  The caller's own seeds (new ids) ride
   along in the new graph's pass: reachability from a union of seeds is
   the union of the reachabilities.

   The caller's seeds need no old-side pass.  Take a new node [x] with an
   old counterpart, and an old path from a site to that counterpart that
   has no image in the new graph.  Then some node on it was removed, or
   reads a different fanin than before, which makes it touched; the site
   reaches that node in the old graph, and the edit's old-side seeds
   already cover it.  A path that does have an image reaches [x] itself.
   So seeding [x] in the new graph alone marks every site that seeding its
   counterpart in the old graph would. *)
let backward_dirty ?(seeds = []) t =
  let edit_old =
    List.filter_map
      (fun w ->
        let v = t.old_of_new.(w) in
        if v >= 0 then Some v else None)
      t.touched
  in
  let bwd_new = Reach.backward_set (Circuit.graph t.after) (List.rev_append seeds t.touched) in
  let bwd_old =
    Reach.backward_set (Circuit.graph t.before) (List.rev_append t.removed edit_old)
  in
  let n_new = Circuit.node_count t.after in
  let out = Array.make n_new false in
  for w = 0 to n_new - 1 do
    let v = t.old_of_new.(w) in
    out.(w) <- bwd_new.(w) || (v >= 0 && bwd_old.(v)) || v < 0
  done;
  out

let pp ppf t =
  Fmt.pf ppf "@[<h>delta %s -> %s: %d touched (%d added), %d removed@]"
    (Circuit.name t.before) (Circuit.name t.after) (List.length t.touched)
    (List.length t.added) (List.length t.removed)
