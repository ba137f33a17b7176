(* Netlist rewriting passes.

   Three classic cleanups plus the hardening transform the paper's
   conclusion motivates:

   - [propagate_constants]: fold CONST0/CONST1 through the logic
     (controlling values annihilate, non-controlling values drop out,
     XOR inputs at 1 toggle the gate's polarity);
   - [merge_duplicates]: structural hashing — gates with the same kind and
     the same (sorted, for commutative kinds) fanins collapse to one;
   - [sweep_unobservable]: delete logic outside the fan-in cones of every
     observation point;
   - [triplicate]: triple modular redundancy on selected gates with a
     2-of-3 majority voter, the standard soft-error hardening realization.

   All passes rebuild through Builder (so every invariant is re-validated)
   and preserve the names of surviving signals, which is how callers track
   nodes across a rewrite. *)

(* The resolved value of a node during constant folding. *)
type folded =
  | Const of bool
  | Alias of int (* same value as this (already resolved) node *)
  | Keep of Gate.kind * int array

let resolve_alias resolution v =
  let rec go v =
    match resolution.(v) with
    | Alias u -> go u
    | Const _ | Keep _ -> v
  in
  go v

(* Fold one gate given the folded values of its fanins.  Fanins are node
   ids already run through [resolve_alias]. *)
let fold_gate resolution kind fanins =
  let const_of u =
    match resolution.(u) with
    | Const b -> Some b
    | Alias _ | Keep _ -> None
  in
  let live = ref [] in
  let saw_controlling = ref false in
  let parity = ref false in
  let controlling =
    match Gate.controlling_value kind with
    | Some c -> c
    | None -> false (* unused for XOR-family / unary below *)
  in
  (match kind with
  | Gate.And | Gate.Nand | Gate.Or | Gate.Nor ->
    Array.iter
      (fun u ->
        match const_of u with
        | Some b -> if b = controlling then saw_controlling := true
        | None -> live := u :: !live)
      fanins
  | Gate.Xor | Gate.Xnor ->
    Array.iter
      (fun u ->
        match const_of u with
        | Some b -> if b then parity := not !parity
        | None -> live := u :: !live)
      fanins
  | Gate.Not | Gate.Buf | Gate.Const0 | Gate.Const1 ->
    Array.iter (fun u -> live := u :: !live) fanins);
  let live = Array.of_list (List.rev !live) in
  let inverted = Gate.inverting kind in
  match kind with
  | Gate.Const0 -> Const false
  | Gate.Const1 -> Const true
  | Gate.Buf -> (
    match const_of live.(0) with
    | Some b -> Const b
    | None -> Alias live.(0))
  | Gate.Not -> (
    match const_of live.(0) with
    | Some b -> Const (not b)
    | None -> Keep (Gate.Not, live))
  | Gate.And | Gate.Nand | Gate.Or | Gate.Nor ->
    if !saw_controlling then Const (controlling <> inverted)
    else if Array.length live = 0 then
      (* all inputs were non-controlling constants *)
      Const (not controlling <> inverted)
    else if Array.length live = 1 then
      if inverted then Keep (Gate.Not, live) else Alias live.(0)
    else Keep (kind, live)
  | Gate.Xor | Gate.Xnor ->
    let flip = !parity <> (kind = Gate.Xnor) in
    if Array.length live = 0 then Const flip
    else if Array.length live = 1 then
      if flip then Keep (Gate.Not, live) else Alias live.(0)
    else Keep ((if flip then Gate.Xnor else Gate.Xor), live)

(* Per-call name allocator.  Every helper signal a pass mints goes through
   one [namer]: a name is free when [taken] does not claim it and the same
   allocator has not minted it already, so the names a single call mints
   never collide with the circuit or with each other.  A free base is kept
   as is (a first rewrite gets the plain documented names); otherwise the
   first free [base ^ "2"], [base ^ "3"], ... is taken. *)
type namer = { taken : string -> bool; minted : (string, unit) Hashtbl.t }

let namer taken = { taken; minted = Hashtbl.create 8 }

(* Every node of [circuit] is copied into the rewrite under its own name. *)
let circuit_namer circuit = namer (fun s -> Circuit.find_opt circuit s <> None)

let mint nm base =
  let free s = not (nm.taken s || Hashtbl.mem nm.minted s) in
  let name =
    if free base then base
    else
      let rec go i =
        let candidate = base ^ string_of_int i in
        if free candidate then candidate else go (i + 1)
      in
      go 2
  in
  Hashtbl.replace nm.minted name ();
  name

(* Rebuild a circuit from a resolution table.  Nodes resolving to constants
   materialize as CONST gates only if something still references them. *)
let rebuild circuit resolution =
  let n = Circuit.node_count circuit in
  let b = Builder.create ~name:(Circuit.name circuit) () in
  (* Only surviving nodes keep their names in the rebuild: a folded-away
     constant gate frees its name for the constant it folded to. *)
  let names =
    namer (fun s ->
        match Circuit.find_opt circuit s with
        | None -> false
        | Some v -> (
          match Circuit.node circuit v, resolution.(v) with
          | (Circuit.Input | Circuit.Ff _), _ | Circuit.Gate _, Keep _ -> true
          | Circuit.Gate _, (Const _ | Alias _) -> false))
  in
  let const_names =
    let base = Circuit.name circuit in
    [| mint names (base ^ "#const0"); mint names (base ^ "#const1") |]
  in
  let const_defined = [| false; false |] in
  let name_of v = Circuit.node_name circuit v in
  let reference v =
    let v = resolve_alias resolution v in
    match resolution.(v) with
    | Const bool_v ->
      let i = if bool_v then 1 else 0 in
      if not const_defined.(i) then begin
        const_defined.(i) <- true;
        Builder.add_gate b ~output:const_names.(i)
          ~kind:(if bool_v then Gate.Const1 else Gate.Const0)
          []
      end;
      const_names.(i)
    | Alias _ -> assert false
    | Keep _ -> name_of v
  in
  (* Definitions in original node order keeps the result deterministic. *)
  for v = 0 to n - 1 do
    match Circuit.node circuit v with
    | Circuit.Input -> Builder.add_input b (name_of v)
    | Circuit.Ff { data } -> Builder.add_dff b ~q:(name_of v) ~d:(reference data)
    | Circuit.Gate _ -> (
      match resolution.(v) with
      | Const _ | Alias _ -> () (* vanished *)
      | Keep (kind, fanins) ->
        Builder.add_gate b ~output:(name_of v) ~kind
          (Array.to_list (Array.map reference fanins)))
  done;
  (* Two distinct primary outputs may resolve to the same surviving net
     (e.g. structural hashing merged their drivers).  The PO interface must
     keep its arity, so the collapsed output keeps its original name as a
     buffer of the representative. *)
  let declared_outputs = Hashtbl.create 8 in
  List.iter
    (fun v ->
      let target = reference v in
      if not (Hashtbl.mem declared_outputs target) then begin
        Hashtbl.replace declared_outputs target ();
        Builder.add_output b target
      end
      else begin
        let buffer_name =
          let original = name_of v in
          if (not (Builder.is_defined b original)) && original <> target then original
          else mint (namer (Builder.is_defined b)) (original ^ "#po")
        in
        Builder.add_gate b ~output:buffer_name ~kind:Gate.Buf [ target ];
        Hashtbl.replace declared_outputs buffer_name ();
        Builder.add_output b buffer_name
      end)
    (Circuit.outputs circuit);
  Builder.freeze b

let propagate_constants circuit =
  let n = Circuit.node_count circuit in
  let resolution = Array.make n (Const false) in
  Array.iter
    (fun v ->
      match Circuit.node circuit v with
      | Circuit.Input | Circuit.Ff _ -> resolution.(v) <- Keep (Gate.Buf, [||])
      (* Pseudo-inputs are never folded; the Keep payload is unused for
         them (rebuild handles them by node kind). *)
      | Circuit.Gate { kind; fanins } ->
        let resolved = Array.map (resolve_alias resolution) fanins in
        resolution.(v) <- fold_gate resolution kind resolved)
    (Analysis.order (Analysis.get circuit));
  rebuild circuit resolution

let merge_duplicates circuit =
  let n = Circuit.node_count circuit in
  let resolution = Array.make n (Const false) in
  let table = Hashtbl.create (2 * n) in
  let commutative = function
    | Gate.And | Gate.Nand | Gate.Or | Gate.Nor | Gate.Xor | Gate.Xnor -> true
    | Gate.Not | Gate.Buf | Gate.Const0 | Gate.Const1 -> false
  in
  Array.iter
    (fun v ->
      match Circuit.node circuit v with
      | Circuit.Input | Circuit.Ff _ -> resolution.(v) <- Keep (Gate.Buf, [||])
      | Circuit.Gate { kind; fanins } ->
        let resolved = Array.map (resolve_alias resolution) fanins in
        let key_fanins = Array.copy resolved in
        if commutative kind then Array.sort compare key_fanins;
        let key = (kind, Array.to_list key_fanins) in
        (match Hashtbl.find_opt table key with
        | Some representative -> resolution.(v) <- Alias representative
        | None ->
          Hashtbl.replace table key v;
          resolution.(v) <- Keep (kind, resolved)))
    (Analysis.order (Analysis.get circuit));
  rebuild circuit resolution

let sweep_unobservable circuit =
  let graph = Circuit.graph circuit in
  let observed_nets =
    List.map (Circuit.observation_net circuit) (Circuit.observations circuit)
  in
  let live = Reach.backward_set graph observed_nets in
  let n = Circuit.node_count circuit in
  let b = Builder.create ~name:(Circuit.name circuit) () in
  for v = 0 to n - 1 do
    match Circuit.node circuit v with
    | Circuit.Input -> Builder.add_input b (Circuit.node_name circuit v)
    | Circuit.Ff { data } ->
      Builder.add_dff b ~q:(Circuit.node_name circuit v) ~d:(Circuit.node_name circuit data)
    | Circuit.Gate { kind; fanins } ->
      if live.(v) then
        Builder.add_gate b ~output:(Circuit.node_name circuit v) ~kind
          (Array.to_list (Array.map (Circuit.node_name circuit) fanins))
  done;
  List.iter
    (fun v -> Builder.add_output b (Circuit.node_name circuit v))
    (Circuit.outputs circuit);
  Builder.freeze b

let optimize circuit =
  sweep_unobservable (merge_duplicates (propagate_constants circuit))

(* --- triple modular redundancy ------------------------------------------------ *)

exception Not_a_gate of string

(* The helper signals one triplicated gate adds: two replicas, the three
   pairwise ANDs of the majority voter, and the voter itself. *)
type tmr_names = {
  r1 : string;
  r2 : string;
  p01 : string;
  p12 : string;
  p02 : string;
  voter : string;
}

(* --- metamorphic mutations ---------------------------------------------------- *)

let check_node circuit v ~what =
  if v < 0 || v >= Circuit.node_count circuit then invalid_arg what

(* Copy every node under its own name, rewriting fanin / FF-data / PO
   references through [rewire] and running [extra] after the copies (new
   helper gates may reference any original signal). *)
let copy_with_rewire circuit ~rewire ~extra =
  let b = Builder.create ~name:(Circuit.name circuit) () in
  let name v = Circuit.node_name circuit v in
  for v = 0 to Circuit.node_count circuit - 1 do
    match Circuit.node circuit v with
    | Circuit.Input -> Builder.add_input b (name v)
    | Circuit.Ff { data } -> Builder.add_dff b ~q:(name v) ~d:(rewire data)
    | Circuit.Gate { kind; fanins } ->
      Builder.add_gate b ~output:(name v) ~kind (Array.to_list (Array.map rewire fanins))
  done;
  extra b;
  List.iter (fun v -> Builder.add_output b (rewire v)) (Circuit.outputs circuit);
  Builder.freeze b

(* Gates and flip-flops whose definition references [net] — the nodes a
   fanout rewiring redefines.  PO declarations also reference nets but are
   interface entries, not node definitions, so they are not listed here
   (observation-interface changes are detected from the circuits). *)
let consumers_of circuit ~net =
  let acc = ref [] in
  for v = Circuit.node_count circuit - 1 downto 0 do
    match Circuit.node circuit v with
    | Circuit.Input -> ()
    | Circuit.Ff { data } ->
      if data = net then acc := Circuit.node_name circuit v :: !acc
    | Circuit.Gate { fanins; _ } ->
      if Array.exists (fun u -> u = net) fanins then
        acc := Circuit.node_name circuit v :: !acc
  done;
  !acc

let insert_identity_delta ?(double_invert = false) circuit ~net =
  check_node circuit net ~what:"Transform.insert_identity: bad net";
  let base = Circuit.node_name circuit net in
  let names = circuit_namer circuit in
  let tap = mint names (base ^ if double_invert then "#ii2" else "#buf") in
  let rewire v = if v = net then tap else Circuit.node_name circuit v in
  let after =
    copy_with_rewire circuit ~rewire ~extra:(fun b ->
        if double_invert then begin
          let mid = mint names (base ^ "#ii1") in
          Builder.add_gate b ~output:mid ~kind:Gate.Not [ base ];
          Builder.add_gate b ~output:tap ~kind:Gate.Not [ mid ]
        end
        else Builder.add_gate b ~output:tap ~kind:Gate.Buf [ base ])
  in
  (after, Delta.make ~before:circuit ~after ~touched:(consumers_of circuit ~net))

let insert_identity ?double_invert circuit ~net =
  fst (insert_identity_delta ?double_invert circuit ~net)

let split_fanout_delta circuit ~net =
  check_node circuit net ~what:"Transform.split_fanout: bad net";
  (* Count consumer slots in the same deterministic order the rebuild visits
     them: node order (gate fanin positions, FF data), then PO declarations.
     A node is touched iff at least one of its slots lands on the tap. *)
  let slots = ref 0 in
  let touched = ref [] in
  let take v =
    let slot = !slots in
    incr slots;
    if slot land 1 = 1 then touched := Circuit.node_name circuit v :: !touched
  in
  for v = 0 to Circuit.node_count circuit - 1 do
    match Circuit.node circuit v with
    | Circuit.Input -> ()
    | Circuit.Ff { data } -> if data = net then take v
    | Circuit.Gate { fanins; _ } ->
      Array.iter (fun u -> if u = net then take v) fanins
  done;
  (* PO declarations are interface entries, not node definitions; they only
     advance the slot counter in the rebuild below, after every node slot. *)
  List.iter (fun v -> if v = net then incr slots) (Circuit.outputs circuit);
  if !slots < 2 then (circuit, Delta.identity circuit)
  else begin
    let base = Circuit.node_name circuit net in
    let tap = mint (circuit_namer circuit) (base ^ "#split") in
    let seen = ref 0 in
    let rewire v =
      if v = net then begin
        let slot = !seen in
        incr seen;
        if slot land 1 = 1 then tap else base
      end
      else Circuit.node_name circuit v
    in
    let after =
      copy_with_rewire circuit ~rewire ~extra:(fun b ->
          Builder.add_gate b ~output:tap ~kind:Gate.Buf [ base ])
    in
    (after, Delta.make ~before:circuit ~after ~touched:!touched)
  end

let split_fanout circuit ~net = fst (split_fanout_delta circuit ~net)

let de_morgan_delta circuit ~gate =
  check_node circuit gate ~what:"Transform.de_morgan: bad node";
  match Circuit.node circuit gate with
  | Circuit.Gate { kind = (Gate.And | Gate.Or | Gate.Nand | Gate.Nor) as kind; fanins } ->
    let gname = Circuit.node_name circuit gate in
    let names = circuit_namer circuit in
    let inverter_names =
      Array.mapi (fun i _ -> mint names (Printf.sprintf "%s#dm%d" gname i)) fanins
    in
    let dual_name = mint names (gname ^ "#dual") in
    let b = Builder.create ~name:(Circuit.name circuit) () in
    let name v = Circuit.node_name circuit v in
    for v = 0 to Circuit.node_count circuit - 1 do
      match Circuit.node circuit v with
      | Circuit.Input -> Builder.add_input b (name v)
      | Circuit.Ff { data } -> Builder.add_dff b ~q:(name v) ~d:(name data)
      | Circuit.Gate { kind = k; fanins = f } ->
        if v = gate then begin
          Array.iteri
            (fun i u ->
              Builder.add_gate b ~output:inverter_names.(i) ~kind:Gate.Not [ name u ])
            fanins;
          let nots = Array.to_list inverter_names in
          match kind with
          | Gate.Nand -> Builder.add_gate b ~output:gname ~kind:Gate.Or nots
          | Gate.Nor -> Builder.add_gate b ~output:gname ~kind:Gate.And nots
          | Gate.And ->
            Builder.add_gate b ~output:dual_name ~kind:Gate.Or nots;
            Builder.add_gate b ~output:gname ~kind:Gate.Not [ dual_name ]
          | Gate.Or ->
            Builder.add_gate b ~output:dual_name ~kind:Gate.And nots;
            Builder.add_gate b ~output:gname ~kind:Gate.Not [ dual_name ]
          | _ -> assert false
        end
        else Builder.add_gate b ~output:(name v) ~kind:k (Array.to_list (Array.map name f))
    done;
    List.iter (fun v -> Builder.add_output b (name v)) (Circuit.outputs circuit);
    let after = Builder.freeze b in
    (* The rewritten gate is the only survivor whose definition changes; the
       input inverters (and the dual gate, for AND/OR) are added nodes. *)
    (after, Delta.make ~before:circuit ~after ~touched:[ gname ])
  | Circuit.Gate _ | Circuit.Input | Circuit.Ff _ ->
    invalid_arg "Transform.de_morgan: not an AND/OR/NAND/NOR gate"

let de_morgan circuit ~gate = fst (de_morgan_delta circuit ~gate)

let permute_observations_delta circuit ~perm =
  let outs = Array.of_list (Circuit.outputs circuit) in
  let k = Array.length outs in
  if Array.length perm <> k then invalid_arg "Transform.permute_observations: bad length";
  let seen = Array.make (max k 1) false in
  Array.iter
    (fun i ->
      if i < 0 || i >= k || seen.(i) then
        invalid_arg "Transform.permute_observations: not a permutation"
      else seen.(i) <- true)
    perm;
  let b = Builder.create ~name:(Circuit.name circuit) () in
  let name v = Circuit.node_name circuit v in
  for v = 0 to Circuit.node_count circuit - 1 do
    match Circuit.node circuit v with
    | Circuit.Input -> Builder.add_input b (name v)
    | Circuit.Ff { data } -> Builder.add_dff b ~q:(name v) ~d:(name data)
    | Circuit.Gate { kind; fanins } ->
      Builder.add_gate b ~output:(name v) ~kind (Array.to_list (Array.map name fanins))
  done;
  Array.iter (fun i -> Builder.add_output b (name outs.(i))) perm;
  let after = Builder.freeze b in
  (* Every node definition is copied verbatim; only the observation
     interface moves, which the delta's circuits carry implicitly. *)
  (after, Delta.make ~before:circuit ~after ~touched:[])

let permute_observations circuit ~perm =
  fst (permute_observations_delta circuit ~perm)

let triplicate_delta circuit ~nodes =
  let n = Circuit.node_count circuit in
  let selected = Array.make n false in
  List.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg "Transform.triplicate: bad node";
      match Circuit.node circuit v with
      | Circuit.Gate _ -> selected.(v) <- true
      | Circuit.Input | Circuit.Ff _ ->
        raise (Not_a_gate (Circuit.node_name circuit v)))
    nodes;
  (* Helper names are minted up front, in node order, because a consumer
     may precede the gate it reads.  Re-triplicating a gate gets suffixed
     names instead of redefining the first round's helpers, and so does any
     helper whose plain name an existing signal already uses. *)
  let names = circuit_namer circuit in
  let helpers =
    Array.init n (fun v ->
        if not selected.(v) then None
        else
          let base = Circuit.node_name circuit v in
          let mint suffix = mint names (base ^ suffix) in
          let r1 = mint "#tmr1" in
          let r2 = mint "#tmr2" in
          let p01 = mint "#maj01" in
          let p12 = mint "#maj12" in
          let p02 = mint "#maj02" in
          Some { r1; r2; p01; p12; p02; voter = mint "#vote" })
  in
  let b = Builder.create ~name:(Circuit.name circuit) () in
  (* A consumer of a triplicated node reads its voter output. *)
  let reference v =
    match helpers.(v) with
    | Some h -> h.voter
    | None -> Circuit.node_name circuit v
  in
  for v = 0 to n - 1 do
    let name = Circuit.node_name circuit v in
    match Circuit.node circuit v with
    | Circuit.Input -> Builder.add_input b name
    | Circuit.Ff { data } -> Builder.add_dff b ~q:name ~d:(reference data)
    | Circuit.Gate { kind; fanins } -> (
      let fanin_names = Array.to_list (Array.map reference fanins) in
      Builder.add_gate b ~output:name ~kind fanin_names;
      match helpers.(v) with
      | None -> ()
      | Some h ->
        (* Two replicas share the (possibly voted) fanins of the original;
           MAJ3(a,b,c) = (a AND b) OR (b AND c) OR (a AND c). *)
        Builder.add_gate b ~output:h.r1 ~kind fanin_names;
        Builder.add_gate b ~output:h.r2 ~kind fanin_names;
        Builder.add_gate b ~output:h.p01 ~kind:Gate.And [ name; h.r1 ];
        Builder.add_gate b ~output:h.p12 ~kind:Gate.And [ h.r1; h.r2 ];
        Builder.add_gate b ~output:h.p02 ~kind:Gate.And [ name; h.r2 ];
        Builder.add_gate b ~output:h.voter ~kind:Gate.Or [ h.p01; h.p12; h.p02 ])
  done;
  List.iter (fun v -> Builder.add_output b (reference v)) (Circuit.outputs circuit);
  let after = Builder.freeze b in
  (* Survivors whose definition changes are exactly the consumers of a
     selected gate (their fanin / FF-data moved to the voter); the selected
     gate itself keeps its definition unless one of its own fanins is also
     selected.  Replicas and voter gates are added nodes. *)
  let touched = ref [] in
  for v = 0 to n - 1 do
    let consumes_selected =
      match Circuit.node circuit v with
      | Circuit.Input -> false
      | Circuit.Ff { data } -> selected.(data)
      | Circuit.Gate { fanins; _ } -> Array.exists (fun u -> selected.(u)) fanins
    in
    if consumes_selected then touched := Circuit.node_name circuit v :: !touched
  done;
  (after, Delta.make ~before:circuit ~after ~touched:!touched)

let triplicate circuit ~nodes = fst (triplicate_delta circuit ~nodes)
