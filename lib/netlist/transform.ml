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

   The cleanups rebuild through Builder (so every invariant is
   re-validated); TMR and the metamorphic mutations, which only add helper
   gates and rewire, emit their result by id (see [splice]).  All passes
   preserve the names of surviving signals, which is how callers track
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

(* --- id-level rewrites ---------------------------------------------------------- *)

(* The rewrites below keep every node under its own name and add a few
   helper gates, so they emit the new node list by id instead of rebuilding
   the circuit by name through Builder, which hashes every name twice: a
   serd edit request runs one of them over the whole circuit.  A rewrite is
   a list of slots in definition order: a survivor copied with its
   references rewired, a survivor given a new definition, or a helper.
   Helpers are declared up front, so a node earlier in the order may read
   one.  Ids follow slot order, exactly as Builder numbers definitions, so
   the result is the circuit a Builder rebuild would freeze; each rewrite
   keeps a valid circuit valid by construction, and the regression suite
   checks that Builder accepts the result and reproduces it id for id. *)

type sref = Node of int (* an original node *) | Helper of int (* a declared helper *)

type helper = { name : string; kind : Gate.kind; fanins : sref array }

type slot =
  | Copy of int  (* an original node, its references rewired *)
  | Redefine of int * Gate.kind * sref array  (* an original gate, new definition *)
  | Place of int  (* a declared helper *)

(* [rewire] is applied to a copied node's references in definition order,
   then to [outputs] in declaration order (split_fanout counts on it). *)
let splice circuit ~helpers ~slots ~rewire ~outputs =
  let id_of_node = Array.make (Circuit.node_count circuit) (-1) in
  let id_of_helper = Array.make (Array.length helpers) (-1) in
  Array.iteri
    (fun i slot ->
      match slot with
      | Copy v | Redefine (v, _, _) -> id_of_node.(v) <- i
      | Place h -> id_of_helper.(h) <- i)
    slots;
  let id = function Node v -> id_of_node.(v) | Helper h -> id_of_helper.(h) in
  let nodes =
    Array.map
      (function
        | Copy v -> (
          match Circuit.node circuit v with
          | Circuit.Input -> Circuit.Input
          | Circuit.Ff { data } -> Circuit.Ff { data = id (rewire data) }
          | Circuit.Gate { kind; fanins } ->
            Circuit.Gate { kind; fanins = Array.map (fun u -> id (rewire u)) fanins })
        | Redefine (_, kind, fanins) -> Circuit.Gate { kind; fanins = Array.map id fanins }
        | Place h ->
          let { kind; fanins; _ } = helpers.(h) in
          Circuit.Gate { kind; fanins = Array.map id fanins })
      slots
  in
  let outputs = Array.of_list (List.map (fun v -> id (rewire v)) outputs) in
  let names =
    Array.map
      (function
        | Copy v | Redefine (v, _, _) -> Circuit.node_name circuit v
        | Place h -> helpers.(h).name)
      slots
  in
  let collect keep =
    let acc = ref [] in
    for v = Array.length nodes - 1 downto 0 do
      if keep nodes.(v) then acc := v :: !acc
    done;
    Array.of_list !acc
  in
  Circuit.make ~name:(Circuit.name circuit) ~nodes ~names ~outputs
    ~inputs:(collect (function Circuit.Input -> true | Circuit.Ff _ | Circuit.Gate _ -> false))
    ~ffs:(collect (function Circuit.Ff _ -> true | Circuit.Input | Circuit.Gate _ -> false))

(* Copy every node, rewiring fanin / FF-data / PO references through
   [rewire], then place [extra] (helpers that may read any original
   signal) after the copies. *)
let copy_with_rewire circuit ~rewire ~extra =
  let n = Circuit.node_count circuit in
  let helpers = Array.of_list extra in
  let slots =
    Array.init (n + Array.length helpers) (fun i ->
        if i < n then Copy i else Place (i - n))
  in
  splice circuit ~helpers ~slots ~rewire ~outputs:(Circuit.outputs circuit)

(* --- metamorphic mutations ---------------------------------------------------- *)

let check_node circuit v ~what =
  if v < 0 || v >= Circuit.node_count circuit then invalid_arg what

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
  let extra =
    if double_invert then
      let mid = mint names (base ^ "#ii1") in
      [
        { name = mid; kind = Gate.Not; fanins = [| Node net |] };
        { name = tap; kind = Gate.Not; fanins = [| Helper 0 |] };
      ]
    else [ { name = tap; kind = Gate.Buf; fanins = [| Node net |] } ]
  in
  let tap_ref = Helper (List.length extra - 1) in
  let rewire v = if v = net then tap_ref else Node v in
  let after = copy_with_rewire circuit ~rewire ~extra in
  (after, Delta.make ~before:circuit ~after ~touched:(consumers_of circuit ~net))

let insert_identity ?double_invert circuit ~net =
  fst (insert_identity_delta ?double_invert circuit ~net)

let split_fanout_delta circuit ~net =
  check_node circuit net ~what:"Transform.split_fanout: bad net";
  (* Count consumer slots in the same deterministic order the rewrite visits
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
     advance the slot counter in the rewrite below, after every node slot. *)
  List.iter (fun v -> if v = net then incr slots) (Circuit.outputs circuit);
  if !slots < 2 then (circuit, Delta.identity circuit)
  else begin
    let tap = mint (circuit_namer circuit) (Circuit.node_name circuit net ^ "#split") in
    let seen = ref 0 in
    let rewire v =
      if v = net then begin
        let slot = !seen in
        incr seen;
        if slot land 1 = 1 then Helper 0 else Node net
      end
      else Node v
    in
    let after =
      copy_with_rewire circuit ~rewire
        ~extra:[ { name = tap; kind = Gate.Buf; fanins = [| Node net |] } ]
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
    let k = Array.length fanins in
    let inverters =
      Array.mapi
        (fun i u ->
          {
            name = mint names (Printf.sprintf "%s#dm%d" gname i);
            kind = Gate.Not;
            fanins = [| Node u |];
          })
        fanins
    in
    let nots = Array.init k (fun i -> Helper i) in
    (* NAND and NOR become the dual of their inverted inputs; AND and OR
       become NOT of that dual, a helper placed right before the gate. *)
    let helpers, redefined =
      match kind with
      | Gate.Nand -> (inverters, (Gate.Or, nots))
      | Gate.Nor -> (inverters, (Gate.And, nots))
      | Gate.And | Gate.Or ->
        let dual =
          {
            name = mint names (gname ^ "#dual");
            kind = (if kind = Gate.And then Gate.Or else Gate.And);
            fanins = nots;
          }
        in
        ( Array.append inverters [| dual |],
          (Gate.Not, [| Helper k |]) )
      | _ -> assert false
    in
    let n = Circuit.node_count circuit in
    let placed = Array.length helpers in
    let slots =
      Array.init (n + placed) (fun i ->
          if i < gate then Copy i
          else if i < gate + placed then Place (i - gate)
          else if i = gate + placed then Redefine (gate, fst redefined, snd redefined)
          else Copy (i - placed))
    in
    let after =
      splice circuit ~helpers ~slots ~rewire:(fun v -> Node v)
        ~outputs:(Circuit.outputs circuit)
    in
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
  let after =
    splice circuit ~helpers:[||]
      ~slots:(Array.init (Circuit.node_count circuit) (fun v -> Copy v))
      ~rewire:(fun v -> Node v)
      ~outputs:(Array.to_list (Array.map (fun i -> outs.(i)) perm))
  in
  (* Every node definition is copied verbatim; only the observation
     interface moves, which the delta's circuits carry implicitly. *)
  (after, Delta.make ~before:circuit ~after ~touched:[])

let permute_observations circuit ~perm =
  fst (permute_observations_delta circuit ~perm)

(* --- triple modular redundancy ------------------------------------------------ *)

exception Not_a_gate of string

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
  let chosen = List.filter (fun v -> selected.(v)) (List.init n Fun.id) in
  let first_helper = Array.make n (-1) in
  List.iteri (fun i v -> first_helper.(v) <- 6 * i) chosen;
  (* A consumer of a triplicated node reads its voter output. *)
  let reference v = if selected.(v) then Helper (first_helper.(v) + 5) else Node v in
  let names = circuit_namer circuit in
  let helpers =
    List.concat_map
      (fun v ->
        let kind, fanins =
          match Circuit.node circuit v with
          | Circuit.Gate { kind; fanins } -> (kind, Array.map reference fanins)
          | Circuit.Input | Circuit.Ff _ -> assert false
        in
        let base = Circuit.node_name circuit v in
        let mint suffix = mint names (base ^ suffix) in
        let r1 = mint "#tmr1" in
        let r2 = mint "#tmr2" in
        let p01 = mint "#maj01" in
        let p12 = mint "#maj12" in
        let p02 = mint "#maj02" in
        let voter = mint "#vote" in
        (* Two replicas share the (possibly voted) fanins of the original;
           MAJ3(a,b,c) = (a AND b) OR (b AND c) OR (a AND c). *)
        let h = first_helper.(v) in
        [
          { name = r1; kind; fanins };
          { name = r2; kind; fanins };
          { name = p01; kind = Gate.And; fanins = [| Node v; Helper h |] };
          { name = p12; kind = Gate.And; fanins = [| Helper h; Helper (h + 1) |] };
          { name = p02; kind = Gate.And; fanins = [| Node v; Helper (h + 1) |] };
          {
            name = voter;
            kind = Gate.Or;
            fanins = [| Helper (h + 2); Helper (h + 3); Helper (h + 4) |];
          };
        ])
      chosen
    |> Array.of_list
  in
  (* Each selected gate is followed by its six helpers, in declaration order. *)
  let slots = Array.make (n + Array.length helpers) (Copy 0) in
  let next = ref 0 in
  for v = 0 to n - 1 do
    slots.(!next) <- Copy v;
    incr next;
    if selected.(v) then
      for i = 0 to 5 do
        slots.(!next) <- Place (first_helper.(v) + i);
        incr next
      done
  done;
  let after =
    splice circuit ~helpers ~slots ~rewire:reference
      ~outputs:(Circuit.outputs circuit)
  in
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
