(* Circuit functions as BDDs, and the exact analyses built on them.

   Pseudo-inputs (primary inputs and flip-flop outputs) become BDD
   variables in node order.  Node functions are built in one topological
   pass.  On top of this:

   - exact signal probability for every node (Bdd.probability);
   - exact single-cycle error propagation probability for a site: the
     faulty machine's functions are rebuilt over the site's forward cone
     with the site complemented, and the error indicator at observation
     point o is XOR(good_o, faulty_o); P_sensitized is the probability of
     the OR of all indicators — the exact quantity the paper's analytical
     rules approximate.

   This scales far beyond Fault_sim.Epp_exact's 2^k enumeration (bounded by
   BDD size, not input count), making it the strong oracle of the test
   suite and the exact-reference column of the ablation bench. *)

open Netlist

type t = {
  circuit : Circuit.t;
  manager : Bdd.t;
  var_of_node : int array; (* pseudo-input node -> BDD variable, else -1 *)
  node_fn : int array; (* node -> BDD id *)
}

exception Too_large of { node_count : int; limit : int }

let default_node_limit = 2_000_000

let gate_fn manager kind (inputs : int array) =
  let fold2 f init =
    let acc = ref init in
    Array.iter (fun x -> acc := f !acc x) inputs;
    !acc
  in
  match kind with
  | Gate.And -> fold2 (Bdd.band manager) Bdd.one
  | Gate.Nand -> Bdd.bnot manager (fold2 (Bdd.band manager) Bdd.one)
  | Gate.Or -> fold2 (Bdd.bor manager) Bdd.zero
  | Gate.Nor -> Bdd.bnot manager (fold2 (Bdd.bor manager) Bdd.zero)
  | Gate.Xor -> fold2 (Bdd.bxor manager) Bdd.zero
  | Gate.Xnor -> Bdd.bnot manager (fold2 (Bdd.bxor manager) Bdd.zero)
  | Gate.Not -> Bdd.bnot manager inputs.(0)
  | Gate.Buf -> inputs.(0)
  | Gate.Const0 -> Bdd.zero
  | Gate.Const1 -> Bdd.one

let check_limit manager limit =
  if Bdd.node_count manager > limit then
    raise (Too_large { node_count = Bdd.node_count manager; limit })

let build ?(node_limit = default_node_limit) circuit =
  let n = Circuit.node_count circuit in
  let pseudo = Circuit.pseudo_inputs circuit in
  let manager = Bdd.create ~var_count:(List.length pseudo) in
  let var_of_node = Array.make n (-1) in
  List.iteri (fun i v -> var_of_node.(v) <- i) pseudo;
  let node_fn = Array.make n Bdd.zero in
  Array.iter
    (fun v ->
      (match Circuit.node circuit v with
      | Circuit.Input | Circuit.Ff _ -> node_fn.(v) <- Bdd.var manager var_of_node.(v)
      | Circuit.Gate { kind; fanins } ->
        node_fn.(v) <- gate_fn manager kind (Array.map (fun u -> node_fn.(u)) fanins));
      check_limit manager node_limit)
    (Analysis.order (Analysis.get circuit));
  { circuit; manager; var_of_node; node_fn }

let circuit t = t.circuit
let manager t = t.manager
let node_function t v = t.node_fn.(v)

let variable_probability t ~input_sp =
  (* input_sp is keyed by circuit node; translate to BDD variables. *)
  let pseudo = Array.of_list (Circuit.pseudo_inputs t.circuit) in
  fun var -> input_sp pseudo.(var)

(* --- exact signal probability ---------------------------------------------- *)

let signal_probability ?(input_sp = fun _ -> 0.5) t v =
  Bdd.probability t.manager ~var_p:(variable_probability t ~input_sp) t.node_fn.(v)

let all_signal_probabilities ?(input_sp = fun _ -> 0.5) t =
  let var_p = variable_probability t ~input_sp in
  Array.map (fun fn -> Bdd.probability t.manager ~var_p fn) t.node_fn

(* --- exact error propagation probability ----------------------------------- *)

type site_exact = {
  site : int;
  p_sensitized : float;
  per_observation : (Circuit.observation * float) list;
}

let faulty_functions ?(node_limit = default_node_limit) t site =
  let c = t.circuit in
  let ctx = Analysis.get c in
  let cone = Analysis.cone ctx site in
  let faulty = Array.copy t.node_fn in
  faulty.(site) <- Bdd.bnot t.manager t.node_fn.(site);
  Array.iter
    (fun v ->
      if v <> site then begin
        match Circuit.node c v with
        | Circuit.Gate { kind; fanins } ->
          faulty.(v) <- gate_fn t.manager kind (Array.map (fun u -> faulty.(u)) fanins);
          check_limit t.manager node_limit
        | Circuit.Input | Circuit.Ff _ -> ()
      end)
    cone;
  (* Only a cone member's function can differ from the good machine's. *)
  let members = Reach.lookup ~position:(Analysis.position ctx) cone in
  ((fun net -> Reach.find members net >= 0), faulty)

(* --- formal equivalence ------------------------------------------------------ *)

type equivalence =
  | Equivalent
  | Interface_mismatch of string
  | Differs of { output : string; counterexample : (string * bool) list }

(* Combinational-equivalence check of two circuits that share input names:
   build both inside one manager (matched variables by input name), compare
   primary outputs positionally and flip-flop data functions by FF name.
   Returns a named counterexample on the first mismatch. *)
let check_equivalence ?(node_limit = default_node_limit) c1 c2 =
  let inputs c =
    List.map (Circuit.node_name c) (Circuit.pseudo_inputs c) |> List.sort compare
  in
  let in1 = inputs c1 and in2 = inputs c2 in
  if in1 <> in2 then
    Interface_mismatch
      (Printf.sprintf "pseudo-input sets differ (%d vs %d names)" (List.length in1)
         (List.length in2))
  else if Circuit.output_count c1 <> Circuit.output_count c2 then
    Interface_mismatch "different primary-output counts"
  else begin
    let manager = Bdd.create ~var_count:(List.length in1) in
    let var_of_name = Hashtbl.create 16 in
    List.iteri (fun i name -> Hashtbl.replace var_of_name name i) in1;
    let build_functions c =
      let n = Circuit.node_count c in
      let fn = Array.make n Bdd.zero in
      Array.iter
        (fun v ->
          (match Circuit.node c v with
          | Circuit.Input | Circuit.Ff _ ->
            fn.(v) <- Bdd.var manager (Hashtbl.find var_of_name (Circuit.node_name c v))
          | Circuit.Gate { kind; fanins } ->
            fn.(v) <- gate_fn manager kind (Array.map (fun u -> fn.(u)) fanins));
          check_limit manager node_limit)
        (Analysis.order (Analysis.get c));
      fn
    in
    let fn1 = build_functions c1 and fn2 = build_functions c2 in
    let counterexample name f g =
      let diff = Bdd.bxor manager f g in
      match Bdd.any_sat manager diff with
      | None -> None
      | Some vars ->
        let assignment = List.mapi (fun i n -> (n, vars.(i))) in1 in
        Some (Differs { output = name; counterexample = assignment })
    in
    (* POs positionally; FF data functions by FF name. *)
    let po_pairs =
      List.map2
        (fun o1 o2 -> (Circuit.node_name c1 o1, fn1.(o1), fn2.(o2)))
        (Circuit.outputs c1) (Circuit.outputs c2)
    in
    let ff_pairs =
      let data_by_name c fn =
        List.map
          (fun ff ->
            match Circuit.node c ff with
            | Circuit.Ff { data } -> (Circuit.node_name c ff, fn.(data))
            | Circuit.Input | Circuit.Gate _ -> assert false)
          (Circuit.ffs c)
        |> List.sort compare
      in
      let d1 = data_by_name c1 fn1 and d2 = data_by_name c2 fn2 in
      if List.map fst d1 <> List.map fst d2 then None
      else Some (List.map2 (fun (n, f) (_, g) -> (n ^ ".D", f, g)) d1 d2)
    in
    match ff_pairs with
    | None -> Interface_mismatch "different flip-flop name sets"
    | Some ff_pairs ->
      let rec scan = function
        | [] -> Equivalent
        | (name, f, g) :: rest -> (
          match counterexample name f g with
          | Some result -> result
          | None -> scan rest)
      in
      scan (po_pairs @ ff_pairs)
  end

(* --- propagation witnesses (test generation) -------------------------------- *)

type witness = {
  site : int;
  observation : Circuit.observation;  (** where the error becomes visible *)
  assignment : (int * bool) list;  (** pseudo-input node -> value *)
}

let assignment_of_vars t vars =
  let pseudo = Array.of_list (Circuit.pseudo_inputs t.circuit) in
  List.init (Array.length vars) (fun i -> (pseudo.(i), vars.(i)))

(* An input vector that propagates an error at [site] to some observation
   point — a concrete demonstration (test vector) of the site's
   vulnerability; [None] iff the site is untestable (P_sensitized = 0). *)
let propagation_witness ?node_limit t site =
  let c = t.circuit in
  if site < 0 || site >= Circuit.node_count c then
    invalid_arg "Circuit_bdd.propagation_witness: bad site";
  let in_cone, faulty = faulty_functions ?node_limit t site in
  let observations = Circuit.observations c in
  let indicator obs =
    let net = Circuit.observation_net c obs in
    if in_cone net then Bdd.bxor t.manager t.node_fn.(net) faulty.(net) else Bdd.zero
  in
  let rec first_observable = function
    | [] -> None
    | obs :: rest -> (
      match Bdd.any_sat t.manager (indicator obs) with
      | Some vars ->
        Some { site; observation = obs; assignment = assignment_of_vars t vars }
      | None -> first_observable rest)
  in
  first_observable observations

let epp_exact ?(input_sp = fun _ -> 0.5) ?node_limit t site =
  let c = t.circuit in
  if site < 0 || site >= Circuit.node_count c then
    invalid_arg "Circuit_bdd.epp_exact: bad site";
  let in_cone, faulty = faulty_functions ?node_limit t site in
  let var_p = variable_probability t ~input_sp in
  let observations = Circuit.observations c in
  let indicator obs =
    let net = Circuit.observation_net c obs in
    if in_cone net then Bdd.bxor t.manager t.node_fn.(net) faulty.(net) else Bdd.zero
  in
  let indicators = List.map indicator observations in
  let any = List.fold_left (Bdd.bor t.manager) Bdd.zero indicators in
  {
    site;
    p_sensitized = Bdd.probability t.manager ~var_p any;
    per_observation =
      List.map2
        (fun obs ind -> (obs, Bdd.probability t.manager ~var_p ind))
        observations indicators;
  }
