(* Levelized combinational simulation.

   [compile] fixes a topological evaluation order once; each [run] is then a
   single linear pass.  Two value domains share the order: single boolean
   vectors (the reference semantics, used by the exact engines and the test
   oracles) and 64-pattern words (the workhorse of the random-simulation
   baseline of the paper's Table 2). *)

open Netlist

type compiled = {
  circuit : Circuit.t;
  order : int array; (* gate nodes only, topological *)
}

let compile circuit =
  (* The gates-only order is exactly the analysis context's [gate_order]:
     compile shares the cached array (read-only by contract) instead of
     re-deriving it per compiled simulator. *)
  { circuit; order = Analysis.gate_order (Analysis.get circuit) }

let circuit cs = cs.circuit

(* --- single-vector domain ------------------------------------------------ *)

let run_bool cs values =
  let c = cs.circuit in
  if Array.length values <> Circuit.node_count c then
    invalid_arg "Sim.run_bool: values array has wrong length";
  Array.iter
    (fun v ->
      match Circuit.node c v with
      | Circuit.Gate { kind; fanins } ->
        values.(v) <- Gate.eval kind (Array.map (fun u -> values.(u)) fanins)
      | Circuit.Input | Circuit.Ff _ -> assert false)
    cs.order

let eval_bool cs ~assign =
  let c = cs.circuit in
  let values = Array.make (Circuit.node_count c) false in
  List.iter (fun v -> values.(v) <- assign v) (Circuit.pseudo_inputs c);
  run_bool cs values;
  values

(* --- 64-pattern word domain ---------------------------------------------- *)

let run_words cs values =
  let c = cs.circuit in
  if Array.length values <> Circuit.node_count c then
    invalid_arg "Sim.run_words: values array has wrong length";
  Array.iter
    (fun v ->
      match Circuit.node c v with
      | Circuit.Gate { kind; fanins } ->
        values.(v) <- Gate.eval_word kind (Array.map (fun u -> values.(u)) fanins)
      | Circuit.Input | Circuit.Ff _ -> assert false)
    cs.order

let eval_words cs ~assign =
  let c = cs.circuit in
  let values = Array.make (Circuit.node_count c) 0L in
  List.iter (fun v -> values.(v) <- assign v) (Circuit.pseudo_inputs c);
  run_words cs values;
  values

let random_words cs ~rng =
  eval_words cs ~assign:(fun _ -> Rng.word rng)

let biased_words cs ~rng ~input_sp =
  eval_words cs ~assign:(fun v -> Rng.biased_word rng ~p:(input_sp v))

(* Re-simulate only the forward cone of [site] with the site's value forced
   to the complement of [base].(site).  [base] must be a completed fault-free
   evaluation and [cone] the site's cone members in topological order
   (Analysis.cone).  Returns a fresh array; nodes outside the cone keep their
   fault-free words.  This is the faulty-machine half of the paper's
   random-simulation comparator: walking only the cone is what keeps
   per-site cost proportional to cone size rather than circuit size. *)
let eval_words_with_flip cs ~base ~cone ~site =
  let c = cs.circuit in
  let n = Circuit.node_count c in
  if Array.length base <> n then invalid_arg "Sim.eval_words_with_flip: base has wrong length";
  let values = Array.copy base in
  values.(site) <- Int64.lognot base.(site);
  Array.iter
    (fun v ->
      if v <> site then
        match Circuit.node c v with
        | Circuit.Gate { kind; fanins } ->
          values.(v) <- Gate.eval_word kind (Array.map (fun u -> values.(u)) fanins)
        | Circuit.Input | Circuit.Ff _ -> ()
        (* An Input/Ff inside the cone can only be the site itself, already
           flipped above; other pseudo-inputs are never downstream of a
           site. *))
    cone;
  values
