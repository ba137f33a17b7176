(* COP-style observability: the classic cheap alternative to per-site EPP.

   One backward pass over the whole circuit computes, for every net, the
   probability that a value change on it is observed at some observation
   point (PO or FF data input):

     CO(observed net)      >= direct observation (probability 1 at a PO/FF.D)
     CO(input i of gate g)  = CO(g) x prod_{j<>i} P(non-controlling X_j)
     multiple fanouts       : CO(net) = 1 - prod_branches (1 - CO_branch)

   with the non-controlling factor per kind: AND/NAND need the side inputs
   at 1, OR/NOR at 0, XOR/XNOR always propagate, NOT/BUF are transparent.

   Compared with the paper's EPP this drops both the polarity bookkeeping
   and the per-site path construction, in exchange for O(circuit) total
   cost for all sites at once.  The ablation bench quantifies exactly what
   that trade loses (reconvergence handling, mostly). *)

open Netlist

type result = { circuit : Circuit.t; values : float array }

let get r v = r.values.(v)
let get_name r name = r.values.(Circuit.find r.circuit name)

(* Probability that all fanins of [g] other than index [i] hold their
   non-controlling value. *)
let side_factor sp circuit g i =
  match Circuit.node circuit g with
  | Circuit.Input | Circuit.Ff _ -> assert false
  | Circuit.Gate { kind; fanins } -> (
    let product f =
      let acc = ref 1.0 in
      Array.iteri (fun j u -> if j <> i then acc := !acc *. f sp.Sp.values.(u)) fanins;
      !acc
    in
    match kind with
    | Gate.And | Gate.Nand -> product Fun.id
    | Gate.Or | Gate.Nor -> product (fun p -> 1.0 -. p)
    | Gate.Xor | Gate.Xnor | Gate.Not | Gate.Buf -> 1.0
    | Gate.Const0 | Gate.Const1 -> 0.0)

let compute ?sp circuit =
  let sp =
    match sp with
    | Some r ->
      if r.Sp.circuit != circuit then
        invalid_arg "Observability.compute: sp computed on a different circuit";
      r
    | None -> Sp_sequential.default circuit
  in
  let n = Circuit.node_count circuit in
  (* miss.(v) = prod over observation channels of (1 - CO_channel): build
     multiplicatively, convert at the end. *)
  let miss = Array.make n 1.0 in
  List.iter
    (fun obs -> miss.(Circuit.observation_net circuit obs) <- 0.0)
    (Circuit.observations circuit);
  let order = Analysis.order (Analysis.get circuit) in
  (* Backward pass: when we reach gate g (in reverse topological order) its
     own observability is final; push contributions to its fanins. *)
  for i = Array.length order - 1 downto 0 do
    let g = order.(i) in
    match Circuit.node circuit g with
    | Circuit.Input | Circuit.Ff _ -> ()
    | Circuit.Gate { fanins; _ } ->
      let co_g = 1.0 -. miss.(g) in
      Array.iteri
        (fun idx u ->
          let via = co_g *. side_factor sp circuit g idx in
          miss.(u) <- miss.(u) *. (1.0 -. via))
        fanins
  done;
  { circuit; values = Array.map (fun m -> Sp_rules.clamp (1.0 -. m)) miss }
