(* The paper's EPP computation — Sec. 2, steps 1-3, per error site:

   1. Path construction: forward DFS from the site (Site_analysis).
   2. Ordering: one topological order, computed once per circuit and shared
      by every site.
   3. EPP computation: walk the on-path gates in topological order; on-path
      fanins contribute their four-state vectors, off-path fanins contribute
      their signal probability as P1/P0 mass; apply the Table-1 rules.

   Afterwards, for the reachable outputs:

     P_sensitized(n) = 1 - prod_j (1 - (Pa(POj) + Pā(POj)))

   The engine owns the per-circuit invariants (topological order, signal
   probabilities); each analyze_site call is a single linear pass over the
   site's cone.  This boxed path is the reference oracle: the production
   sweep (Epp_batch, the "SysT" cost of Table 2) must match it bit for bit.
   The two ablations the bench times against it (polarity-blind rules, no
   cone restriction) are per-site functions beside it. *)

open Netlist

type t = {
  circuit : Circuit.t;
  sp : Sigprob.Sp.result;
  ctx : Analysis.t;
      (* the circuit's shared analysis context: topological order and its
         inverse permutation, gates-only order (the no-cone ablation),
         observation arrays *)
}

type site_result = {
  site : int;
  p_sensitized : float;
  per_observation : (Circuit.observation * float) list;
  cone_size : int;
  reached_outputs : int;
}

exception
  Invalid_signal_probability of { node : int; name : string; value : float }

let () =
  Printexc.register_printer (function
    | Invalid_signal_probability { node; name; value } ->
      Some
        (Printf.sprintf
           "Epp_engine.Invalid_signal_probability(node %d %S, value %h)" node
           name value)
    | _ -> None)

(* A caller-provided sp vector is the one numeric input the engine cannot
   vouch for: a single NaN or out-of-range entry would silently poison every
   cone that consumes the node off-path.  Reject it up front, naming the
   offending node.  (The engine-computed defaults are produced by engines
   that already guarantee [0, 1] values.) *)
let validate_sp circuit (r : Sigprob.Sp.result) =
  let values = r.Sigprob.Sp.values in
  for v = 0 to Array.length values - 1 do
    let x = values.(v) in
    if not (x >= 0.0 && x <= 1.0) then
      raise
        (Invalid_signal_probability
           { node = v; name = Circuit.node_name circuit v; value = x })
  done

let create ?sp circuit =
  let tracer = Obs.Hooks.tracer () in
  Obs.Trace.span tracer ~cat:"epp" "epp.create" @@ fun () ->
  let sp =
    match sp with
    | Some r ->
      if r.Sigprob.Sp.circuit != circuit then
        invalid_arg "Epp_engine.create: sp computed on a different circuit";
      validate_sp circuit r;
      r
    | None -> Sigprob.Sp_sequential.default circuit
  in
  Obs.Trace.span tracer ~cat:"epp" "epp.levelize" @@ fun () ->
  (* Everything structural comes from the shared context: the first engine
     on a circuit pays for the topological sort, every later engine (and
     every other subsystem on the same circuit) reuses it. *)
  let ctx = Analysis.get circuit in
  { circuit; sp; ctx }

let circuit t = t.circuit
let analysis t = t.ctx
let signal_probabilities t = t.sp

(* FF outputs take their *data net's* converged probability when the
   sequential fixpoint produced the sp result; Sp_sequential already stores
   per-node values including FF outputs, so plain lookup is correct in both
   cases. *)
let off_path_sp t u = t.sp.Sigprob.Sp.values.(u)

let p_sensitized_of_outputs per_observation =
  1.0
  -. List.fold_left (fun acc (_, p) -> acc *. (1.0 -. p)) 1.0 per_observation

let analyze_polarity ?(initial = Prob4.error_site) t (sa : Site_analysis.t) =
  let c = t.circuit in
  let n = Circuit.node_count c in
  let vec = Array.make n Prob4.error_site in
  let have = Array.make n false in
  vec.(sa.site) <- initial;
  have.(sa.site) <- true;
  let input_vector u =
    if sa.on_path.(u) then begin
      (* Topological processing guarantees every on-path fanin was already
         computed (the only on-path non-gate is the site itself).  A plain
         assert would vanish under -noassert, silently reading the dummy
         vector instead — keep it a real check in the reference engine (the
         batch engine enforces this structurally by walking levels). *)
      if not have.(u) then
        invalid_arg
          "Epp_engine.analyze_polarity: on-path fanin read before being \
           computed (gate order is not topological)";
      vec.(u)
    end
    else Prob4.of_sp (off_path_sp t u)
  in
  List.iter
    (fun g ->
      match Circuit.node c g with
      | Circuit.Gate { kind; fanins } ->
        vec.(g) <- Rules.propagate kind (Array.map input_vector fanins);
        have.(g) <- true
      | Circuit.Input | Circuit.Ff _ -> assert false)
    sa.on_path_gates;
  List.map
    (fun obs ->
      let net = Circuit.observation_net c obs in
      (obs, vec.(net)))
    sa.reached

let analyze_naive t (sa : Site_analysis.t) =
  let c = t.circuit in
  let n = Circuit.node_count c in
  let vec = Array.make n Rules.Naive.error_site in
  vec.(sa.site) <- Rules.Naive.error_site;
  let input_vector u =
    if sa.on_path.(u) then vec.(u) else Rules.Naive.of_sp (off_path_sp t u)
  in
  List.iter
    (fun g ->
      match Circuit.node c g with
      | Circuit.Gate { kind; fanins } ->
        vec.(g) <- Rules.Naive.propagate kind (Array.map input_vector fanins)
      | Circuit.Input | Circuit.Ff _ -> assert false)
    sa.on_path_gates;
  List.map
    (fun obs ->
      let net = Circuit.observation_net c obs in
      (obs, vec.(net).Rules.Naive.pe))
    sa.reached

(* The whole-circuit ablation: ignore the cone restriction and process every
   gate, feeding pure-SP vectors at gates the error cannot reach.  Produces
   identical probabilities at strictly higher cost; exists so the bench can
   show what the paper's path-construction step saves. *)
let full_order_analysis t site =
  let c = t.circuit in
  let on_path = Analysis.cone t.ctx site in
  let gates =
    Array.to_list (Analysis.order t.ctx)
    |> List.filter (fun v -> v <> site && Circuit.is_gate c v)
  in
  {
    Site_analysis.site;
    on_path;
    on_path_gates = gates;
    off_path = [];
    reached = Analysis.reached_observations t.ctx site;
  }

(* Full four-state vectors at the reachable observation points, optionally
   from a partial error at the site (the multi-cycle extension injects the
   vector latched in a flip-flop during an earlier cycle). *)
let analyze_site_vectors t ?initial site =
  let n = Circuit.node_count t.circuit in
  if site < 0 || site >= n then invalid_arg "Epp_engine.analyze_site_vectors: bad site";
  analyze_polarity ?initial t (Site_analysis.analyze t.circuit site)

let result_of (sa : Site_analysis.t) per_observation =
  {
    site = sa.site;
    p_sensitized = Sigprob.Sp_rules.clamp (p_sensitized_of_outputs per_observation);
    per_observation;
    cone_size = Site_analysis.on_path_signal_count sa;
    reached_outputs = List.length sa.reached;
  }

let polarity_result t sa =
  result_of sa
    (List.map (fun (obs, v) -> (obs, Prob4.p_error v)) (analyze_polarity t sa))

let analyze_site t site = polarity_result t (Site_analysis.analyze t.circuit site)

let analyze_site_whole_circuit t site =
  polarity_result t (full_order_analysis t site)

let analyze_site_naive t site =
  let sa = Site_analysis.analyze t.circuit site in
  result_of sa (analyze_naive t sa)

let pp_site_result circuit ppf r =
  Fmt.pf ppf "@[<v>site %s: P_sens = %.4f over %d output(s), cone %d@,%a@]"
    (Circuit.node_name circuit r.site)
    r.p_sensitized r.reached_outputs r.cone_size
    Fmt.(
      list ~sep:cut (fun ppf (obs, p) ->
          pf ppf "  -> %s: %.4f" (Circuit.observation_name circuit obs) p))
    r.per_observation
