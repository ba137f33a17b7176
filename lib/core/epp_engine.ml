(* The paper's EPP computation — Sec. 2, steps 1-3, per error site:

   1. Path construction: the site's forward cone (Site_analysis, from the
      circuit's Analysis context), searched at the cone's cost.
   2. Ordering: the cone comes as its members in the circuit's one
      topological order, computed once per circuit and shared by every
      site.
   3. EPP computation: walk the on-path gates in that order; on-path
      fanins contribute their four-state vectors, off-path fanins contribute
      their signal probability as P1/P0 mass; apply the Table-1 rules.
      Vectors live in an array indexed by position in the cone.

   Afterwards, for the reachable outputs:

     P_sensitized(n) = 1 - prod_j (1 - (Pa(POj) + Pā(POj)))

   The engine owns the per-circuit invariants (topological order, signal
   probabilities); each analyze_site call costs its cone: nothing in it is
   allocated or scanned per circuit node.  This boxed path is the reference
   oracle: the production sweep (Epp_batch, the "SysT" cost of Table 2)
   must match it bit for bit.  The two ablations the bench times against it
   (polarity-blind rules, no cone restriction) are per-site functions
   beside it. *)

open Netlist

type t = {
  circuit : Circuit.t;
  sp : Sigprob.Sp.result;
  sp_fixpoint : Sigprob.Sp_sequential.outcome option;
      (* how the sequential fixpoint behind [sp] ended, when the engine
         ran it itself *)
  ctx : Analysis.t;
      (* the circuit's shared analysis context: cones, topological
         positions, gates-only order (the no-cone ablation) *)
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
  let sp, sp_fixpoint =
    match sp with
    | Some r ->
      if r.Sigprob.Sp.circuit != circuit then
        invalid_arg "Epp_engine.create: sp computed on a different circuit";
      validate_sp circuit r;
      (r, None)
    | None -> Sigprob.Sp_sequential.default_outcome circuit
  in
  Obs.Trace.span tracer ~cat:"epp" "epp.levelize" @@ fun () ->
  (* Everything structural comes from the shared context: the first engine
     on a circuit pays for the topological sort, every later engine (and
     every other subsystem on the same circuit) reuses it. *)
  let ctx = Analysis.get circuit in
  { circuit; sp; sp_fixpoint; ctx }

let circuit t = t.circuit
let analysis t = t.ctx
let signal_probabilities t = t.sp
let sp_fixpoint t = t.sp_fixpoint

(* FF outputs take their *data net's* converged probability when the
   sequential fixpoint produced the sp result; Sp_sequential already stores
   per-node values including FF outputs, so plain lookup is correct in both
   cases. *)
let off_path_sp t u = t.sp.Sigprob.Sp.values.(u)

let p_sensitized_of_outputs per_observation =
  1.0
  -. List.fold_left (fun acc (_, p) -> acc *. (1.0 -. p)) 1.0 per_observation

(* Step 3: one Table-1 pass over [gates] in topological order.  An on-path
   signal's vector lives in [vec] at [slot u]; [slot u < 0] marks an
   off-path signal, which contributes its signal probability.  The [i]th
   scheduled gate [g] stores its vector at [store i g]; a scheduled gate
   off the path (only the whole-circuit ablation schedules any) stores
   nothing, since no on-path gate reads it as a vector. *)
let pass t ~of_sp ~propagate ~initial ~slot ~store ~slots ~site gates reached =
  let c = t.circuit in
  let vec = Array.make slots initial in
  let have = Array.make slots false in
  have.(slot site) <- true;
  let input_vector u =
    let i = slot u in
    if i < 0 then of_sp (off_path_sp t u)
    else begin
      (* Topological processing guarantees every on-path fanin was already
         computed.  A plain assert would vanish under -noassert, silently
         reading the dummy vector instead — keep it a real check in the
         reference engine (the batch engine enforces this structurally by
         walking levels). *)
      if not have.(i) then
        invalid_arg
          "Epp_engine.analyze_polarity: on-path fanin read before being \
           computed (gate order is not topological)";
      vec.(i)
    end
  in
  Array.iteri
    (fun i g ->
      if g <> site then
        match Circuit.node c g with
        | Circuit.Gate { kind; fanins } ->
          let v = propagate kind (Array.map input_vector fanins) in
          let s = store i g in
          if s >= 0 then begin
            vec.(s) <- v;
            have.(s) <- true
          end
        | Circuit.Input | Circuit.Ff _ -> assert false)
    gates;
  List.map (fun obs -> (obs, vec.(slot (Circuit.observation_net c obs)))) reached

(* The cone-local pass: the cone's members are the schedule (the site
   first), and a signal's vector lives at its index in the cone, found
   among the members' topological positions (Reach.lookup). *)
let cone_pass t ~of_sp ~propagate ~initial (sa : Site_analysis.t) =
  let members = Reach.lookup ~position:(Analysis.position t.ctx) sa.on_path in
  pass t ~of_sp ~propagate ~initial ~slot:(fun u -> Reach.find members u)
    ~store:(fun i _ -> i)
    ~slots:(Array.length sa.on_path) ~site:sa.site sa.on_path sa.reached

let analyze_polarity ?(initial = Prob4.error_site) t sa =
  cone_pass t ~of_sp:Prob4.of_sp ~propagate:Rules.propagate ~initial sa

let analyze_naive t sa =
  List.map
    (fun (obs, v) -> (obs, v.Rules.Naive.pe))
    (cone_pass t ~of_sp:Rules.Naive.of_sp ~propagate:Rules.Naive.propagate
       ~initial:Rules.Naive.error_site sa)

(* The whole-circuit ablation: ignore the cone restriction and process every
   gate, feeding pure-SP vectors at gates the error cannot reach.  Produces
   identical probabilities at strictly higher cost; exists so the bench can
   show what the paper's path-construction step saves.  It marks the cone
   in its own node-sized mask and keeps vectors by node id. *)
let whole_circuit_polarity t (sa : Site_analysis.t) =
  let n = Circuit.node_count t.circuit in
  let on_path = Array.make n false in
  Array.iter (fun v -> on_path.(v) <- true) sa.on_path;
  let slot u = if on_path.(u) then u else -1 in
  pass t ~of_sp:Prob4.of_sp ~propagate:Rules.propagate ~initial:Prob4.error_site ~slot
    ~store:(fun _ g -> slot g)
    ~slots:n ~site:sa.site (Analysis.gate_order t.ctx) sa.reached

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

let polarity_result sa vectors =
  result_of sa (List.map (fun (obs, v) -> (obs, Prob4.p_error v)) vectors)

let analyze_site t site =
  let sa = Site_analysis.analyze t.circuit site in
  polarity_result sa (analyze_polarity t sa)

let analyze_site_whole_circuit t site =
  let sa = Site_analysis.analyze t.circuit site in
  polarity_result sa (whole_circuit_polarity t sa)

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
