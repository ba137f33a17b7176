(* Full-circuit soft error rate estimation — the paper's composition

     SER(n) = R_SEU(n) × P_latched(n) × P_sensitized(n)

   with the EPP engine supplying P_sensitized analytically.

   Two latching conventions are provided:
   - [Per_node] is the paper's literal form: one P_latched factor per node,
     multiplying the node's overall P_sensitized (we use the flip-flop
     window probability, the dominant capture mechanism);
   - [Per_observation] refines it: the error is latched if it is captured at
     at least one reached observation point, each with its own window
     probability — P_latched_effective(n) =
     1 - prod_j (1 - p_prop_j × p_latch(obs_j)).  This distinguishes PO
     capture from FF capture and is the default. *)

open Netlist

type latch_convention = Per_node | Per_observation

type node_report = {
  node : int;
  name : string;
  r_seu : float;  (** raw upsets per second *)
  p_sensitized : float;
  p_latched_effective : float;
  failure_rate : float;  (** failures per second *)
  fit : float;
  cone_size : int;
}

type report = {
  circuit : Circuit.t;
  technology : Seu_model.Technology.t;
  latching : Seu_model.Latching.t;
  electrical : Seu_model.Electrical.t option;
  convention : latch_convention;
  nodes : node_report array;
  total_failure_rate : float;
  total_fit : float;
}

(* Per-observation capture probability, optionally derated by electrical
   masking over the site->observation depth.  Depth is the true minimum
   number of gate traversals (BFS distance from the site).  It is read from
   the analysis context's per-observation distance maps — one backward BFS
   per observation point over the graph's predecessor arrays, shared by
   every site — instead of one forward BFS per site: O(obs · E) total, not
   O(sites · E).
   BFS unit-weight distances are unique, so the values are bit-identical to
   the per-site computation. *)
let capture_probability ~latching ~electrical ~ctx circuit ~site obs =
  match electrical with
  | None -> Seu_model.Latching.p_latched latching obs
  | Some el ->
    let depth =
      let d = (Analysis.distances_to ctx (Circuit.observation_net circuit obs)).(site) in
      if d = Bfs.unreachable then 0 (* never queried: unreachable obs are not in per_observation *)
      else d
    in
    Seu_model.Electrical.p_latched el latching ~levels:depth obs

(* The report over the entries [sites] builds with [node], in its order.
   [miss capture] is prod_j (1 - p_prop_j × capture obs_j) over the reached
   observation points in observation order, the order of a result's list and
   of a row's positions alike: both front ends compose bit-identical reports,
   each from its own representation. *)
let compose ?(technology = Seu_model.Technology.default)
    ?(latching = Seu_model.Latching.default) ?electrical
    ?(convention = Per_observation) ?(r_seu_scale = fun _ -> 1.0) circuit sites =
  Seu_model.Latching.check latching;
  Option.iter Seu_model.Electrical.check electrical;
  let node ~site ~p_sensitized ~cone_size miss =
    let scale = r_seu_scale site in
    if not (scale >= 0.0) (* also catches NaN *) then
      invalid_arg
        (Printf.sprintf "Ser_estimator: r_seu_scale %g at node %d" scale site);
    let r_seu = scale *. Seu_model.Technology.r_seu_node technology circuit site in
    (* The product P_latched × P_sensitized, folded per convention. *)
    let sens_and_latch =
      match convention with
      | Per_node -> Seu_model.Latching.p_latched_ff latching *. p_sensitized
      | Per_observation ->
        let ctx = Analysis.get circuit in
        1.0 -. miss (capture_probability ~latching ~electrical ~ctx circuit ~site)
    in
    let p_latched_effective =
      Sigprob.Sp_rules.clamp
        (if p_sensitized > 0.0 then sens_and_latch /. p_sensitized else 0.0)
    in
    let failure_rate = r_seu *. sens_and_latch in
    let fit = Seu_model.Fit.of_rate_per_second failure_rate in
    { node = site; name = Circuit.node_name circuit site; r_seu; p_sensitized;
      p_latched_effective; failure_rate; fit; cone_size }
  in
  let nodes = Array.of_list (sites node) in
  let total_failure_rate = Array.fold_left (fun acc n -> acc +. n.failure_rate) 0.0 nodes in
  let total_fit = Seu_model.Fit.of_rate_per_second total_failure_rate in
  { circuit; technology; latching; electrical; convention; nodes; total_failure_rate; total_fit }

let of_site_results ?technology ?latching ?electrical ?convention ?r_seu_scale
    circuit results =
  compose ?technology ?latching ?electrical ?convention ?r_seu_scale circuit
  @@ fun node ->
  List.map
    (fun { Epp_engine.site; p_sensitized; per_observation; cone_size; _ } ->
      node ~site ~p_sensitized ~cone_size (fun capture ->
          List.fold_left
            (fun acc (obs, p_prop) -> acc *. (1.0 -. (p_prop *. capture obs)))
            1.0 per_observation))
    results

let of_outcome ?technology ?latching ?electrical ?convention ?r_seu_scale
    engine (outcome : Supervisor.outcome) =
  let observations = Analysis.observations (Epp_engine.analysis engine) in
  compose ?technology ?latching ?electrical ?convention ?r_seu_scale
    (Epp_engine.circuit engine)
  @@ fun node ->
  List.filter_map
    (function
      | _, Supervisor.Quarantined _ -> None
      | site, Supervisor.Analyzed { row = { Site_row.p_sensitized; cone_size; positions; probabilities }; _ } ->
        Some
          (node ~site ~p_sensitized ~cone_size (fun capture ->
               let miss = ref 1.0 in
               Array.iteri
                 (fun j i ->
                   miss := !miss *. (1.0 -. (probabilities.(j) *. capture (fst observations.(i)))))
                 positions;
               !miss)))
    outcome.Supervisor.entries

(* --- the sweep driver ------------------------------------------------------

   Every unsupervised sweep goes through here: blocks of Epp_batch.max_lanes
   sites on the batch engine, fanned out whole across [domains]
   (Parallel.map_array keeps a handful of blocks on the calling domain).
   Each lane's site result is built straight from the block's collect
   buffer, with no row in between.  Results come back in input order.  A bad site id fails its whole block inside
   Block.run, so the lowest such block's Invalid_argument is raised;
   otherwise a faulting lane comes back as an Error and the earliest one
   in input order is raised. *)

let analyze_site_array ?(domains = 1) engine sites =
  Parallel.map_array ~domains
    ~workspace:(fun () -> Epp_batch.Block.create engine)
    ~release:Epp_batch.Block.release ~f:Epp_batch.Block.run_site_results
    (Epp_batch.blocks sites)
  |> Array.to_list |> Array.concat
  |> Array.map (function Ok r -> r | Error e -> raise e)

let analyze_sites ?domains engine sites =
  Array.to_list (analyze_site_array ?domains engine (Array.of_list sites))

let analyze_all ?domains engine =
  let n = Circuit.node_count (Epp_engine.circuit engine) in
  Array.to_list (analyze_site_array ?domains engine (Array.init n Fun.id))

let estimate ?technology ?latching ?electrical ?convention ?sp ?domains
    circuit =
  let engine = Epp_engine.create ?sp circuit in
  of_site_results ?technology ?latching ?electrical ?convention circuit
    (analyze_all ?domains engine)

(* A full sweep's report holds node [v] at index [v]; others are searched. *)
let node_report { circuit; nodes; _ } v =
  if v < 0 || v >= Circuit.node_count circuit then
    invalid_arg "Ser_estimator.node_report: bad node";
  if v < Array.length nodes && nodes.(v).node = v then nodes.(v)
  else
    match Array.find_opt (fun n -> n.node = v) nodes with
    | Some n -> n
    | None -> invalid_arg (Printf.sprintf "Ser_estimator.node_report: node %d was not analyzed" v)

let pp_summary ppf r =
  Fmt.pf ppf "@[<v>%s: total SER %.4f FIT over %d nodes (tech %s)@]"
    (Circuit.name r.circuit) r.total_fit (Array.length r.nodes) r.technology.Seu_model.Technology.name
