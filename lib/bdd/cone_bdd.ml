(* Cone-partitioned exact EPP under a node budget.

   Circuit_bdd builds every node's function over every pseudo-input — fine
   for corpus-sized circuits, hopeless at ISCAS scale where one monolithic
   manager blows past any limit long before most sites are reached.  This
   builder works per site: only the fan-in cones of the observation points
   the site actually reaches are built, over only the pseudo-inputs in
   those cones (the site's true support), with an initial variable order
   from a fanin-first DFS so related inputs sit at adjacent levels.  When
   the manager crosses half its node budget while the good and faulty
   machines are built it gets one shot of sifting (Bdd.Reorder) and
   continues in the reordered manager; crossing the full budget is a trip,
   reported to the caller instead of raised — the certified tier falls back
   to interval bounds, it does not fail.

   The library has no obs dependency, so cancellation is a plain
   [should_stop] closure; the certified tier threads Obs.Deadline through
   it. *)

open Netlist

type exact = {
  site : int;
  p_sensitized : float;
  per_observation : (Circuit.observation * float) list;
  bdd_nodes : int;
  support : int;
  reordered : bool;
}

type outcome = Exact of exact | Budget_exceeded of { nodes : int; support : int }

let default_node_budget = 100_000

exception Trip of int
exception Stopped

let epp_exact_cone ?(input_sp = fun _ -> 0.5) ?(node_budget = default_node_budget)
    ?(allow_reorder = true) ?(should_stop = fun () -> false) circuit site =
  if site < 0 || site >= Circuit.node_count circuit then
    invalid_arg "Cone_bdd.epp_exact_cone: bad site";
  if node_budget < 16 then invalid_arg "Cone_bdd.epp_exact_cone: budget too small";
  let ctx = Analysis.get circuit in
  let observations = Circuit.observations circuit in
  let cone = Analysis.cone ctx site in
  let reached = Analysis.reached_observations ctx cone in
  if reached = [] then
    (* Unobservable site: exact by construction, no symbolic work at all. *)
    Exact
      {
        site;
        p_sensitized = 0.0;
        per_observation = List.map (fun o -> (o, 0.0)) observations;
        bdd_nodes = 0;
        support = 0;
        reordered = false;
      }
  else begin
    let n = Circuit.node_count circuit in
    let obs_nets = List.map (Circuit.observation_net circuit) reached in
    (* Relevant nodes: the reached observation nets' fan-in cones, in
       topological order — everything the good functions can mention. *)
    let relevant = Analysis.fanin_cone ctx obs_nets in
    (* Initial variable order: first touch in a fanin-first DFS from the
       observation nets, so structurally related inputs land on adjacent
       levels — the classic topology heuristic sifting then refines. *)
    let var_of_node = Array.make n (-1) in
    let touched = ref [] and support = ref 0 in
    let seen = Array.make n false in
    let rec dfs v =
      if not seen.(v) then begin
        seen.(v) <- true;
        match Circuit.node circuit v with
        | Circuit.Input | Circuit.Ff _ ->
          var_of_node.(v) <- !support;
          touched := v :: !touched;
          incr support
        | Circuit.Gate { fanins; _ } -> Array.iter dfs fanins
      end
    in
    List.iter dfs obs_nets;
    let support = !support in
    let var_node = ref (Array.of_list (List.rev !touched)) in
    let manager = ref (Bdd.create ~var_count:support) in
    let node_fn = Array.make n Bdd.zero in
    let built = Array.make n false in
    let faulty = Array.make n Bdd.zero in
    let fbuilt = Array.make n false in
    let reordered = ref false in
    (* Sifting remaps only [node_fn] and [faulty]; once the observation
       indicators are being built, a sift would leave the ones built so far
       pointing into the discarded manager. *)
    let may_sift = ref allow_reorder in
    let do_reorder () =
      (* Every live function — good and faulty — is a root; sifting hands
         back a fresh manager plus the images of those roots, and the
         variable<->circuit-node maps follow the permutation. *)
      let ids = Array.copy relevant in
      Array.sort Int.compare ids;
      let slots = ref [] in
      for i = Array.length ids - 1 downto 0 do
        let v = ids.(i) in
        if fbuilt.(v) then slots := (v, true) :: !slots;
        if built.(v) then slots := (v, false) :: !slots
      done;
      let slots = Array.of_list !slots in
      let roots =
        Array.map (fun (v, is_faulty) -> if is_faulty then faulty.(v) else node_fn.(v)) slots
      in
      let plan, fresh, images = Bdd.Reorder.sift !manager ~roots in
      Array.iteri
        (fun i (v, is_faulty) ->
          if is_faulty then faulty.(v) <- images.(i) else node_fn.(v) <- images.(i))
        slots;
      let old = !var_node in
      let vn = Array.map (fun old_var -> old.(old_var)) plan.Bdd.Reorder.perm in
      Array.iteri (fun v cnode -> var_of_node.(cnode) <- v) vn;
      var_node := vn;
      manager := fresh;
      reordered := true
    in
    let guard () =
      if should_stop () then raise Stopped;
      let nodes = Bdd.node_count !manager in
      if (not !reordered) && !may_sift && nodes > node_budget / 2 then begin
        do_reorder ();
        let after = Bdd.node_count !manager in
        if after > node_budget then raise (Trip after)
      end
      else if nodes > node_budget then raise (Trip nodes)
    in
    try
      (* Good machine over the relevant cone. *)
      Array.iter
        (fun v ->
          (match Circuit.node circuit v with
          | Circuit.Input | Circuit.Ff _ ->
            node_fn.(v) <- Bdd.var !manager var_of_node.(v)
          | Circuit.Gate { kind; fanins } ->
            node_fn.(v) <-
              Circuit_bdd.gate_fn !manager kind (Array.map (fun u -> node_fn.(u)) fanins));
          built.(v) <- true;
          guard ())
        relevant;
      (* Faulty machine: site complemented, rebuilt over forward cone ∩
         relevant, the cone members the good machine built (a fanin of a
         relevant node is relevant, so every faulty input is available). *)
      faulty.(site) <- Bdd.bnot !manager node_fn.(site);
      fbuilt.(site) <- true;
      guard ();
      Array.iter
        (fun v ->
          if built.(v) && v <> site then begin
            match Circuit.node circuit v with
            | Circuit.Gate { kind; fanins } ->
              let ins =
                Array.map (fun u -> if fbuilt.(u) then faulty.(u) else node_fn.(u)) fanins
              in
              faulty.(v) <- Circuit_bdd.gate_fn !manager kind ins;
              fbuilt.(v) <- true;
              guard ()
            | Circuit.Input | Circuit.Ff _ -> ()
          end)
        cone;
      may_sift := false;
      let indicators =
        List.map
          (fun obs ->
            let net = Circuit.observation_net circuit obs in
            if fbuilt.(net) then begin
              let ind = Bdd.bxor !manager node_fn.(net) faulty.(net) in
              guard ();
              ind
            end
            else Bdd.zero)
          observations
      in
      let any =
        List.fold_left
          (fun acc ind ->
            let r = Bdd.bor !manager acc ind in
            guard ();
            r)
          Bdd.zero indicators
      in
      let vn = !var_node in
      let var_p var = input_sp vn.(var) in
      Exact
        {
          site;
          p_sensitized = Bdd.probability !manager ~var_p any;
          per_observation =
            List.map2
              (fun obs ind -> (obs, Bdd.probability !manager ~var_p ind))
              observations indicators;
          bdd_nodes = Bdd.node_count !manager;
          support;
          reordered = !reordered;
        }
    with
    | Trip nodes -> Budget_exceeded { nodes; support }
    | Stopped -> Budget_exceeded { nodes = Bdd.node_count !manager; support }
  end
