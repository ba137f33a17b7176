(* Exact error propagation probability by weighted exhaustive enumeration.

   Ground truth for the test suite: on circuits with few enough
   pseudo-inputs we enumerate every input assignment, simulate both machines
   and accumulate the weight of the assignments on which the error reaches
   each observation point.  The analytical EPP engine must match this exactly
   on fanout-free cones and closely elsewhere. *)

open Netlist

exception Too_many_inputs of { inputs : int; limit : int }

let default_limit = 20

type site_exact = {
  site : int;
  p_sensitized : float;
  per_observation : (Circuit.observation * float) list;
}

let compute ?(input_sp = fun _ -> 0.5) ?(limit = default_limit) circuit site =
  let pseudo = Array.of_list (Circuit.pseudo_inputs circuit) in
  let k = Array.length pseudo in
  if k > limit then raise (Too_many_inputs { inputs = k; limit });
  let n = Circuit.node_count circuit in
  if site < 0 || site >= n then invalid_arg "Epp_exact.compute: bad site";
  let input_p = Array.map input_sp pseudo in
  Array.iter (fun p -> Sigprob.Sp_rules.check_probability ~what:"input" p) input_p;
  let cs = Logic_sim.Sim.compile circuit in
  let ctx = Analysis.get circuit in
  let cone = Analysis.cone ctx site in
  let observations = Circuit.observations circuit in
  let obs_nets = Array.copy (Analysis.observation_nets ctx) in
  let obs_count = Array.length obs_nets in
  let any_weight = ref 0.0 in
  let obs_weight = Array.make obs_count 0.0 in
  let base = Array.make n false in
  for assignment = 0 to (1 lsl k) - 1 do
    let weight = ref 1.0 in
    Array.iteri
      (fun i v ->
        let bit = assignment land (1 lsl i) <> 0 in
        base.(v) <- bit;
        weight := !weight *. (if bit then input_p.(i) else 1.0 -. input_p.(i)))
      pseudo;
    if !weight > 0.0 then begin
      Logic_sim.Sim.run_bool cs base;
      (* Faulty machine: flip the site, re-evaluate its cone. *)
      let faulty = Array.copy base in
      faulty.(site) <- not base.(site);
      Array.iter
        (fun v ->
          if v <> site then
            match Circuit.node circuit v with
            | Circuit.Gate { kind; fanins } ->
              faulty.(v) <- Gate.eval kind (Array.map (fun u -> faulty.(u)) fanins)
            | Circuit.Input | Circuit.Ff _ -> ())
        cone;
      let any = ref false in
      Array.iteri
        (fun i net ->
          if base.(net) <> faulty.(net) then begin
            obs_weight.(i) <- obs_weight.(i) +. !weight;
            any := true
          end)
        obs_nets;
      if !any then any_weight := !any_weight +. !weight
    end
  done;
  {
    site;
    p_sensitized = Sigprob.Sp_rules.clamp !any_weight;
    per_observation =
      List.mapi (fun i obs -> (obs, Sigprob.Sp_rules.clamp obs_weight.(i))) observations;
  }
