(* Compact test sets for vulnerable sites — ATPG-lite on top of the EPP
   flow.

   The estimator tells you *which* nodes matter; a validation campaign then
   needs concrete input vectors that demonstrate each site's error at an
   observation point (e.g. for beam-test setup or RTL fault-injection
   campaigns).  Greedy generation:

     while some testable site is uncovered:
       take a BDD witness vector for one uncovered site (exact: it is
       guaranteed to propagate that site's flip);
       fault-simulate every still-uncovered site under that vector and
       retire all the sites it happens to cover;

   Sites with no witness at all are exactly the untestable ones
   (exact P_sensitized = 0).  The result is verified by construction: every
   (vector, site) coverage claim comes from actual simulation. *)

open Netlist

type t = {
  circuit : Circuit.t;
  vectors : bool array list;  (** assignments in {!Circuit.pseudo_inputs} order *)
  coverage : (int * int list) list;  (** per vector (same order): sites it retired *)
  untestable : int list;
}

let vector_count t = List.length t.vectors
let covered_count t = List.fold_left (fun acc (_, sites) -> acc + List.length sites) 0 t.coverage

(* Does flipping [site] under [values] (a completed fault-free evaluation)
   change any observation net?  The greedy loop fault-simulates every
   still-uncovered site under every candidate vector; each call searches
   the site's cone, which costs the cone, as the re-simulation over it
   does. *)
let detects circuit cs ~ctx ~obs_nets values site =
  let cone = Analysis.cone ctx site in
  ignore cs;
  let faulty = Array.copy values in
  faulty.(site) <- not values.(site);
  Array.iter
    (fun v ->
      if v <> site then
        match Circuit.node circuit v with
        | Circuit.Gate { kind; fanins } ->
          faulty.(v) <- Gate.eval kind (Array.map (fun u -> faulty.(u)) fanins)
        | Circuit.Input | Circuit.Ff _ -> ())
    cone;
  List.exists (fun net -> values.(net) <> faulty.(net)) obs_nets

let generate ?sites ?node_limit circuit =
  let n = Circuit.node_count circuit in
  let sites =
    match sites with
    | Some s ->
      List.iter
        (fun v -> if v < 0 || v >= n then invalid_arg "Test_set.generate: bad site")
        s;
      s
    | None -> List.init n Fun.id
  in
  let cb = Circuit_bdd.build ?node_limit circuit in
  let cs = Logic_sim.Sim.compile circuit in
  let ctx = Analysis.get circuit in
  let obs_nets = Array.to_list (Analysis.observation_nets ctx) in
  let pseudo = Array.of_list (Circuit.pseudo_inputs circuit) in
  let uncovered = ref sites in
  let untestable = ref [] in
  let vectors = ref [] in
  let coverage = ref [] in
  let vector_index = ref 0 in
  let continue = ref true in
  while !continue do
    match !uncovered with
    | [] -> continue := false
    | site :: rest -> (
      match Circuit_bdd.propagation_witness ?node_limit cb site with
      | None ->
        untestable := site :: !untestable;
        uncovered := rest
      | Some w ->
        (* materialize the witness as a full pseudo-input assignment *)
        let entry = Array.make (Array.length pseudo) false in
        Array.iteri
          (fun i v ->
            entry.(i) <- (try List.assoc v w.Circuit_bdd.assignment with Not_found -> false))
          pseudo;
        let values = Array.make n false in
        Array.iteri (fun i v -> values.(v) <- entry.(i)) pseudo;
        Logic_sim.Sim.run_bool cs values;
        let retired, remaining =
          List.partition (fun s -> detects circuit cs ~ctx ~obs_nets values s) !uncovered
        in
        (* The witness's own site must be among the retired ones — the BDD
           said so exactly; anything else is a bug worth crashing on. *)
        assert (List.mem site retired);
        vectors := entry :: !vectors;
        coverage := (!vector_index, retired) :: !coverage;
        incr vector_index;
        uncovered := remaining)
  done;
  {
    circuit;
    vectors = List.rev !vectors;
    coverage = List.rev !coverage;
    untestable = List.sort compare !untestable;
  }

let pp ppf t =
  Fmt.pf ppf "%d vector(s) covering %d site(s), %d untestable" (vector_count t)
    (covered_count t) (List.length t.untestable)
