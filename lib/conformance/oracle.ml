(* The oracle registry: every P_sensitized back-end behind one interface.

   The crucial modelling decision is the input distribution.  The exact
   oracles (enumeration, BDD) and the Monte-Carlo baseline all treat the
   pseudo-inputs — primary inputs AND flip-flop outputs — as independent
   with the given 1-probabilities.  The analytical engine's default signal
   probabilities for sequential circuits are the *sequential fixpoint*
   (steady-state FF distributions), which models a different question.  So
   every analytical oracle here is built over the plain topological pass
   with the same input spec, making all eight oracles answer the same
   question and keeping the five analytical ones bit-comparable. *)

open Netlist

type soundness =
  | Exact
  | Analytical
  | Statistical of { vectors : int }
  | Certified

type result = {
  p_sensitized : float;
  per_observation : (Circuit.observation * float) list;
  interval : (float * float) option;
}

let interval_of r =
  match r.interval with Some iv -> iv | None -> (r.p_sensitized, r.p_sensitized)

type t = {
  name : string;
  soundness : soundness;
  available : Circuit.t -> string option;
  run : Circuit.t -> sites:int array -> result array;
}

let always_available _ = None

let spec_of input_sp =
  match input_sp with
  | None -> Sigprob.Sp.uniform
  | Some f -> Sigprob.Sp.of_fun f

let analytical_engine ?input_sp c =
  let sp = Sigprob.Sp_topological.compute ~spec:(spec_of input_sp) c in
  Epp.Epp_engine.create ~sp c

let of_site_result (r : Epp.Epp_engine.site_result) =
  { p_sensitized = r.Epp.Epp_engine.p_sensitized;
    per_observation = r.Epp.Epp_engine.per_observation;
    interval = None }

(* --- the back-ends -------------------------------------------------------- *)

let exact_enum ?input_sp ?(limit = 16) () =
  {
    name = "exact-enum";
    soundness = Exact;
    available =
      (fun c ->
        let k = List.length (Circuit.pseudo_inputs c) in
        if k > limit then
          Some (Printf.sprintf "%d pseudo-inputs exceed the %d enumeration limit" k limit)
        else None);
    run =
      (fun c ~sites ->
        Array.map
          (fun site ->
            let r = Fault_sim.Epp_exact.compute ?input_sp ~limit c site in
            { p_sensitized = r.Fault_sim.Epp_exact.p_sensitized;
              per_observation = r.Fault_sim.Epp_exact.per_observation;
              interval = None })
          sites);
  }

let exact_bdd ?input_sp ?node_limit () =
  {
    name = "exact-bdd";
    soundness = Exact;
    available =
      (fun c ->
        (* A conservative structural pre-check; Too_large during the build
           is still caught by the driver as a capacity skip. *)
        if Circuit.node_count c > 5_000 then Some "circuit too large for the BDD oracle"
        else None);
    run =
      (fun c ~sites ->
        let cb = Circuit_bdd.build ?node_limit c in
        Array.map
          (fun site ->
            let r = Circuit_bdd.epp_exact ?input_sp ?node_limit cb site in
            { p_sensitized = r.Circuit_bdd.p_sensitized;
              per_observation = r.Circuit_bdd.per_observation;
              interval = None })
          sites);
  }

let monte_carlo ?input_sp ?(vectors = 2048) ?(seed = 424242) () =
  {
    name = Printf.sprintf "mc-%d" vectors;
    soundness = Statistical { vectors };
    available = always_available;
    run =
      (fun c ~sites ->
        let input_sp = match input_sp with None -> fun _ -> 0.5 | Some f -> f in
        let sim = Fault_sim.Epp_sim.create ~config:{ vectors; input_sp } c in
        let rng = Rng.create ~seed in
        Array.map
          (fun site ->
            let r = Fault_sim.Epp_sim.estimate_site sim ~rng site in
            { p_sensitized = r.Fault_sim.Epp_sim.p_sensitized;
              per_observation = r.Fault_sim.Epp_sim.per_observation;
              interval = None })
          sites);
  }

let reference ?input_sp () =
  {
    name = "reference";
    soundness = Analytical;
    available = always_available;
    run =
      (fun c ~sites ->
        let engine = analytical_engine ?input_sp c in
        Array.map (fun site -> of_site_result (Epp.Epp_engine.analyze_site engine site)) sites);
  }

let batch ?input_sp () =
  {
    name = "batch";
    soundness = Analytical;
    available = always_available;
    run =
      (fun c ~sites ->
        let engine = analytical_engine ?input_sp c in
        Array.map of_site_result
          (Epp.Ser_estimator.analyze_site_array ~domains:1 engine sites));
  }

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_result (a : Epp.Epp_engine.site_result) (b : Epp.Epp_engine.site_result) =
  same_bits a.Epp.Epp_engine.p_sensitized b.Epp.Epp_engine.p_sensitized
  && List.equal
       (fun (o, p) (o', p') -> o = o' && same_bits p p')
       a.Epp.Epp_engine.per_observation b.Epp.Epp_engine.per_observation

(* The same sweep fanned out.  A conformance case has too few sites to
   start a second domain (Parallel.map_array keeps fewer than 2 x domains
   blocks on the calling domain), so the sites are repeated until there are
   that many blocks.  Each site's copies then land in different blocks,
   beside different lane-mates and on different domains; copies that
   disagree in any bit report NaN, which every policy flags. *)
let parallel ?input_sp ?(domains = max 2 (Epp.Parallel.default_domains ())) () =
  {
    name = "parallel";
    soundness = Analytical;
    available = always_available;
    run =
      (fun c ~sites ->
        let k = Array.length sites in
        if k = 0 then [||]
        else begin
          let engine = analytical_engine ?input_sp c in
          let copies = ((2 * domains * Epp.Epp_batch.max_lanes) + k - 1) / k in
          let all =
            Epp.Ser_estimator.analyze_site_array ~domains engine
              (Array.concat (List.init copies (fun _ -> sites)))
          in
          Array.init k (fun i ->
              let rec agree j =
                j >= copies
                || (same_result all.(i) all.((j * k) + i) && agree (j + 1))
              in
              let r = of_site_result all.(i) in
              if agree 1 then r else { r with p_sensitized = Float.nan })
        end);
  }

let supervised ?input_sp ?batch_run ?reference () =
  {
    name = "supervised";
    soundness = Analytical;
    available = always_available;
    run =
      (fun c ~sites ->
        let engine = analytical_engine ?input_sp c in
        let outcome =
          Epp.Supervisor.sweep ?batch_run ?reference engine (Array.to_list sites)
        in
        let observations =
          Netlist.Analysis.observations (Epp.Epp_engine.analysis engine)
        in
        outcome.Epp.Supervisor.entries
        |> List.map (fun (site, entry) ->
               match entry with
               | Epp.Supervisor.Analyzed { row; _ } ->
                 of_site_result (Epp.Site_row.to_site_result observations ~site row)
               | Epp.Supervisor.Quarantined _ ->
                 (* A quarantine in a conformance run is itself a finding:
                    surface it as NaN so every policy flags it. *)
                 { p_sensitized = Float.nan; per_observation = []; interval = None })
        |> Array.of_list);
  }

let certified ?input_sp ?config ?deadline ?stats () =
  {
    name = "certified";
    soundness = Certified;
    available = always_available;
    run =
      (fun c ~sites ->
        let verdicts = Certified.certify_sites ?config ?deadline ?input_sp ?stats c sites in
        Array.map
          (fun v ->
            {
              p_sensitized = 0.5 *. (v.Certified.lo +. v.Certified.hi);
              per_observation =
                List.map
                  (fun (o, (l, h)) -> (o, 0.5 *. (l +. h)))
                  v.Certified.per_observation;
              interval = Some (v.Certified.lo, v.Certified.hi);
            })
          verdicts);
  }

let default ?input_sp ?mc_vectors ?mc_seed ?enum_limit () =
  [
    exact_enum ?input_sp ?limit:enum_limit ();
    exact_bdd ?input_sp ();
    monte_carlo ?input_sp ?vectors:mc_vectors ?seed:mc_seed ();
    reference ?input_sp ();
    batch ?input_sp ();
    parallel ?input_sp ();
    supervised ?input_sp ();
  ]

(* --- agreement policies ---------------------------------------------------- *)

type policy =
  | Bitwise
  | Within of float
  | Envelope of float
  | Wilson of { z : float; vectors : int; slack : float }
  | Interval of { slack : float }

let default_envelope = 0.65
let default_z = 4.5

let policy ~envelope ~z a b =
  match (a.soundness, b.soundness) with
  | Analytical, Analytical -> Some Bitwise
  | Exact, Exact -> Some (Within 1e-9)
  | Exact, Analytical | Analytical, Exact -> Some (Envelope envelope)
  | Statistical { vectors }, Exact | Exact, Statistical { vectors } ->
    Some (Wilson { z; vectors; slack = 0.0 })
  | Statistical { vectors }, Analytical | Analytical, Statistical { vectors } ->
    Some (Wilson { z; vectors; slack = envelope })
  | Statistical _, Statistical _ -> None
  (* Certified results carry a sound interval; a point value inside it (or
     within [slack] of it) agrees.  Against an analytical engine the slack
     is the calibrated envelope — a degenerate interval then behaves
     exactly like the Envelope policy.  Against an exact oracle (or a
     second certified one) the slack is the float tolerance: a point (or
     interval) separated from a *sound* interval is a hard finding — one
     of the two computations is provably wrong. *)
  | Certified, Analytical | Analytical, Certified -> Some (Interval { slack = envelope })
  | Certified, Exact | Exact, Certified | Certified, Certified ->
    Some (Interval { slack = 1e-9 })
  | Certified, Statistical _ | Statistical _, Certified -> None

let is_statistical = function
  | Wilson _ -> true
  | Bitwise | Within _ | Envelope _ | Interval _ -> false

type mismatch = {
  left : string;
  right : string;
  site : int;
  site_name : string;
  quantity : string;
  lhs : float;
  rhs : float;
  policy : policy;
  gap : float;
}

(* Distance beyond the allowance; [infinity] for NaN operands.  [phat] must
   be the statistical side's estimate for the Wilson policy. *)
let excess policy ~phat ~other =
  if Float.is_nan phat || Float.is_nan other then infinity
  else
    match policy with
    | Bitwise -> if phat = other then 0.0 else Float.abs (phat -. other)
    | Within eps -> Float.max 0.0 (Float.abs (phat -. other) -. eps)
    | Envelope e -> Float.max 0.0 (Float.abs (phat -. other) -. e)
    | Wilson { z; vectors; slack } ->
      let n = float_of_int vectors in
      let z2 = z *. z in
      let denom = 1.0 +. (z2 /. n) in
      let center = (phat +. (z2 /. (2.0 *. n))) /. denom in
      let half =
        z /. denom *. sqrt ((phat *. (1.0 -. phat) /. n) +. (z2 /. (4.0 *. n *. n)))
      in
      (* At the degenerate estimates (phat 0 or 1) the interval endpoint
         equals phat only in real arithmetic; absorb the float rounding of
         center +/- half with an epsilon far below any statistical signal. *)
      Float.max 0.0 (Float.abs (other -. center) -. half -. slack -. 1e-9)
    | Interval { slack } ->
      (* scalar fallback; compare_site uses the carried intervals *)
      Float.max 0.0 (Float.abs (phat -. other) -. slack)

(* Separation of two intervals beyond [slack]; 0 when they overlap. *)
let interval_gap ~slack (alo, ahi) (blo, bhi) =
  if
    Float.is_nan alo || Float.is_nan ahi || Float.is_nan blo || Float.is_nan bhi
  then infinity
  else Float.max 0.0 (Float.max (alo -. bhi) (blo -. ahi) -. slack)

let deviation a b =
  if Float.is_nan a.p_sensitized || Float.is_nan b.p_sensitized then infinity
  else Float.abs (a.p_sensitized -. b.p_sensitized)

(* Union of the two per-observation lists, keyed by observation point;
   an absent entry (an unreached point) reads 0. *)
let aligned_observations circuit a b =
  let keys = Circuit.observations circuit in
  List.filter_map
    (fun obs ->
      let find l = List.assoc_opt obs l in
      match (find a.per_observation, find b.per_observation) with
      | None, None -> None
      | va, vb ->
        Some
          ( "obs:" ^ Circuit.observation_name circuit obs,
            Option.value va ~default:0.0,
            Option.value vb ~default:0.0 ))
    keys

let compare_site ~policy:p ~left ~right circuit site ra rb =
  let site_name = Circuit.node_name circuit site in
  match p with
  | Interval { slack } ->
    let gap = interval_gap ~slack (interval_of ra) (interval_of rb) in
    if gap > 0.0 then
      [
        { left = left.name; right = right.name; site; site_name;
          quantity = "p_sensitized"; lhs = ra.p_sensitized; rhs = rb.p_sensitized;
          policy = p; gap };
      ]
    else []
  | Bitwise | Within _ | Envelope _ | Wilson _ ->
  let quantities =
    match p with
    | Bitwise | Within _ ->
      ("p_sensitized", ra.p_sensitized, rb.p_sensitized)
      :: aligned_observations circuit ra rb
    | Envelope _ | Wilson _ | Interval _ ->
      [ ("p_sensitized", ra.p_sensitized, rb.p_sensitized) ]
  in
  List.filter_map
    (fun (quantity, lhs, rhs) ->
      (* For Wilson, [phat] must be the statistical side. *)
      let phat, other =
        match (p, left.soundness, right.soundness) with
        | Wilson _, Statistical _, _ -> (lhs, rhs)
        | Wilson _, _, Statistical _ -> (rhs, lhs)
        | _ -> (lhs, rhs)
      in
      let gap = excess p ~phat ~other in
      if gap > 0.0 then
        Some
          { left = left.name; right = right.name; site; site_name; quantity; lhs; rhs;
            policy = p; gap }
      else None)
    quantities

let pp_policy ppf = function
  | Bitwise -> Fmt.string ppf "bitwise"
  | Within eps -> Fmt.pf ppf "within %g" eps
  | Envelope e -> Fmt.pf ppf "envelope %g" e
  | Wilson { z; vectors; slack } ->
    Fmt.pf ppf "wilson z=%g n=%d slack=%g" z vectors slack
  | Interval { slack } -> Fmt.pf ppf "interval slack=%g" slack

let pp_mismatch ppf m =
  Fmt.pf ppf "%s ~ %s disagree at site %d (%s) on %s: %.9g vs %.9g (policy %a, gap %.3g)"
    m.left m.right m.site m.site_name m.quantity m.lhs m.rhs pp_policy m.policy m.gap
