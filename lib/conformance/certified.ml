(* The certified exact tier: a verdict for every site, at any scale.

   The exact oracles are all-or-nothing — enumeration dies past ~20
   pseudo-inputs, the monolithic BDD past a few thousand nodes — so on
   Table-2-scale circuits the fuzzer had no exact side at all and the
   envelope was calibrated only on toy cases.  This module is a budget
   ladder that never comes back empty-handed:

     1. cone-partitioned BDD with one sifting rung (Cone_bdd) — an exact
        value, certificate [Bdd_exact];
     2. on budget trip, sound probability bounds by interval propagation —
        Fréchet inequalities over signal probabilities plus exact
        error-difference identities over the fault cone, valid under
        arbitrary reconvergent correlation, certificate [Interval_bound];
     3. when the sound interval is too wide to separate agree from
        disagree, stratified Monte-Carlo tightens it: per-stratum Wilson
        intervals at a high z, combined by exact stratum weights and
        intersected with the sound bound.  A Wilson interval disjoint from
        the sound bound is a *rejected* certificate (the sampler is lying;
        the seam exists so tests can prove this fires), counted in
        [conformance.certified.mc_rejected] and the sound interval stands.

   Tier 1 and 2 are unconditionally sound.  Tier 3 is statistically sound
   at the configured z (default 4.5 — odds of a false certificate around
   7e-6 per site), and says so in its certificate.

   The interval arithmetic deliberately assumes nothing about input
   independence below a gate: AND uses lo = max(0, sum lo_i - (k-1)),
   hi = min hi_i; OR the dual; XOR the two-sided Fréchet bound
   P(A xor B) in [|a-b|, min(a+b, 2-a-b)] folded pairwise.  For the
   error-difference pass these combine with two exact identities: through
   an XOR/XNOR gate the output difference is the XOR of the input
   differences, and through an AND/OR gate with a single possibly-faulty
   fanin the output difference is that fanin's difference AND-ed with the
   side condition "every other input is at the non-controlling value".
   On tree-shaped fan-in (parity towers included) the intervals collapse
   to near-exact values; reconvergence widens them instead of silently
   biasing them — which is the whole point. *)

open Netlist

let count name = Obs.Metrics.incr (Obs.Metrics.counter (Obs.Hooks.metrics ()) name)

let observe name x =
  Obs.Metrics.observe (Obs.Metrics.histogram (Obs.Hooks.metrics ()) name) x

(* --- certificates ---------------------------------------------------------- *)

type certificate =
  | Bdd_exact of { bdd_nodes : int; support : int; reordered : bool }
  | Interval_bound
  | Mc_wilson of { vectors : int; z : float; strata : int }

type verdict = {
  site : int;
  lo : float;
  hi : float;
  per_observation : (Circuit.observation * (float * float)) list;
  certificate : certificate;
  seconds : float;
}

let is_exact v = v.hi -. v.lo <= 1e-12

type config = {
  node_budget : int;
  allow_reorder : bool;
  target_width : float;
  mc_base_vectors : int;
  mc_max_vectors : int;
  mc_seed : int;
  z : float;
}

let default_config =
  {
    node_budget = 50_000;
    allow_reorder = true;
    target_width = 0.05;
    mc_base_vectors = 2048;
    mc_max_vectors = 32_768;
    mc_seed = 900_913;
    z = 4.5;
  }

module Stats = struct
  type t = {
    mutable bdd_exact : int;
    mutable interval : int;
    mutable mc_certified : int;
    mutable budget_trips : int;
    mutable mc_rejected : int;
    mutable seconds : float list;
  }

  let create () =
    {
      bdd_exact = 0;
      interval = 0;
      mc_certified = 0;
      budget_trips = 0;
      mc_rejected = 0;
      seconds = [];
    }

  let bdd_exact t = t.bdd_exact
  let interval t = t.interval
  let mc_certified t = t.mc_certified
  let budget_trips t = t.budget_trips
  let mc_rejected t = t.mc_rejected
  let total t = t.bdd_exact + t.interval + t.mc_certified

  let p95_seconds t =
    match t.seconds with
    | [] -> 0.0
    | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      a.(min (n - 1) (int_of_float (0.95 *. float_of_int n)))
end

(* --- interval arithmetic ---------------------------------------------------- *)

let clamp01 x = if x < 0.0 then 0.0 else if x > 1.0 then 1.0 else x

let complement (lo, hi) = (1.0 -. hi, 1.0 -. lo)

(* P(all of k events), any joint distribution. *)
let and_fold ivs =
  let k = Array.length ivs in
  let sum_lo = Array.fold_left (fun s (l, _) -> s +. l) 0.0 ivs in
  let hi = Array.fold_left (fun m (_, h) -> Float.min m h) 1.0 ivs in
  (Float.max 0.0 (sum_lo -. float_of_int (k - 1)), hi)

(* P(any of k events), any joint distribution. *)
let or_fold ivs =
  let lo = Array.fold_left (fun m (l, _) -> Float.max m l) 0.0 ivs in
  let sum_hi = Array.fold_left (fun s (_, h) -> s +. h) 0.0 ivs in
  (lo, Float.min 1.0 sum_hi)

(* P(A xor B) in [|a-b|, min(a+b, 2-a-b)] for any coupling of A and B. *)
let xor2 (al, ah) (bl, bh) =
  let lo = if al <= bh && bl <= ah then 0.0 else Float.max (al -. bh) (bl -. ah) in
  let s_lo = al +. bl and s_hi = ah +. bh in
  let hi =
    if s_lo <= 1.0 && 1.0 <= s_hi then 1.0 else if s_hi < 1.0 then s_hi else 2.0 -. s_lo
  in
  (lo, Float.min 1.0 hi)

let xor_fold ivs = Array.fold_left xor2 (0.0, 0.0) ivs

(* Sound signal-probability interval per node: inputs are points, every
   gate widens by the Fréchet rule for its function.  One O(V + E) pass. *)
let sp_intervals ~input_sp ctx =
  let c = Analysis.circuit ctx in
  let n = Circuit.node_count c in
  let sp = Array.make n (0.0, 0.0) in
  Array.iter
    (fun v ->
      match Circuit.node c v with
      | Circuit.Input | Circuit.Ff _ ->
        let p = clamp01 (input_sp v) in
        sp.(v) <- (p, p)
      | Circuit.Gate { kind; fanins } ->
        let ivs = Array.map (fun u -> sp.(u)) fanins in
        sp.(v) <-
          (match kind with
          | Gate.And -> and_fold ivs
          | Gate.Nand -> complement (and_fold ivs)
          | Gate.Or -> or_fold ivs
          | Gate.Nor -> complement (or_fold ivs)
          | Gate.Xor -> xor_fold ivs
          | Gate.Xnor -> complement (xor_fold ivs)
          | Gate.Not -> complement ivs.(0)
          | Gate.Buf -> ivs.(0)
          | Gate.Const0 -> (0.0, 0.0)
          | Gate.Const1 -> (1.0, 1.0)))
    (Analysis.order ctx);
  sp

(* Error-difference intervals: d.(v) bounds P(good_v <> faulty_v) for the
   single stuck-complement fault at [site], over [cone], the site's cone.
   Exact identities where the gate admits them, Fréchet everywhere else. *)
let diff_intervals ctx sp site cone =
  let c = Analysis.circuit ctx in
  let n = Circuit.node_count c in
  let d = Array.make n (0.0, 0.0) in
  d.(site) <- (1.0, 1.0);
  Array.iter
    (fun v ->
      if v <> site then begin
        match Circuit.node c v with
        | Circuit.Input | Circuit.Ff _ -> ()
        | Circuit.Gate { kind; fanins } ->
          let dvs = Array.map (fun u -> d.(u)) fanins in
          d.(v) <-
            (match kind with
            | Gate.Xor | Gate.Xnor ->
              (* difference out = XOR of differences in, exactly *)
              xor_fold dvs
            | Gate.Not | Gate.Buf -> dvs.(0)
            | Gate.Const0 | Gate.Const1 -> (0.0, 0.0)
            | Gate.And | Gate.Nand | Gate.Or | Gate.Nor ->
              let errs = ref [] in
              Array.iteri (fun i (_, dh) -> if dh > 0.0 then errs := i :: !errs) dvs;
              (match !errs with
              | [] -> (0.0, 0.0)
              | [ e ] ->
                (* difference out = difference(e) AND "others at the
                   non-controlling value", exactly; the conjunction is
                   then bounded by Fréchet. *)
                let others = ref [] in
                Array.iteri
                  (fun i u ->
                    if i <> e then
                      others :=
                        (match kind with
                        | Gate.And | Gate.Nand -> sp.(u)
                        | _ -> complement sp.(u))
                        :: !others)
                  fanins;
                let rl, rh = and_fold (Array.of_list !others) in
                let dl, dh = dvs.(e) in
                (Float.max 0.0 (dl +. rl -. 1.0), Float.min dh rh)
              | errs ->
                (* several possibly-faulty fanins: the output can only
                   differ when some input differs *)
                let sum = List.fold_left (fun s i -> s +. snd dvs.(i)) 0.0 errs in
                (0.0, Float.min 1.0 sum)))
      end)
    cone;
  d

let union_bound c d =
  let per =
    List.map
      (fun obs -> (obs, d.(Circuit.observation_net c obs)))
      (Circuit.observations c)
  in
  let lo = List.fold_left (fun m (_, (l, _)) -> Float.max m l) 0.0 per in
  let hi = Float.min 1.0 (List.fold_left (fun s (_, (_, h)) -> s +. h) 0.0 per) in
  (lo, Float.max lo hi, per)

let interval_bounds ?(input_sp = fun _ -> 0.5) c site =
  if site < 0 || site >= Circuit.node_count c then
    invalid_arg "Certified.interval_bounds: bad site";
  let ctx = Analysis.get c in
  let sp = sp_intervals ~input_sp ctx in
  let d = diff_intervals ctx sp site (Analysis.cone ctx site) in
  let lo, hi, _ = union_bound c d in
  (lo, hi)

(* --- stratified Monte-Carlo with Wilson certificates ------------------------ *)

type sampler =
  Circuit.t -> input_sp:(int -> float) -> vectors:int -> seed:int -> site:int -> float

let default_sampler : sampler =
 fun c ~input_sp ~vectors ~seed ~site ->
  let sim = Fault_sim.Epp_sim.create ~config:{ Fault_sim.Epp_sim.vectors; input_sp } c in
  let rng = Rng.create ~seed in
  (Fault_sim.Epp_sim.estimate_site sim ~rng site).Fault_sim.Epp_sim.p_sensitized

let wilson ~z ~n phat =
  let n = float_of_int n in
  let z2 = z *. z in
  let denom = 1.0 +. (z2 /. n) in
  let center = (phat +. (z2 /. (2.0 *. n))) /. denom in
  let half = z /. denom *. sqrt ((phat *. (1.0 -. phat) /. n) +. (z2 /. (4.0 *. n *. n))) in
  (clamp01 (center -. half -. 1e-9), clamp01 (center +. half +. 1e-9))

(* Stratify on one free pseudo-input in the site's support: pinning it to 1
   resp. 0 conditions the (independent-input) distribution exactly, so the
   stratum weights sp(x) / 1 - sp(x) are exact and only the within-stratum
   estimates carry sampling error. *)
let stratum_input ~input_sp ctx cone =
  let c = Analysis.circuit ctx in
  let reached = Analysis.reached_observations ctx cone in
  let support =
    Reach.lookup ~position:(Analysis.position ctx)
      (Analysis.fanin_cone ctx (List.map (Circuit.observation_net c) reached))
  in
  List.find_opt
    (fun v ->
      Reach.find support v >= 0
      &&
      let p = input_sp v in
      p > 0.0 && p < 1.0)
    (Circuit.pseudo_inputs c)

let mc_certify ~config ~sampler ~deadline ~input_sp ~cone c site (ilo, ihi) =
  let strata =
    match stratum_input ~input_sp (Analysis.get c) cone with
    | Some x ->
      let w = input_sp x in
      [
        (w, fun v -> if v = x then 1.0 else input_sp v);
        (1.0 -. w, fun v -> if v = x then 0.0 else input_sp v);
      ]
    | None -> [ (1.0, input_sp) ]
  in
  let rec attempt vectors seed =
    let lo, hi, _ =
      List.fold_left
        (fun (alo, ahi, i) (w, sp) ->
          let phat = sampler c ~input_sp:sp ~vectors ~seed:(seed + (7919 * i)) ~site in
          let l, h = wilson ~z:config.z ~n:vectors phat in
          (alo +. (w *. l), ahi +. (w *. h), i + 1))
        (0.0, 0.0, 0) strata
    in
    if hi < ilo -. 1e-12 || lo > ihi +. 1e-12 then `Rejected
    else begin
      let clo = Float.max ilo lo in
      let chi = Float.max clo (Float.min ihi hi) in
      if
        chi -. clo <= config.target_width
        || 2 * vectors > config.mc_max_vectors
        || Obs.Deadline.expired deadline
      then `Certified (clo, chi, vectors, List.length strata)
      else attempt (2 * vectors) (seed + 104_729)
    end
  in
  attempt (max 64 (min config.mc_base_vectors config.mc_max_vectors)) config.mc_seed

(* --- the ladder -------------------------------------------------------------- *)

let bump stats f = match stats with None -> () | Some s -> f s

let certify ?(config = default_config) ?(deadline = Obs.Deadline.never)
    ?(input_sp = fun _ -> 0.5) ?(sampler = default_sampler) ?stats c site =
  if site < 0 || site >= Circuit.node_count c then
    invalid_arg "Certified.certify: bad site";
  let t0 = Obs.Clock.monotonic_seconds () in
  let finish certificate lo hi per =
    let seconds = Obs.Clock.monotonic_seconds () -. t0 in
    bump stats (fun s -> s.Stats.seconds <- seconds :: s.Stats.seconds);
    observe "conformance.certified.seconds" seconds;
    { site; lo; hi; per_observation = per; certificate; seconds }
  in
  let should_stop () = Obs.Deadline.expired deadline in
  match
    (* node_budget <= 0 disables the symbolic rung outright — "budget
       exhausted before starting"; tests use it to drive the lower rungs
       deterministically. *)
    if config.node_budget <= 0 then Cone_bdd.Budget_exceeded { nodes = 0; support = 0 }
    else
      Cone_bdd.epp_exact_cone ~input_sp ~node_budget:config.node_budget
        ~allow_reorder:config.allow_reorder ~should_stop c site
  with
  | Cone_bdd.Exact e ->
    count "conformance.certified.bdd_exact";
    bump stats (fun s -> s.Stats.bdd_exact <- s.Stats.bdd_exact + 1);
    finish
      (Bdd_exact
         {
           bdd_nodes = e.Cone_bdd.bdd_nodes;
           support = e.Cone_bdd.support;
           reordered = e.Cone_bdd.reordered;
         })
      e.Cone_bdd.p_sensitized e.Cone_bdd.p_sensitized
      (List.map (fun (o, p) -> (o, (p, p))) e.Cone_bdd.per_observation)
  | Cone_bdd.Budget_exceeded _ ->
    count "conformance.certified.budget_trips";
    bump stats (fun s -> s.Stats.budget_trips <- s.Stats.budget_trips + 1);
    let ctx = Analysis.get c in
    let sp = sp_intervals ~input_sp ctx in
    (* One cone search for both lower rungs. *)
    let cone = Analysis.cone ctx site in
    let d = diff_intervals ctx sp site cone in
    let lo, hi, per = union_bound c d in
    let interval_verdict () =
      count "conformance.certified.interval";
      bump stats (fun s -> s.Stats.interval <- s.Stats.interval + 1);
      finish Interval_bound lo hi per
    in
    if
      hi -. lo <= config.target_width
      || config.mc_max_vectors <= 0
      || Obs.Deadline.expired deadline
    then interval_verdict ()
    else begin
      match mc_certify ~config ~sampler ~deadline ~input_sp ~cone c site (lo, hi) with
      | `Rejected ->
        count "conformance.certified.mc_rejected";
        bump stats (fun s -> s.Stats.mc_rejected <- s.Stats.mc_rejected + 1);
        interval_verdict ()
      | `Certified (clo, chi, vectors, strata) ->
        count "conformance.certified.mc_certified";
        bump stats (fun s -> s.Stats.mc_certified <- s.Stats.mc_certified + 1);
        finish (Mc_wilson { vectors; z = config.z; strata }) clo chi per
    end

let certify_sites ?config ?deadline ?input_sp ?sampler ?stats c sites =
  Array.map (fun site -> certify ?config ?deadline ?input_sp ?sampler ?stats c site) sites

let pp_certificate ppf = function
  | Bdd_exact { bdd_nodes; support; reordered } ->
    Fmt.pf ppf "bdd-exact nodes=%d support=%d%s" bdd_nodes support
      (if reordered then " (sifted)" else "")
  | Interval_bound -> Fmt.string ppf "interval-bound"
  | Mc_wilson { vectors; z; strata } ->
    Fmt.pf ppf "mc-wilson n=%d z=%g strata=%d" vectors z strata

let pp_verdict ppf v =
  Fmt.pf ppf "site %d: [%.6g, %.6g] by %a in %.3fs" v.site v.lo v.hi pp_certificate
    v.certificate v.seconds
