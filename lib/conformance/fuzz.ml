(* The seeded differential fuzz driver.  Deterministic from config.seed:
   circuit draws, site sampling, mutation choices and the Monte-Carlo
   streams all flow from split Rng streams, so a failing case replays from
   the printed seed and fingerprint alone. *)

open Netlist

type config = {
  seed : int;
  cases : int;
  time_budget : float option;
  mc_vectors : int;
  max_sites : int;
  mutations_per_case : int;
  envelope : float;
  wilson_z : float;
  invariant_tolerance : float;
}

let default_config =
  {
    seed = 1;
    cases = 100;
    time_budget = None;
    mc_vectors = 2048;
    max_sites = 6;
    mutations_per_case = 2;
    envelope = Oracle.default_envelope;
    wilson_z = Oracle.default_z;
    invariant_tolerance = 1e-12;
  }

(* --- reproducibility fingerprint ------------------------------------------- *)

(* Owned by Corpus (which pins it in on-disk sidecars); re-exported here
   because every finding and failure message prints it. *)
let fingerprint = Corpus.fingerprint

(* --- findings -------------------------------------------------------------- *)

type case_id = {
  index : int;
  circuit_name : string;
  circuit_fingerprint : string;
}

type finding =
  | Mismatch of { case : case_id; mismatch : Oracle.mismatch }
  | Invariant_violation of {
      case : case_id;
      mutation : string;
      site_name : string;
      before : float;
      after : float;
    }
  | Oracle_crash of { case : case_id; oracle : string; exn : string }

let is_hard = function
  | Mismatch { mismatch; _ } -> not (Oracle.is_statistical mismatch.Oracle.policy)
  | Invariant_violation _ | Oracle_crash _ -> true

let pp_finding ppf = function
  | Mismatch { case; mismatch } ->
    Fmt.pf ppf "[case %d %s] %a" case.index case.circuit_fingerprint Oracle.pp_mismatch
      mismatch
  | Invariant_violation { case; mutation; site_name; before; after } ->
    Fmt.pf ppf
      "[case %d %s] mutation %s changed P_sensitized of surviving site %s: %.17g -> %.17g"
      case.index case.circuit_fingerprint mutation site_name before after
  | Oracle_crash { case; oracle; exn } ->
    Fmt.pf ppf "[case %d %s] oracle %s raised %s" case.index case.circuit_fingerprint
      oracle exn

let case_of ?(index = -1) c =
  { index; circuit_name = Circuit.name c; circuit_fingerprint = fingerprint c }

(* --- checking one circuit --------------------------------------------------- *)

type check = {
  comparisons : int;
  pairs : (string * string) list;
  findings : finding list;
  skipped : (string * string) list;
  envelope_max : float;
  envelope_sum : float;
  envelope_count : int;
  oracle_seconds : (string * float) list;
}

let oracle_histogram name =
  Obs.Metrics.histogram (Obs.Hooks.metrics ())
    (Printf.sprintf "conformance.oracle.%s.seconds" name)

let check_circuit ?(oracles = Oracle.default ()) ?(envelope = Oracle.default_envelope)
    ?(z = Oracle.default_z) ?case c ~sites =
  let case = match case with Some id -> id | None -> case_of c in
  let skipped = ref [] and crashes = ref [] and ran = ref [] and seconds = ref [] in
  List.iter
    (fun (o : Oracle.t) ->
      match o.Oracle.available c with
      | Some reason -> skipped := (o.Oracle.name, reason) :: !skipped
      | None -> (
        let tracer = Obs.Hooks.tracer () in
        let t0 = Obs.Clock.wall_seconds () in
        match
          Obs.Trace.span tracer ~cat:"conformance" ("oracle:" ^ o.Oracle.name) (fun () ->
              o.Oracle.run c ~sites)
        with
        | results ->
          let dt = Obs.Clock.wall_seconds () -. t0 in
          Obs.Metrics.observe (oracle_histogram o.Oracle.name) dt;
          seconds := (o.Oracle.name, dt) :: !seconds;
          ran := (o, results) :: !ran
        | exception Fault_sim.Epp_exact.Too_many_inputs { inputs; limit } ->
          skipped :=
            (o.Oracle.name, Printf.sprintf "%d inputs > limit %d" inputs limit) :: !skipped
        | exception Circuit_bdd.Too_large { node_count; limit } ->
          skipped :=
            (o.Oracle.name, Printf.sprintf "%d BDD nodes > limit %d" node_count limit)
            :: !skipped
        | exception exn ->
          crashes :=
            Oracle_crash { case; oracle = o.Oracle.name; exn = Printexc.to_string exn }
            :: !crashes))
    oracles;
  let ran = List.rev !ran in
  let comparisons = ref 0 and mismatches = ref [] and pairs = ref [] in
  let env_max = ref 0.0 and env_sum = ref 0.0 and env_count = ref 0 in
  let rec over_pairs = function
    | [] -> ()
    | (a, ra) :: rest ->
      List.iter
        (fun (b, rb) ->
          match Oracle.policy ~envelope ~z a b with
          | None -> ()
          | Some policy ->
            pairs := (a.Oracle.name, b.Oracle.name) :: !pairs;
            Array.iteri
              (fun i site ->
                incr comparisons;
                (match policy with
                | Oracle.Envelope _ ->
                  let dev = Oracle.deviation ra.(i) rb.(i) in
                  if dev > !env_max then env_max := dev;
                  if Float.is_finite dev then begin
                    env_sum := !env_sum +. dev;
                    incr env_count
                  end
                | Oracle.Interval _ -> (
                  (* A certified verdict only recalibrates the envelope
                     when its certificate is degenerate (lo = hi, a true
                     exact value) and the other side is analytical; a wide
                     interval says nothing about the paper's deviation. *)
                  let contribution =
                    match (a.Oracle.soundness, b.Oracle.soundness) with
                    | Oracle.Certified, Oracle.Analytical -> Some (ra.(i), rb.(i))
                    | Oracle.Analytical, Oracle.Certified -> Some (rb.(i), ra.(i))
                    | _ -> None
                  in
                  match contribution with
                  | Some (rc, _) when (fun (lo, hi) -> hi -. lo > 1e-12) (Oracle.interval_of rc)
                    -> ()
                  | Some (rc, ranl) ->
                    let dev = Oracle.deviation rc ranl in
                    if dev > !env_max then env_max := dev;
                    if Float.is_finite dev then begin
                      env_sum := !env_sum +. dev;
                      incr env_count
                    end
                  | None -> ())
                | _ -> ());
                List.iter
                  (fun m -> mismatches := Mismatch { case; mismatch = m } :: !mismatches)
                  (Oracle.compare_site ~policy ~left:a ~right:b c site ra.(i) rb.(i)))
              sites)
        rest;
      over_pairs rest
  in
  over_pairs ran;
  {
    comparisons = !comparisons;
    pairs = List.rev !pairs;
    findings = List.rev_append !crashes (List.rev !mismatches);
    skipped = List.rev !skipped;
    envelope_max = !env_max;
    envelope_sum = !env_sum;
    envelope_count = !env_count;
    oracle_seconds = List.rev !seconds;
  }

let check_all_sites ?oracles ?envelope ?z ?case c =
  check_circuit ?oracles ?envelope ?z ?case c
    ~sites:(Array.init (Circuit.node_count c) Fun.id)

(* --- circuit generation ----------------------------------------------------- *)

let structured_pool =
  [|
    (fun () -> Circuit_gen.Structured.ripple_adder ~width:2 ());
    (fun () -> Circuit_gen.Structured.ripple_adder ~width:3 ());
    (fun () -> Circuit_gen.Structured.parity_tree ~width:5 ());
    (fun () -> Circuit_gen.Structured.mux_tree ~select_bits:2 ());
    (fun () -> Circuit_gen.Structured.alu_accumulator ~width:2 ());
  |]

let draw_circuit rng index =
  let pick = Rng.int rng ~bound:10 in
  if pick < 7 then begin
    let inputs = 4 + Rng.int rng ~bound:3 in
    let outputs = 2 + Rng.int rng ~bound:2 in
    let ffs = Rng.int rng ~bound:3 in
    let gates = 8 + Rng.int rng ~bound:11 in
    let profile =
      Circuit_gen.Profiles.make
        ~name:(Printf.sprintf "fuzz%d" index)
        ~inputs ~outputs ~ffs ~gates
    in
    Circuit_gen.Random_dag.generate ~seed:(1 + Rng.int rng ~bound:1_000_000) profile
  end
  else if pick < 9 then structured_pool.(Rng.int rng ~bound:(Array.length structured_pool)) ()
  else if Rng.bool rng then Circuit_gen.Embedded.c17 ()
  else Circuit_gen.Embedded.s27 ()

(* --- metamorphic mutations --------------------------------------------------- *)

(* Analytical P_sensitized of every node, keyed by name — the invariant
   metric.  Uses the production sweep (bit-identical to the reference) over
   the plain topological signal probabilities, like every analytical oracle
   here. *)
let epp_by_name c =
  let sp = Sigprob.Sp_topological.compute c in
  let engine = Epp.Epp_engine.create ~sp c in
  let table = Hashtbl.create (2 * Circuit.node_count c) in
  List.iter
    (fun (r : Epp.Epp_engine.site_result) ->
      Hashtbl.replace table (Circuit.node_name c r.Epp.Epp_engine.site)
        r.Epp.Epp_engine.p_sensitized)
    (Epp.Ser_estimator.analyze_all engine);
  table

let mutate rng c =
  (* Pick uniformly among the mutation kinds applicable to [c], then a
     uniform target.  Returns None when nothing applies (can't happen on a
     non-trivial circuit, but stay total). *)
  let n = Circuit.node_count c in
  let dm_targets =
    List.filter
      (fun v ->
        match Circuit.kind_of c v with
        | Some (Gate.And | Gate.Or | Gate.Nand | Gate.Nor) -> true
        | _ -> false)
      (List.init n Fun.id)
  in
  let split_targets =
    (* Nets with at least two consumer slots (gate fanins + FF data + POs). *)
    let slots = Array.make n 0 in
    for v = 0 to n - 1 do
      match Circuit.node c v with
      | Circuit.Input -> ()
      | Circuit.Ff { data } -> slots.(data) <- slots.(data) + 1
      | Circuit.Gate { fanins; _ } ->
        Array.iter (fun u -> slots.(u) <- slots.(u) + 1) fanins
    done;
    List.iter (fun v -> slots.(v) <- slots.(v) + 1) (Circuit.outputs c);
    List.filter (fun v -> slots.(v) >= 2) (List.init n Fun.id)
  in
  let po_count = Circuit.output_count c in
  let pick_list l = List.nth l (Rng.int rng ~bound:(List.length l)) in
  let options = ref [] in
  if n > 0 then begin
    options :=
      (fun () ->
        let net = Rng.int rng ~bound:n in
        ("insert-buffer", Transform.insert_identity c ~net))
      :: (fun () ->
           let net = Rng.int rng ~bound:n in
           ("insert-inverter-pair", Transform.insert_identity ~double_invert:true c ~net))
      :: !options
  end;
  if split_targets <> [] then
    options :=
      (fun () -> ("split-fanout", Transform.split_fanout c ~net:(pick_list split_targets)))
      :: !options;
  if dm_targets <> [] then
    options :=
      (fun () -> ("de-morgan", Transform.de_morgan c ~gate:(pick_list dm_targets)))
      :: !options;
  if po_count >= 2 then
    options :=
      (fun () ->
        let perm = Array.init po_count Fun.id in
        Rng.shuffle_in_place rng perm;
        ("permute-observations", Transform.permute_observations c ~perm))
      :: !options;
  match !options with
  | [] -> None
  | l -> Some ((List.nth l (Rng.int rng ~bound:(List.length l))) ())

(* --- the run ----------------------------------------------------------------- *)

type report = {
  config : config;
  cases : int;
  mutants : int;
  sites : int;
  comparisons : int;
  pair_counts : (string * int) list;
  oracle_stats : (string * (int * float)) list;
  skip_counts : (string * int) list;
  hard : finding list;
  statistical : finding list;
  envelope_max : float;
  envelope_mean : float;
  invariant_checks : int;
  elapsed_seconds : float;
}

let bump table key by =
  Hashtbl.replace table key (by + Option.value ~default:0 (Hashtbl.find_opt table key))

let sorted_bindings table = List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) table [])

let run ?oracles config =
  let metrics = Obs.Hooks.metrics () in
  let cases_counter = Obs.Metrics.counter metrics "conformance.cases" in
  let mutants_counter = Obs.Metrics.counter metrics "conformance.mutants" in
  let comparisons_counter = Obs.Metrics.counter metrics "conformance.comparisons" in
  let disagreements_counter = Obs.Metrics.counter metrics "conformance.disagreements" in
  let invariant_counter = Obs.Metrics.counter metrics "conformance.invariant_checks" in
  let oracles =
    match oracles with
    | Some l -> l
    | None -> Oracle.default ~mc_vectors:config.mc_vectors ()
  in
  let t0 = Obs.Clock.wall_seconds () in
  let within_budget () =
    match config.time_budget with
    | None -> true
    | Some budget -> Obs.Clock.wall_seconds () -. t0 < budget
  in
  let master = Rng.create ~seed:config.seed in
  let cases = ref 0 and mutants = ref 0 and sites_total = ref 0 in
  let comparisons = ref 0 and invariant_checks = ref 0 in
  let pair_counts = Hashtbl.create 32 in
  let oracle_stats : (string, int * float) Hashtbl.t = Hashtbl.create 16 in
  let skip_counts = Hashtbl.create 16 in
  let hard = ref [] and statistical = ref [] in
  let env_max = ref 0.0 and env_sum = ref 0.0 and env_count = ref 0 in
  let absorb (ck : check) =
    comparisons := !comparisons + ck.comparisons;
    Obs.Metrics.add comparisons_counter ck.comparisons;
    List.iter
      (fun (a, b) -> bump pair_counts (a ^ "~" ^ b) 1)
      ck.pairs;
    List.iter
      (fun (name, dt) ->
        let runs, secs = Option.value ~default:(0, 0.0) (Hashtbl.find_opt oracle_stats name) in
        Hashtbl.replace oracle_stats name (runs + 1, secs +. dt))
      ck.oracle_seconds;
    List.iter (fun (name, _reason) -> bump skip_counts name 1) ck.skipped;
    if ck.envelope_max > !env_max then env_max := ck.envelope_max;
    env_sum := !env_sum +. ck.envelope_sum;
    env_count := !env_count + ck.envelope_count;
    List.iter
      (fun f ->
        Obs.Metrics.incr disagreements_counter;
        if is_hard f then hard := f :: !hard else statistical := f :: !statistical)
      ck.findings
  in
  let sample_sites rng c =
    let n = Circuit.node_count c in
    let count = min config.max_sites n in
    Rng.sample_without_replacement rng ~count ~universe:n
  in
  (let case_index = ref 0 in
   while !case_index < config.cases && within_budget () do
     let i = !case_index in
     incr case_index;
     let rng = Rng.split master in
     let c = draw_circuit rng i in
     let case = case_of ~index:i c in
     incr cases;
     Obs.Metrics.incr cases_counter;
     let sites = sample_sites rng c in
     sites_total := !sites_total + Array.length sites;
     absorb
       (check_circuit ~oracles ~envelope:config.envelope ~z:config.wilson_z ~case c ~sites);
     (* Metamorphic chain: mutate, check the per-step EPP invariant, and run
        the full oracle panel once on the final mutant. *)
     let current = ref c in
     for _m = 1 to config.mutations_per_case do
       match mutate rng !current with
       | None -> ()
       | Some (mutation, mutant) ->
         incr mutants;
         Obs.Metrics.incr mutants_counter;
         let before = epp_by_name !current and after = epp_by_name mutant in
         Hashtbl.iter
           (fun name p_before ->
             match Hashtbl.find_opt after name with
             | None -> ()
             | Some p_after ->
               incr invariant_checks;
               Obs.Metrics.incr invariant_counter;
               if
                 Float.is_nan p_after
                 || Float.abs (p_before -. p_after) > config.invariant_tolerance
               then begin
                 Obs.Metrics.incr disagreements_counter;
                 hard :=
                   Invariant_violation
                     { case; mutation; site_name = name; before = p_before;
                       after = p_after }
                   :: !hard
               end)
           before;
         current := mutant
     done;
     if !current != c then begin
       let mutant_case = case_of ~index:i !current in
       let sites = sample_sites rng !current in
       sites_total := !sites_total + Array.length sites;
       absorb
         (check_circuit ~oracles ~envelope:config.envelope ~z:config.wilson_z
            ~case:mutant_case !current ~sites)
     end
   done);
  {
    config;
    cases = !cases;
    mutants = !mutants;
    sites = !sites_total;
    comparisons = !comparisons;
    pair_counts = sorted_bindings pair_counts;
    oracle_stats = sorted_bindings oracle_stats;
    skip_counts = sorted_bindings skip_counts;
    hard = List.rev !hard;
    statistical = List.rev !statistical;
    envelope_max = !env_max;
    envelope_mean = (if !env_count = 0 then 0.0 else !env_sum /. float_of_int !env_count);
    invariant_checks = !invariant_checks;
    elapsed_seconds = Obs.Clock.wall_seconds () -. t0;
  }

(* --- shrinker self-test ------------------------------------------------------- *)

let perturbed_batch () block sites =
  Array.map
    (Result.map (fun (r : Epp.Site_row.t) ->
         Epp.Site_row.make ~p_sensitized:(0.5 *. r.p_sensitized)
           ~cone_size:r.cone_size ~positions:r.positions
           ~probabilities:(Array.map (fun p -> 0.5 *. p) r.probabilities)))
    (Epp.Epp_batch.Block.run block sites)

type demo = {
  initial : Circuit.t;
  initial_site : int;
  outcome : Shrinker.outcome;
  still_disagrees : bool;
  blif : string;
  snippet : string;
}

let shrink_demo ?(seed = 2026) ?(gates = 18) () =
  let profile =
    Circuit_gen.Profiles.make ~name:"shrink-demo" ~inputs:5 ~outputs:3 ~ffs:0 ~gates
  in
  let c = Circuit_gen.Random_dag.generate ~seed profile in
  let left = Oracle.reference () in
  let right = Oracle.supervised ~batch_run:(perturbed_batch ()) () in
  let check cand s =
    match
      let sites = [| s |] in
      let ra = (left.Oracle.run cand ~sites).(0) in
      let rb = (right.Oracle.run cand ~sites).(0) in
      Oracle.compare_site ~policy:Oracle.Bitwise ~left ~right cand s ra rb
    with
    | [] -> false
    | _ :: _ -> true
    | exception _ -> false
  in
  let n = Circuit.node_count c in
  let rec find_site v =
    if v >= n then
      invalid_arg "Fuzz.shrink_demo: no disagreeing site (perturbation had no effect)"
    else if check c v then v
    else find_site (v + 1)
  in
  let site = find_site 0 in
  let outcome = Shrinker.shrink ~check c ~site in
  {
    initial = c;
    initial_site = site;
    outcome;
    still_disagrees = check outcome.Shrinker.circuit outcome.Shrinker.site;
    blif = Shrinker.to_blif outcome.Shrinker.circuit;
    snippet = Shrinker.to_ocaml outcome.Shrinker.circuit ~site:outcome.Shrinker.site;
  }
