(* Tests for the signal-probability engines: per-gate rules against
   enumeration, topological vs exact on trees, Monte-Carlo convergence, the
   sequential fixpoint, and bit identity of the in-place, change-driven
   engines with the straightforward seed algorithm. *)

open Helpers
open Netlist

(* Exact single-gate SP by enumerating input assignments weighted by the
   input probabilities — the specification of Sp_rules.gate_sp. *)
let enumerated_gate_sp kind probs =
  let n = Array.length probs in
  let total = ref 0.0 in
  for assignment = 0 to (1 lsl n) - 1 do
    let weight = ref 1.0 in
    let bits = Array.make n false in
    for i = 0 to n - 1 do
      let b = assignment land (1 lsl i) <> 0 in
      bits.(i) <- b;
      weight := !weight *. (if b then probs.(i) else 1.0 -. probs.(i))
    done;
    if Gate.eval kind bits then total := !total +. !weight
  done;
  !total

let test_gate_sp_known () =
  check_float "AND 2" 0.25 (Sigprob.Sp_rules.gate_sp Gate.And [| 0.5; 0.5 |]);
  check_float "OR 2" 0.75 (Sigprob.Sp_rules.gate_sp Gate.Or [| 0.5; 0.5 |]);
  check_float "XOR 2" 0.5 (Sigprob.Sp_rules.gate_sp Gate.Xor [| 0.5; 0.5 |]);
  check_float "NOT" 0.3 (Sigprob.Sp_rules.gate_sp Gate.Not [| 0.7 |]);
  check_float "NAND" 0.875 (Sigprob.Sp_rules.gate_sp Gate.Nand [| 0.5; 0.5; 0.5 |]);
  check_float "CONST1" 1.0 (Sigprob.Sp_rules.gate_sp Gate.Const1 [||])

let prop_gate_sp_matches_enumeration =
  qtest ~count:300 ~name:"gate_sp equals weighted enumeration" seed_arbitrary (fun seed ->
      let rng = Rng.create ~seed in
      let kinds = [| Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor |] in
      let kind = kinds.(Rng.int rng ~bound:6) in
      let arity = 1 + Rng.int rng ~bound:4 in
      let probs = Array.init arity (fun _ -> Rng.float rng) in
      let expected = enumerated_gate_sp kind probs in
      Float.abs (Sigprob.Sp_rules.gate_sp kind probs -. expected) < 1e-9)

let test_gate_sp_validates_inputs () =
  Alcotest.check_raises "p > 1" (Invalid_argument "Sp_rules: input probability 1.5 outside [0,1]")
    (fun () -> ignore (Sigprob.Sp_rules.gate_sp Gate.And [| 1.5; 0.2 |]))

let test_gate_sp_rejects_nan () =
  match Sigprob.Sp_rules.gate_sp Gate.And [| Float.nan; 0.2 |] with
  | _ -> Alcotest.fail "NaN accepted"
  | exception Invalid_argument _ -> ()

(* --- topological engine ---------------------------------------------------- *)

let test_topological_fig1 () =
  let c = fig1 () in
  let sp = Sigprob.Sp_topological.compute ~spec:(fig1_spec c) c in
  (* A = AND(I1,I2) at 0.5 each -> 0.25; E = 0.75; G = AND(E,F) -> 0.525. *)
  check_float "A" 0.25 (Sigprob.Sp.get_name sp "A");
  check_float "E" 0.75 (Sigprob.Sp.get_name sp "E");
  check_float "G" (0.75 *. 0.7) (Sigprob.Sp.get_name sp "G");
  check_float "D" (0.25 *. 0.2) (Sigprob.Sp.get_name sp "D");
  Sigprob.Sp.check_result sp

let prop_topological_exact_on_trees =
  qtest ~count:40 ~name:"topological equals exact on fanout-free circuits" seed_arbitrary
    (fun seed ->
      let c = random_tree ~seed ~inputs:(3 + (seed mod 6)) in
      let topo = Sigprob.Sp_topological.compute c in
      let exact = Sigprob.Sp_exact.compute c in
      Sigprob.Sp.max_absolute_difference topo exact < 1e-9)

let test_topological_approximate_under_reconvergence () =
  (* y = AND(x, NOT x) is constant 0; independence assumption says 0.25. *)
  let b = Builder.create () in
  Builder.add_input b "x";
  Builder.add_gate b ~output:"nx" ~kind:Gate.Not [ "x" ];
  Builder.add_gate b ~output:"y" ~kind:Gate.And [ "x"; "nx" ];
  Builder.add_output b "y";
  let c = Builder.freeze b in
  let topo = Sigprob.Sp_topological.compute c in
  let exact = Sigprob.Sp_exact.compute c in
  check_float "exact knows it is 0" 0.0 (Sigprob.Sp.get_name exact "y");
  check_float "independence gives 1/4" 0.25 (Sigprob.Sp.get_name topo "y")

let test_spec_of_alist_unknown () =
  let c = fig1 () in
  Alcotest.check_raises "unknown signal" (Invalid_argument "Sp.of_alist: unknown signal \"zz\"")
    (fun () -> ignore (Sigprob.Sp.of_alist c [ ("zz", 0.5) ]))

let test_spec_of_alist_bad_probability () =
  let c = fig1 () in
  match Sigprob.Sp.of_alist c [ ("B", 1.2) ] with
  | _ -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ()

(* --- exact engine ---------------------------------------------------------- *)

let test_exact_limit () =
  let profile = Circuit_gen.Profiles.make ~name:"wide" ~inputs:25 ~outputs:1 ~ffs:0 ~gates:30 in
  let c = Circuit_gen.Random_dag.generate ~seed:5 profile in
  Alcotest.check_raises "too many inputs"
    (Sigprob.Sp_exact.Too_many_inputs { inputs = 25; limit = 20 }) (fun () ->
      ignore (Sigprob.Sp_exact.compute c))

let test_exact_weighted_inputs () =
  (* Single AND gate with p = 0.3, 0.9: exact = 0.27 regardless of engine. *)
  let b = Builder.create () in
  Builder.add_input b "a";
  Builder.add_input b "b";
  Builder.add_gate b ~output:"y" ~kind:Gate.And [ "a"; "b" ];
  Builder.add_output b "y";
  let c = Builder.freeze b in
  let spec = Sigprob.Sp.of_alist c [ ("a", 0.3); ("b", 0.9) ] in
  let exact = Sigprob.Sp_exact.compute ~spec c in
  check_float "weighted" 0.27 (Sigprob.Sp.get_name exact "y")

(* --- Monte-Carlo engine ---------------------------------------------------- *)

let test_montecarlo_converges () =
  let c = fig1 () in
  let spec = fig1_spec c in
  let exact = Sigprob.Sp_exact.compute ~spec c in
  let mc =
    Sigprob.Sp_montecarlo.compute ~spec ~rng:(Rng.create ~seed:77) ~vectors:200_000 c
  in
  check_bool "within 3 sigma-ish" true (Sigprob.Sp.max_absolute_difference mc exact < 0.01)

let test_montecarlo_vector_count_validated () =
  let c = fig1 () in
  Alcotest.check_raises "zero vectors"
    (Invalid_argument "Sp_montecarlo.compute: vectors must be positive") (fun () ->
      ignore (Sigprob.Sp_montecarlo.compute ~rng:(Rng.create ~seed:1) ~vectors:0 c))

let test_montecarlo_partial_word () =
  (* 70 vectors = one full word + 6 live bits; result must stay a valid
     probability. *)
  let c = fig1 () in
  let mc = Sigprob.Sp_montecarlo.compute ~rng:(Rng.create ~seed:5) ~vectors:70 c in
  Sigprob.Sp.check_result mc

let test_montecarlo_deterministic () =
  let c = fig1 () in
  let run () = Sigprob.Sp_montecarlo.compute ~rng:(Rng.create ~seed:123) ~vectors:640 c in
  check_float "same seed, same estimate" (Sigprob.Sp.get_name (run ()) "H")
    (Sigprob.Sp.get_name (run ()) "H")

(* --- sequential fixpoint ---------------------------------------------------- *)

let test_sequential_combinational_degenerates () =
  let c = fig1 () in
  let outcome = Sigprob.Sp_sequential.compute c in
  check_bool "converges in one step" true
    (outcome.Sigprob.Sp_sequential.converged && outcome.Sigprob.Sp_sequential.iterations <= 2);
  let direct = Sigprob.Sp_topological.compute c in
  check_bool "same values" true
    (Sigprob.Sp.max_absolute_difference outcome.Sigprob.Sp_sequential.result direct < 1e-12)

let test_sequential_shift_register () =
  (* FF probabilities must converge to the input probability (0.5). *)
  let c = shift_register () in
  let outcome = Sigprob.Sp_sequential.compute c in
  check_bool "converged" true outcome.Sigprob.Sp_sequential.converged;
  let r = outcome.Sigprob.Sp_sequential.result in
  check_float_eps 1e-9 "q2 at 0.5" 0.5 (Sigprob.Sp.get_name r "q2");
  (* tap = q0 XOR q2 at independent 0.5s -> 0.5 *)
  check_float_eps 1e-9 "tap" 0.5 (Sigprob.Sp.get_name r "tap")

let test_sequential_biased_input () =
  let c = shift_register () in
  let si = Circuit.find c "si" in
  let spec = Sigprob.Sp.of_fun (fun v -> if v = si then 0.9 else 0.5) in
  let outcome = Sigprob.Sp_sequential.compute ~spec c in
  let r = outcome.Sigprob.Sp_sequential.result in
  check_float_eps 1e-6 "q0 tracks si" 0.9 (Sigprob.Sp.get_name r "q0");
  check_float_eps 1e-6 "q2 tracks si" 0.9 (Sigprob.Sp.get_name r "q2")

let test_sequential_s27_converges () =
  let outcome = Sigprob.Sp_sequential.compute (Circuit_gen.Embedded.s27 ()) in
  check_bool "converged" true outcome.Sigprob.Sp_sequential.converged;
  Sigprob.Sp.check_result outcome.Sigprob.Sp_sequential.result

let test_sequential_validates_args () =
  let c = shift_register () in
  Alcotest.check_raises "bad tolerance"
    (Invalid_argument "Sp_sequential.compute: tolerance must be positive") (fun () ->
      ignore (Sigprob.Sp_sequential.compute ~tolerance:0.0 c))

let test_sequential_spec_of_outcome () =
  let c = shift_register () in
  let outcome = Sigprob.Sp_sequential.compute c in
  let spec = Sigprob.Sp_sequential.spec_of_outcome outcome in
  let q0 = Circuit.find c "q0" in
  check_float_eps 1e-9 "spec exposes FF value" 0.5 (spec.Sigprob.Sp.input_sp q0)

(* Monte-Carlo cross-check of the sequential fixpoint: long multi-cycle
   simulation of s27 must land near the fixpoint probabilities. *)
let test_sequential_vs_simulation_s27 () =
  let c = Circuit_gen.Embedded.s27 () in
  let fix = (Sigprob.Sp_sequential.compute c).Sigprob.Sp_sequential.result in
  let cs = Logic_sim.Sim.compile c in
  let sim = Logic_sim.Seq_sim.create (Logic_sim.Sim.compile c) in
  ignore cs;
  let rng = Rng.create ~seed:31 in
  (* warm-up, then accumulate *)
  for _ = 1 to 50 do
    ignore (Logic_sim.Seq_sim.cycle sim ~pi:(fun _ -> Rng.word rng))
  done;
  let cycles = 3000 in
  let ones = Array.make (Circuit.node_count c) 0 in
  for _ = 1 to cycles do
    let values = Logic_sim.Seq_sim.cycle sim ~pi:(fun _ -> Rng.word rng) in
    Array.iteri (fun v w -> ones.(v) <- ones.(v) + Logic_sim.Word.popcount w) values
  done;
  let total = float_of_int (cycles * 64) in
  let worst = ref 0.0 in
  for v = 0 to Circuit.node_count c - 1 do
    let simulated = float_of_int ones.(v) /. total in
    let d = Float.abs (simulated -. fix.Sigprob.Sp.values.(v)) in
    if d > !worst then worst := d
  done;
  (* s27 has reconvergent fanout, so the independence-based fixpoint is an
     approximation: agreement within a few percent, not exact. *)
  check_bool (Printf.sprintf "worst gap %.4f < 0.06" !worst) true (!worst < 0.06)

(* --- bit identity with the seed algorithm ------------------------------------

   The engines evaluate gates in place and the sequential fixpoint only
   re-evaluates what changed; both must reproduce, bit for bit, the
   straightforward algorithm written out here: a fresh array per pass,
   each gate's inputs gathered with [Array.map] into [Sp_rules.gate_sp],
   flip-flop values kept in a table behind a spec closure. *)

let bits = Int64.bits_of_float

(* The rules as first written: closures over the input array, products and
   the XOR fold through [Array.iter]. *)
let seed_gate_sp kind inputs =
  let prod f =
    let acc = ref 1.0 in
    Array.iter (fun p -> acc := !acc *. f p) inputs;
    !acc
  in
  let xor () =
    let acc = ref 0.0 in
    Array.iter (fun p -> acc := (!acc *. (1.0 -. p)) +. (p *. (1.0 -. !acc))) inputs;
    !acc
  in
  Sigprob.Sp_rules.clamp
    (match kind with
    | Gate.And -> prod Fun.id
    | Gate.Nand -> 1.0 -. prod Fun.id
    | Gate.Or -> 1.0 -. prod (fun p -> 1.0 -. p)
    | Gate.Nor -> prod (fun p -> 1.0 -. p)
    | Gate.Xor -> xor ()
    | Gate.Xnor -> 1.0 -. xor ()
    | Gate.Not -> 1.0 -. inputs.(0)
    | Gate.Buf -> inputs.(0)
    | Gate.Const0 -> 0.0
    | Gate.Const1 -> 1.0)

let prop_gate_sp_bitwise_seed =
  qtest ~count:300 ~name:"gate_sp keeps the seed operation order" seed_arbitrary
    (fun seed ->
      let rng = Rng.create ~seed in
      let kinds = [| Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor |] in
      let draw () =
        match Rng.int rng ~bound:8 with
        | 0 -> 0.0
        | 1 -> 1.0
        | _ -> Rng.float rng
      in
      let probs = Array.init (1 + Rng.int rng ~bound:6) (fun _ -> draw ()) in
      let same kind inputs =
        bits (Sigprob.Sp_rules.gate_sp kind inputs) = bits (seed_gate_sp kind inputs)
      in
      Array.for_all (fun k -> same k probs) kinds
      && same Gate.Not [| probs.(0) |]
      && same Gate.Buf [| probs.(0) |]
      && same Gate.Const0 [||]
      && same Gate.Const1 [||])

let reference_topological ~input_sp c =
  let values = Array.make (Circuit.node_count c) 0.0 in
  Array.iter
    (fun v ->
      match Circuit.node c v with
      | Circuit.Input | Circuit.Ff _ ->
        let p = input_sp v in
        Sigprob.Sp_rules.check_probability ~what:(Circuit.node_name c v) p;
        values.(v) <- p
      | Circuit.Gate { kind; fanins } ->
        values.(v) <- Sigprob.Sp_rules.gate_sp kind (Array.map (fun u -> values.(u)) fanins))
    (Analysis.order (Analysis.get c));
  values

(* values, iterations, converged, residual *)
let reference_sequential ?(spec = Sigprob.Sp.uniform) ?(tolerance = 1e-9)
    ?(max_iterations = 1000) c =
  let ffs = Circuit.ffs c in
  let ff_sp = Hashtbl.create 16 in
  List.iter (fun ff -> Hashtbl.replace ff_sp ff 0.5) ffs;
  let input_sp v =
    match Hashtbl.find_opt ff_sp v with
    | Some p -> p
    | None -> spec.Sigprob.Sp.input_sp v
  in
  let rec iterate i =
    let values = reference_topological ~input_sp c in
    let residual = ref 0.0 in
    List.iter
      (fun ff ->
        let data =
          match Circuit.node c ff with
          | Circuit.Ff { data } -> data
          | Circuit.Input | Circuit.Gate _ -> assert false
        in
        let fresh = values.(data) in
        let d = Float.abs (fresh -. Hashtbl.find ff_sp ff) in
        if d > !residual then residual := d;
        Hashtbl.replace ff_sp ff fresh)
      ffs;
    if !residual <= tolerance then (values, i, true, !residual)
    else if i >= max_iterations then (values, i, false, !residual)
    else iterate (i + 1)
  in
  iterate 1

let same_values a b =
  Array.length a = Array.length b && Array.for_all2 (fun x y -> bits x = bits y) a b

let sequential_matches_reference ?spec c =
  let values, iterations, converged, residual = reference_sequential ?spec c in
  let o = Sigprob.Sp_sequential.compute ?spec c in
  same_values values o.Sigprob.Sp_sequential.result.Sigprob.Sp.values
  && iterations = o.Sigprob.Sp_sequential.iterations
  && converged = o.Sigprob.Sp_sequential.converged
  && bits residual = bits o.Sigprob.Sp_sequential.residual

(* Random per-input probabilities (with exact 0s and 1s), FF entries
   included: the combinational engine reads them, the fixpoint ignores
   them. *)
let random_spec c seed =
  let rng = Rng.create ~seed:(seed + 17) in
  let table =
    Array.init (Circuit.node_count c) (fun _ ->
        match Rng.int rng ~bound:6 with
        | 0 -> 0.0
        | 1 -> 1.0
        | _ -> Rng.float rng)
  in
  Sigprob.Sp.of_fun (fun v -> table.(v))

let small_sequential_dag seed =
  let profile =
    Circuit_gen.Profiles.make
      ~name:(Printf.sprintf "seq%d" seed)
      ~inputs:(2 + (seed mod 5)) ~outputs:3 ~ffs:(1 + (seed mod 7))
      ~gates:(20 + (seed mod 60))
  in
  Circuit_gen.Random_dag.generate ~seed profile

let prop_sequential_bitwise =
  qtest ~count:60 ~name:"fixpoint is bit-identical to the seed algorithm"
    seed_arbitrary (fun seed ->
      with_repro ~build:small_sequential_dag seed (fun c ->
          sequential_matches_reference c
          && sequential_matches_reference ~spec:(random_spec c seed) c))

let prop_topological_bitwise =
  qtest ~count:60 ~name:"topological pass is bit-identical to the seed algorithm"
    seed_arbitrary (fun seed ->
      with_repro ~build:small_sequential_dag seed (fun c ->
          let spec = random_spec c seed in
          same_values
            (reference_topological ~input_sp:spec.Sigprob.Sp.input_sp c)
            (Sigprob.Sp_topological.compute ~spec c).Sigprob.Sp.values
          && same_values
               (reference_topological ~input_sp:(fun _ -> 0.5) c)
               (Sigprob.Sp_topological.compute c).Sigprob.Sp.values))

(* Generated circuits whose fixpoint oscillates until the iteration cap:
   the change-driven wave runs all 1000 iterations there. *)
let capped_circuits () =
  [
    Circuit_gen.Random_dag.generate ~seed:5 Circuit_gen.Profiles.s5378;
    Circuit_gen.Random_dag.generate ~seed:9 Circuit_gen.Profiles.s5378;
    Circuit_gen.Random_dag.generate ~seed:6 Circuit_gen.Profiles.s9234;
  ]

let test_sequential_capped_bitwise () =
  List.iter
    (fun c ->
      let reg = Obs.Metrics.create () in
      Obs.Hooks.set_metrics reg;
      let o =
        Fun.protect ~finally:Obs.Hooks.reset (fun () -> Sigprob.Sp_sequential.compute c)
      in
      let values, iterations, converged, residual = reference_sequential c in
      let name = Circuit.name c in
      check_bool (name ^ " hits the cap") false converged;
      check_int (name ^ " iterations") iterations o.Sigprob.Sp_sequential.iterations;
      check_bool (name ^ " converged flag") converged o.Sigprob.Sp_sequential.converged;
      check_bool (name ^ " residual bits") true
        (bits residual = bits o.Sigprob.Sp_sequential.residual);
      check_bool (name ^ " values bitwise") true
        (same_values values o.Sigprob.Sp_sequential.result.Sigprob.Sp.values);
      let snap = Obs.Metrics.snapshot reg in
      check_int (name ^ " iterations counted") iterations
        (Obs.Metrics.counter_value snap "sp.fixpoint_iterations");
      let evaluations = Obs.Metrics.counter_value snap "sp.node_evaluations" in
      check_bool
        (Printf.sprintf "%s: %d evaluations < iterations x nodes" name evaluations)
        true
        (evaluations < iterations * Circuit.node_count c))
    (capped_circuits ())

(* A bad primary-input probability raises what the seed algorithm raised
   (the first offender in topological order); a bad flip-flop entry is
   ignored, as before, because the fixpoint owns the FF outputs. *)
let test_sequential_bad_input_probability () =
  let c = Circuit_gen.Random_dag.generate ~seed:3 Circuit_gen.Profiles.s298 in
  let ins = Circuit.inputs c in
  let bad1 = List.nth ins (List.length ins / 3) in
  let bad2 = List.nth ins (2 * List.length ins / 3) in
  let spec =
    Sigprob.Sp.of_fun (fun v ->
        if v = bad1 then 1.5
        else if v = bad2 then -0.5
        else if Circuit.is_ff c v then Float.nan
        else 0.5)
  in
  let expected =
    match reference_sequential ~spec c with
    | _ -> Alcotest.fail "the reference accepted bad probabilities"
    | exception (Invalid_argument _ as e) -> e
  in
  Alcotest.check_raises "same exception" expected (fun () ->
      ignore (Sigprob.Sp_sequential.compute ~spec c));
  let ff_only =
    Sigprob.Sp.of_fun (fun v -> if Circuit.is_ff c v then Float.nan else 0.25)
  in
  check_bool "bad FF entries ignored" true (sequential_matches_reference ~spec:ff_only c)

let () =
  Alcotest.run "sigprob"
    [
      ( "rules",
        [
          Alcotest.test_case "known values" `Quick test_gate_sp_known;
          prop_gate_sp_matches_enumeration;
          Alcotest.test_case "input validation" `Quick test_gate_sp_validates_inputs;
          Alcotest.test_case "NaN rejected" `Quick test_gate_sp_rejects_nan;
          prop_gate_sp_bitwise_seed;
        ] );
      ( "topological",
        [
          Alcotest.test_case "fig1 hand values" `Quick test_topological_fig1;
          prop_topological_exact_on_trees;
          Alcotest.test_case "approximate under reconvergence" `Quick
            test_topological_approximate_under_reconvergence;
          Alcotest.test_case "of_alist unknown signal" `Quick test_spec_of_alist_unknown;
          Alcotest.test_case "of_alist bad probability" `Quick test_spec_of_alist_bad_probability;
        ] );
      ( "exact",
        [
          Alcotest.test_case "input limit" `Quick test_exact_limit;
          Alcotest.test_case "weighted inputs" `Quick test_exact_weighted_inputs;
        ] );
      ( "montecarlo",
        [
          Alcotest.test_case "converges to exact" `Slow test_montecarlo_converges;
          Alcotest.test_case "vector count validated" `Quick test_montecarlo_vector_count_validated;
          Alcotest.test_case "partial last word" `Quick test_montecarlo_partial_word;
          Alcotest.test_case "deterministic from seed" `Quick test_montecarlo_deterministic;
        ] );
      ( "sequential",
        [
          Alcotest.test_case "combinational degenerates" `Quick
            test_sequential_combinational_degenerates;
          Alcotest.test_case "shift register" `Quick test_sequential_shift_register;
          Alcotest.test_case "biased input propagates" `Quick test_sequential_biased_input;
          Alcotest.test_case "s27 converges" `Quick test_sequential_s27_converges;
          Alcotest.test_case "argument validation" `Quick test_sequential_validates_args;
          Alcotest.test_case "spec_of_outcome" `Quick test_sequential_spec_of_outcome;
          Alcotest.test_case "fixpoint vs long simulation (s27)" `Slow
            test_sequential_vs_simulation_s27;
        ] );
      ( "bitwise",
        [
          prop_topological_bitwise;
          prop_sequential_bitwise;
          Alcotest.test_case "capped fixpoints" `Quick test_sequential_capped_bitwise;
          Alcotest.test_case "bad input probability" `Quick
            test_sequential_bad_input_probability;
        ] );
    ]
