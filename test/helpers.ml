(* Shared fixtures and generators for the test suite. *)

open Netlist

let check_float = Alcotest.(check (float 1e-9))
let check_float_eps eps = Alcotest.(check (float eps))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- hand-built circuits -------------------------------------------------- *)

(* The paper's Fig. 1, reconstructed from the published computation:
   E = NOT(A), G = AND(E, F), D = AND(A, B), H = OR(C, D, G), PO = H,
   with off-path signal probabilities SP_B = 0.2, SP_C = 0.3, SP_F = 0.7.
   The site is A (an AND fed by two free inputs). *)
let fig1 () =
  let b = Builder.create ~name:"fig1" () in
  List.iter (Builder.add_input b) [ "I1"; "I2"; "B"; "C"; "F" ];
  Builder.add_gate b ~output:"A" ~kind:Gate.And [ "I1"; "I2" ];
  Builder.add_gate b ~output:"E" ~kind:Gate.Not [ "A" ];
  Builder.add_gate b ~output:"G" ~kind:Gate.And [ "E"; "F" ];
  Builder.add_gate b ~output:"D" ~kind:Gate.And [ "A"; "B" ];
  Builder.add_gate b ~output:"H" ~kind:Gate.Or [ "C"; "D"; "G" ];
  Builder.add_output b "H";
  Builder.freeze b

let fig1_spec c = Sigprob.Sp.of_alist c [ ("B", 0.2); ("C", 0.3); ("F", 0.7) ]

let fig1_input_sp c v =
  match Circuit.node_name c v with
  | "B" -> 0.2
  | "C" -> 0.3
  | "F" -> 0.7
  | _ -> 0.5

(* A 2-level tree: y = AND(OR(a, b), NAND(c, d)). Fanout-free. *)
let small_tree () =
  let b = Builder.create ~name:"tree" () in
  List.iter (Builder.add_input b) [ "a"; "b"; "c"; "d" ];
  Builder.add_gate b ~output:"t1" ~kind:Gate.Or [ "a"; "b" ];
  Builder.add_gate b ~output:"t2" ~kind:Gate.Nand [ "c"; "d" ];
  Builder.add_gate b ~output:"y" ~kind:Gate.And [ "t1"; "t2" ];
  Builder.add_output b "y";
  Builder.freeze b

(* Perfect error cancellation through reconvergence:
   y = XOR(x, NOT(NOT(x))) == XOR(x, x) == 0: an error on x never reaches y.
   The polarity-tracked rules get this exactly; the naive rules cannot. *)
let cancellation () =
  let b = Builder.create ~name:"cancel" () in
  Builder.add_input b "x";
  Builder.add_gate b ~output:"n1" ~kind:Gate.Not [ "x" ];
  Builder.add_gate b ~output:"n2" ~kind:Gate.Not [ "n1" ];
  Builder.add_gate b ~output:"y" ~kind:Gate.Xor [ "x"; "n2" ];
  Builder.add_output b "y";
  Builder.freeze b

(* A small sequential circuit: 3-bit shift register with an XOR tap. *)
let shift_register () =
  let b = Builder.create ~name:"shift3" () in
  Builder.add_input b "si";
  Builder.add_dff b ~q:"q0" ~d:"si";
  Builder.add_dff b ~q:"q1" ~d:"q0";
  Builder.add_dff b ~q:"q2" ~d:"q1";
  Builder.add_gate b ~output:"tap" ~kind:Gate.Xor [ "q0"; "q2" ];
  Builder.add_output b "tap";
  Builder.freeze b

(* --- random circuit generation for property tests ------------------------ *)

(* A random fanout-free (tree) circuit with [inputs] leaves, deterministic
   from the seed.  On trees the analytical EPP and SP are exact, so these are
   the equality fixtures. *)
let random_tree ~seed ~inputs =
  if inputs < 1 then invalid_arg "random_tree";
  let rng = Rng.create ~seed in
  let b = Builder.create ~name:(Printf.sprintf "tree%d" seed) () in
  let leaves = List.init inputs (fun i -> Printf.sprintf "i%d" i) in
  List.iter (Builder.add_input b) leaves;
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Printf.sprintf "g%d" !counter
  in
  (* Repeatedly combine 1-3 available roots into a new gate until one root
     remains; every signal is consumed at most once => fanout-free. *)
  let kinds = [| Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor |] in
  let rec combine available =
    match available with
    | [] -> assert false
    | [ root ] -> root
    | _ :: _ :: _ ->
      let n = List.length available in
      let take = min n (1 + Rng.int rng ~bound:3) in
      let arr = Array.of_list available in
      Rng.shuffle_in_place rng arr;
      let chosen = Array.sub arr 0 take |> Array.to_list in
      let rest = Array.sub arr take (n - take) |> Array.to_list in
      let name = fresh () in
      if take = 1 then
        Builder.add_gate b ~output:name ~kind:(if Rng.bool rng then Gate.Not else Gate.Buf) chosen
      else Builder.add_gate b ~output:name ~kind:kinds.(Rng.int rng ~bound:6) chosen;
      combine (name :: rest)
  in
  let root = combine leaves in
  Builder.add_output b root;
  Builder.freeze b

(* A small random DAG with reconvergent fanout (via Circuit_gen), sized for
   exhaustive oracles. *)
let random_small_dag ~seed =
  let profile =
    Circuit_gen.Profiles.make
      ~name:(Printf.sprintf "dag%d" seed)
      ~inputs:5 ~outputs:3 ~ffs:0 ~gates:14
  in
  Circuit_gen.Random_dag.generate ~seed profile

(* A qcheck-friendly wrapper: tests draw seeds, we build deterministic
   structures from them. *)
let seed_arbitrary = QCheck2.Gen.int_range 1 1_000_000

(* Property tests draw from a fixed seed, so every run of the suite checks
   the same cases; [QCHECK_SEED=<int>] overrides it to explore others.  The
   seed in use is printed once per suite, in QCheck_alcotest's own format,
   and each test starts its own generator from it, as QCheck_alcotest
   does. *)
let default_qcheck_seed = 2005

let qcheck_seed =
  lazy
    (let seed =
       match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
       | Some s -> s
       | None -> default_qcheck_seed
     in
     Printf.printf "qcheck random seed: %d\n%!" seed;
     seed)

let qtest ?(count = 100) ~name gen prop =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| Lazy.force qcheck_seed |])
    (QCheck2.Test.make ~name ~count gen prop)

(* --- failure reproduction ------------------------------------------------- *)

(* One-line structural fingerprint (counts + hash) shared with the fuzzer:
   printed alongside the failing seed so a property failure in CI can be
   rebuilt without rerunning the whole suite. *)
let fingerprint = Conformance.Fuzz.fingerprint

(* [with_repro ~build seed prop] runs [prop] on [build seed]; when the
   property fails (or raises), the QCheck counterexample report carries the
   seed and the circuit fingerprint. *)
let with_repro ~build seed prop =
  let c = build seed in
  let repro detail =
    QCheck2.Test.fail_report
      (Printf.sprintf "failing seed %d, circuit %s%s" seed (fingerprint c) detail)
  in
  match prop c with
  | true -> true
  | false -> repro ""
  | exception QCheck2.Test.Test_fail (msg, _) -> repro (": " ^ msg)
  | exception exn -> repro (Printf.sprintf " (raised %s)" (Printexc.to_string exn))
