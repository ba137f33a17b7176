(* Tests for the EPP propagation rules (the paper's Table 1 and our
   extensions), validated against a symbolic brute-force oracle.

   Oracle semantics: each input is independently in one of the four states
   {a, ā, 1, 0} with the probabilities of its vector.  Given a joint state
   assignment, the gate output as a function of the unknown error value
   a ∈ {0,1} is computed twice (a = 0 and a = 1) and classified:

     out(0) = 0 and out(1) = 1  ->  state a   (even inversions)
     out(0) = 1 and out(1) = 0  ->  state ā   (odd inversions)
     out(0) = out(1) = v        ->  blocked at v

   The rule output must equal the classified joint distribution exactly —
   the independence assumption is not an approximation at single-gate
   granularity. *)

open Helpers
open Netlist

type state = Sa | Sa_bar | S1 | S0

let state_value ~a = function
  | Sa -> a
  | Sa_bar -> not a
  | S1 -> true
  | S0 -> false

let state_prob (v : Epp.Prob4.t) = function
  | Sa -> v.Epp.Prob4.pa
  | Sa_bar -> v.Epp.Prob4.pa_bar
  | S1 -> v.Epp.Prob4.p1
  | S0 -> v.Epp.Prob4.p0

let all_states = [ Sa; Sa_bar; S1; S0 ]

let brute_force kind (vectors : Epp.Prob4.t array) =
  let n = Array.length vectors in
  let acc = ref { Epp.Prob4.pa = 0.0; pa_bar = 0.0; p1 = 0.0; p0 = 0.0 } in
  let rec enumerate i states weight =
    if weight = 0.0 then ()
    else if i = n then begin
      let states = Array.of_list (List.rev states) in
      let out a = Gate.eval kind (Array.map (state_value ~a) states) in
      let o0 = out false and o1 = out true in
      let v = !acc in
      acc :=
        (match (o0, o1) with
        | false, true -> { v with Epp.Prob4.pa = v.Epp.Prob4.pa +. weight }
        | true, false -> { v with Epp.Prob4.pa_bar = v.Epp.Prob4.pa_bar +. weight }
        | true, true -> { v with Epp.Prob4.p1 = v.Epp.Prob4.p1 +. weight }
        | false, false -> { v with Epp.Prob4.p0 = v.Epp.Prob4.p0 +. weight })
    end
    else
      List.iter
        (fun s -> enumerate (i + 1) (s :: states) (weight *. state_prob vectors.(i) s))
        all_states
  in
  enumerate 0 [] 1.0;
  Epp.Prob4.normalize !acc

let random_vector rng =
  let a = Rng.float rng +. 1e-6 in
  let b = Rng.float rng +. 1e-6 in
  let c = Rng.float rng +. 1e-6 in
  let d = Rng.float rng +. 1e-6 in
  let s = a +. b +. c +. d in
  Epp.Prob4.make ~pa:(a /. s) ~pa_bar:(b /. s) ~p1:(c /. s) ~p0:(d /. s)

(* Sometimes draw off-path-like or site-like vectors to hit the corners. *)
let random_input rng =
  match Rng.int rng ~bound:5 with
  | 0 -> Epp.Prob4.of_sp (Rng.float rng)
  | 1 -> Epp.Prob4.error_site
  | _ -> random_vector rng

let close a b = Epp.Prob4.equal_approx ~eps:1e-9 a b

(* --- hand-checked values --------------------------------------------------- *)

(* The worked example of the paper (gate H): OR with inputs
   C = 0.3(1)+0.7(0) [off-path], D = 0.2(a)+0.8(0), G = 0.7(ā)+0.3(0). *)
let test_paper_or_example () =
  let c = Epp.Prob4.of_sp 0.3 in
  let d = Epp.Prob4.make ~pa:0.2 ~pa_bar:0.0 ~p1:0.0 ~p0:0.8 in
  let g = Epp.Prob4.make ~pa:0.0 ~pa_bar:0.7 ~p1:0.0 ~p0:0.3 in
  let h = Epp.Rules.propagate Gate.Or [| c; d; g |] in
  check_float_eps 1e-9 "P0(H)" 0.168 h.Epp.Prob4.p0;
  check_float_eps 1e-9 "Pa(H)" 0.042 h.Epp.Prob4.pa;
  check_float_eps 1e-9 "Pa_bar(H)" 0.392 h.Epp.Prob4.pa_bar;
  check_float_eps 1e-9 "P1(H)" 0.398 h.Epp.Prob4.p1

let test_and_blocks_with_zero () =
  (* A controlling 0 on an off-path input kills propagation. *)
  let out = Epp.Rules.propagate Gate.And [| Epp.Prob4.error_site; Epp.Prob4.of_sp 0.0 |] in
  check_float "no error" 0.0 (Epp.Prob4.p_error out);
  check_float "output stuck at 0" 1.0 out.Epp.Prob4.p0

let test_and_propagates_with_one () =
  let out = Epp.Rules.propagate Gate.And [| Epp.Prob4.error_site; Epp.Prob4.of_sp 1.0 |] in
  check_float "full propagation" 1.0 out.Epp.Prob4.pa

let test_nand_flips_polarity () =
  let out = Epp.Rules.propagate Gate.Nand [| Epp.Prob4.error_site; Epp.Prob4.of_sp 1.0 |] in
  check_float "inverted polarity" 1.0 out.Epp.Prob4.pa_bar

let test_xor_always_propagates_single_error () =
  (* XOR has no controlling value: a single erroneous input always reaches
     the output, polarity set by the other input's value. *)
  let other = Epp.Prob4.of_sp 0.3 in
  let out = Epp.Rules.propagate Gate.Xor [| Epp.Prob4.error_site; other |] in
  check_float "p_error = 1" 1.0 (Epp.Prob4.p_error out);
  check_float_eps 1e-9 "even polarity when other = 0" 0.7 out.Epp.Prob4.pa;
  check_float_eps 1e-9 "odd polarity when other = 1" 0.3 out.Epp.Prob4.pa_bar

let test_xor_cancellation () =
  (* a XOR a = 0: same-polarity reconvergence cancels exactly. *)
  let out = Epp.Rules.propagate Gate.Xor [| Epp.Prob4.error_site; Epp.Prob4.error_site |] in
  check_float "no error" 0.0 (Epp.Prob4.p_error out);
  check_float "stuck 0" 1.0 out.Epp.Prob4.p0

let test_xor_opposite_polarities () =
  (* a XOR ā = 1 always. *)
  let a_bar = Epp.Prob4.invert Epp.Prob4.error_site in
  let out = Epp.Rules.propagate Gate.Xor [| Epp.Prob4.error_site; a_bar |] in
  check_float "no error" 0.0 (Epp.Prob4.p_error out);
  check_float "stuck 1" 1.0 out.Epp.Prob4.p1

let test_and_same_polarity_reconvergence () =
  (* a AND a = a: same-polarity reconvergence reinforces. *)
  let out = Epp.Rules.propagate Gate.And [| Epp.Prob4.error_site; Epp.Prob4.error_site |] in
  check_float "still erroneous" 1.0 out.Epp.Prob4.pa

let test_and_opposite_polarity_reconvergence () =
  (* a AND ā = 0 whatever a is. *)
  let a_bar = Epp.Prob4.invert Epp.Prob4.error_site in
  let out = Epp.Rules.propagate Gate.And [| Epp.Prob4.error_site; a_bar |] in
  check_float "masked" 0.0 (Epp.Prob4.p_error out);
  check_float "stuck 0" 1.0 out.Epp.Prob4.p0

let test_buf_identity () =
  let v = Epp.Prob4.make ~pa:0.1 ~pa_bar:0.2 ~p1:0.3 ~p0:0.4 in
  check_bool "identity" true (close v (Epp.Rules.propagate Gate.Buf [| v |]))

let test_arity_checked () =
  Alcotest.check_raises "NOT arity" (Gate.Arity_error { kind = Gate.Not; got = 2 }) (fun () ->
      ignore (Epp.Rules.propagate Gate.Not [| Epp.Prob4.error_site; Epp.Prob4.error_site |]))

(* --- brute-force equivalence ------------------------------------------------ *)

let multi_kinds = [| Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor |]

let prop_rules_match_brute_force =
  qtest ~count:500 ~name:"all rules equal symbolic enumeration (arity 1-4)" seed_arbitrary
    (fun seed ->
      let rng = Rng.create ~seed in
      let kind = multi_kinds.(Rng.int rng ~bound:6) in
      let arity = 1 + Rng.int rng ~bound:4 in
      let inputs = Array.init arity (fun _ -> random_input rng) in
      close (Epp.Rules.propagate kind inputs) (brute_force kind inputs))

let prop_not_matches_brute_force =
  qtest ~count:100 ~name:"NOT/BUF equal symbolic enumeration" seed_arbitrary (fun seed ->
      let rng = Rng.create ~seed in
      let v = [| random_input rng |] in
      close (Epp.Rules.propagate Gate.Not v) (brute_force Gate.Not v)
      && close (Epp.Rules.propagate Gate.Buf v) (brute_force Gate.Buf v))

let prop_output_is_valid_vector =
  qtest ~count:300 ~name:"rule outputs are valid probability vectors" seed_arbitrary
    (fun seed ->
      let rng = Rng.create ~seed in
      let kind = multi_kinds.(Rng.int rng ~bound:6) in
      let arity = 1 + Rng.int rng ~bound:4 in
      let inputs = Array.init arity (fun _ -> random_input rng) in
      let out = Epp.Rules.propagate kind inputs in
      Epp.Prob4.validate out;
      true)

let prop_off_path_inputs_stay_off_path =
  qtest ~count:100 ~name:"no error in, no error out" seed_arbitrary (fun seed ->
      let rng = Rng.create ~seed in
      let kind = multi_kinds.(Rng.int rng ~bound:6) in
      let arity = 1 + Rng.int rng ~bound:4 in
      let inputs = Array.init arity (fun _ -> Epp.Prob4.of_sp (Rng.float rng)) in
      Epp.Prob4.is_off_path (Epp.Rules.propagate kind inputs))

let prop_nary_and_folds_like_binary =
  qtest ~count:100 ~name:"3-input AND equals nested 2-input ANDs" seed_arbitrary (fun seed ->
      let rng = Rng.create ~seed in
      let a = random_input rng and b = random_input rng and c = random_input rng in
      (* Associativity only holds for the exact semantics when the nesting
         does not hide correlation; with independent inputs it must match. *)
      let flat = Epp.Rules.propagate Gate.And [| a; b; c |] in
      let nested =
        Epp.Rules.propagate Gate.And [| Epp.Rules.propagate Gate.And [| a; b |]; c |]
      in
      close flat nested)

(* --- naive ablation --------------------------------------------------------- *)

let test_naive_overestimates_xor_cancellation () =
  (* The polarity-blind rules cannot see that a XOR a = 0. *)
  let out =
    Epp.Rules.Naive.propagate Gate.Xor
      [| Epp.Rules.Naive.error_site; Epp.Rules.Naive.error_site |]
  in
  check_float "claims full propagation" 1.0 out.Epp.Rules.Naive.pe

let test_naive_agrees_on_single_path () =
  (* With a single erroneous input the naive and polarity rules agree on the
     error mass. *)
  let n =
    Epp.Rules.Naive.propagate Gate.And
      [| Epp.Rules.Naive.error_site; Epp.Rules.Naive.of_sp 0.6 |]
  in
  let p = Epp.Rules.propagate Gate.And [| Epp.Prob4.error_site; Epp.Prob4.of_sp 0.6 |] in
  check_float_eps 1e-12 "same error mass" (Epp.Prob4.p_error p) n.Epp.Rules.Naive.pe

let prop_naive_valid_three_state =
  qtest ~count:200 ~name:"naive outputs sum to 1" seed_arbitrary (fun seed ->
      let rng = Rng.create ~seed in
      let kind = multi_kinds.(Rng.int rng ~bound:6) in
      let arity = 1 + Rng.int rng ~bound:4 in
      let inputs =
        Array.init arity (fun _ ->
            if Rng.int rng ~bound:3 = 0 then Epp.Rules.Naive.error_site
            else Epp.Rules.Naive.of_sp (Rng.float rng))
      in
      let out = Epp.Rules.Naive.propagate kind inputs in
      let s = out.Epp.Rules.Naive.pe +. out.Epp.Rules.Naive.p1 +. out.Epp.Rules.Naive.p0 in
      Float.abs (s -. 1.0) < 1e-9)

(* --- lane kernels ---------------------------------------------------------- *)

(* A warm [Rules.Lanes.propagate] allocates nothing: without flambda a float
   that crosses a call the compiler does not inline is boxed, so one stray
   helper call in a lane loop costs words per gate-lane evaluation.  The
   fixture is one gate whose fanins cover every gather case: on-path for
   every lane, on-path for some, off-path.  Each kind runs at 3 and 4 live
   lanes (the lane-major path, the 4 non-contiguous) and at 62 (the
   fanin-major path), 100 calls per case, after a warm-up call. *)
let test_lanes_allocation_free () =
  let lanes = Epp.Epp_batch.max_lanes in
  let full = (1 lsl lanes) - 1 in
  let scratch = Epp.Rules.Lanes.create ~lanes in
  (* nodes 0-3 feed gate 4; each node's plane row is its id + 1 *)
  let rows = [| 1; 2; 3; 4; 5 |] in
  let mask = [| full; full; 0b1010; 0; full |] in
  let sp = [| 0.3; 0.6; 0.45; 0.8; 0.5 |] in
  let plane v = Array.make (6 * lanes) v in
  let pa = plane 0.125 and pa_bar = plane 0.25 and p1 = plane 0.375 and p0 = plane 0.25 in
  let words kind fanins em =
    let run () =
      Epp.Rules.Lanes.propagate scratch kind ~fanins ~mask ~rows ~sp ~em ~stride:lanes
        ~pa ~pa_bar ~p1 ~p0 4
    in
    check_int "warm-up call faults no lane" 0 (run ());
    let before = Gc.minor_words () in
    for _ = 1 to 100 do
      ignore (run ())
    done;
    Gc.minor_words () -. before
  in
  let gates = [| 0; 1; 2; 3 |] in
  List.iter
    (fun (kind, fanins) ->
      List.iter
        (fun (path, em) ->
          check_float
            (Printf.sprintf "%s, %s: minor words" (Gate.to_string kind) path)
            0.0 (words kind fanins em))
        [ ("3 lanes", 0b111); ("4 scattered lanes", 0b1011010); ("62 lanes", full) ])
    [
      (Gate.And, gates); (Gate.Nand, gates); (Gate.Or, gates); (Gate.Nor, gates);
      (Gate.Xor, gates); (Gate.Xnor, gates); (Gate.Not, [| 2 |]); (Gate.Buf, [| 2 |]);
      (Gate.Const0, [||]); (Gate.Const1, [||]);
    ]

let () =
  Alcotest.run "rules"
    [
      ( "hand-checked",
        [
          Alcotest.test_case "the paper's OR example (gate H)" `Quick test_paper_or_example;
          Alcotest.test_case "AND blocked by controlling 0" `Quick test_and_blocks_with_zero;
          Alcotest.test_case "AND propagates through 1s" `Quick test_and_propagates_with_one;
          Alcotest.test_case "NAND flips polarity" `Quick test_nand_flips_polarity;
          Alcotest.test_case "XOR single error always propagates" `Quick
            test_xor_always_propagates_single_error;
          Alcotest.test_case "XOR same-polarity cancellation" `Quick test_xor_cancellation;
          Alcotest.test_case "XOR opposite polarities give 1" `Quick test_xor_opposite_polarities;
          Alcotest.test_case "AND same-polarity reconvergence" `Quick
            test_and_same_polarity_reconvergence;
          Alcotest.test_case "AND opposite-polarity masking" `Quick
            test_and_opposite_polarity_reconvergence;
          Alcotest.test_case "BUF identity" `Quick test_buf_identity;
          Alcotest.test_case "arity checked" `Quick test_arity_checked;
        ] );
      ( "brute-force equivalence",
        [
          prop_rules_match_brute_force;
          prop_not_matches_brute_force;
          prop_output_is_valid_vector;
          prop_off_path_inputs_stay_off_path;
          prop_nary_and_folds_like_binary;
        ] );
      ( "naive ablation",
        [
          Alcotest.test_case "overestimates XOR cancellation" `Quick
            test_naive_overestimates_xor_cancellation;
          Alcotest.test_case "agrees on single-error gates" `Quick test_naive_agrees_on_single_path;
          prop_naive_valid_three_state;
        ] );
      ( "lane kernels",
        [ Alcotest.test_case "allocation-free when warm" `Quick test_lanes_allocation_free ] );
    ]
