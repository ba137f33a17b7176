(* Tests for the bit-parallel logic simulator: word helpers, scalar/word
   agreement, cone-restricted faulty evaluation, sequential stepping. *)

open Helpers
open Netlist

(* --- word helpers ---------------------------------------------------------- *)

let naive_popcount x =
  let c = ref 0 in
  for i = 0 to 63 do
    if Logic_sim.Word.get x i then incr c
  done;
  !c

let test_popcount_known () =
  check_int "zero" 0 (Logic_sim.Word.popcount 0L);
  check_int "all ones" 64 (Logic_sim.Word.popcount Int64.minus_one);
  check_int "one bit" 1 (Logic_sim.Word.popcount 0x8000000000000000L);
  check_int "pattern" 32 (Logic_sim.Word.popcount 0x5555555555555555L)

let prop_popcount =
  qtest ~name:"popcount equals bit loop" seed_arbitrary (fun seed ->
      let rng = Rng.create ~seed in
      let w = Rng.word rng in
      Logic_sim.Word.popcount w = naive_popcount w)

let test_get_set () =
  let w = Logic_sim.Word.set 0L 17 true in
  check_bool "set" true (Logic_sim.Word.get w 17);
  check_bool "neighbours clear" false (Logic_sim.Word.get w 16);
  let w = Logic_sim.Word.set w 17 false in
  check_bool "cleared" false (Logic_sim.Word.get w 17)

let test_low_mask () =
  Alcotest.(check int64) "0" 0L (Logic_sim.Word.low_mask 0);
  Alcotest.(check int64) "3" 7L (Logic_sim.Word.low_mask 3);
  Alcotest.(check int64) "64" Int64.minus_one (Logic_sim.Word.low_mask 64);
  Alcotest.check_raises "65" (Invalid_argument "Word.low_mask") (fun () ->
      ignore (Logic_sim.Word.low_mask 65))

let test_of_bool () =
  Alcotest.(check int64) "true" Int64.minus_one (Logic_sim.Word.of_bool true);
  Alcotest.(check int64) "false" 0L (Logic_sim.Word.of_bool false)

(* --- combinational simulation ---------------------------------------------- *)

let test_eval_bool_fig1 () =
  let c = fig1 () in
  let cs = Logic_sim.Sim.compile c in
  (* I1=I2=1 so A=1; B=1 so D=1; H=1. *)
  let truth = [ ("I1", true); ("I2", true); ("B", true); ("C", false); ("F", false) ] in
  let v = Logic_sim.Sim.eval_bool cs ~assign:(fun n -> List.assoc (Circuit.node_name c n) truth) in
  check_bool "A" true v.(Circuit.find c "A");
  check_bool "E" false v.(Circuit.find c "E");
  check_bool "D" true v.(Circuit.find c "D");
  check_bool "H" true v.(Circuit.find c "H")

let prop_words_agree_with_bool =
  qtest ~count:50 ~name:"word simulation agrees with scalar per bit" seed_arbitrary (fun seed ->
      let c = random_small_dag ~seed in
      let cs = Logic_sim.Sim.compile c in
      let rng = Rng.create ~seed in
      let words =
        Array.init (Circuit.node_count c) (fun _ -> Rng.word rng)
      in
      let wv = Logic_sim.Sim.eval_words cs ~assign:(fun v -> words.(v)) in
      let ok = ref true in
      for bit = 0 to 7 do
        let bv =
          Logic_sim.Sim.eval_bool cs ~assign:(fun v -> Logic_sim.Word.get words.(v) bit)
        in
        for v = 0 to Circuit.node_count c - 1 do
          if bv.(v) <> Logic_sim.Word.get wv.(v) bit then ok := false
        done
      done;
      !ok)

let test_run_bool_length_check () =
  let cs = Logic_sim.Sim.compile (fig1 ()) in
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Sim.run_bool: values array has wrong length") (fun () ->
      Logic_sim.Sim.run_bool cs (Array.make 3 false))

(* Faulty-cone evaluation must equal a full re-simulation with the site
   forced. *)
let prop_flip_equals_full_resim =
  qtest ~count:50 ~name:"eval_words_with_flip equals forced re-simulation" seed_arbitrary
    (fun seed ->
      let c = random_small_dag ~seed in
      let cs = Logic_sim.Sim.compile c in
      let rng = Rng.create ~seed in
      let inputs = Array.init (Circuit.node_count c) (fun _ -> Rng.word rng) in
      let base = Logic_sim.Sim.eval_words cs ~assign:(fun v -> inputs.(v)) in
      let site = Rng.int rng ~bound:(Circuit.node_count c) in
      let cone = Analysis.cone (Analysis.get c) site in
      let faulty = Logic_sim.Sim.eval_words_with_flip cs ~base ~cone ~site in
      (* Reference: fresh evaluation with the site's value overridden. *)
      let reference = Array.copy base in
      reference.(site) <- Int64.lognot base.(site);
      Array.iter
        (fun v ->
          if v <> site then
            match Circuit.node c v with
            | Circuit.Gate { kind; fanins } ->
              reference.(v) <- Gate.eval_word kind (Array.map (fun u -> reference.(u)) fanins)
            | Circuit.Input | Circuit.Ff _ -> ())
        (Analysis.order (Analysis.get c));
      reference = faulty)

let test_flip_outside_cone_untouched () =
  let c = fig1 () in
  let cs = Logic_sim.Sim.compile c in
  let rng = Rng.create ~seed:4 in
  let base = Logic_sim.Sim.random_words cs ~rng in
  let site = Circuit.find c "G" in
  let cone = Analysis.cone (Analysis.get c) site in
  let faulty = Logic_sim.Sim.eval_words_with_flip cs ~base ~cone ~site in
  (* D is not downstream of G. *)
  let d = Circuit.find c "D" in
  Alcotest.(check int64) "D untouched" base.(d) faulty.(d);
  Alcotest.(check int64) "site flipped" (Int64.lognot base.(site)) faulty.(site)

let test_biased_words_mean () =
  let c = fig1 () in
  let cs = Logic_sim.Sim.compile c in
  let rng = Rng.create ~seed:21 in
  let b = Circuit.find c "B" in
  let ones = ref 0 in
  let words = 2000 in
  for _ = 1 to words do
    let v = Logic_sim.Sim.biased_words cs ~rng ~input_sp:(fun n -> if n = b then 0.2 else 0.5) in
    ones := !ones + Logic_sim.Word.popcount v.(b)
  done;
  check_float_eps 0.01 "B at 0.2" 0.2 (float_of_int !ones /. float_of_int (words * 64))

(* --- sequential simulation ------------------------------------------------- *)

let test_shift_register_propagation () =
  let c = shift_register () in
  let cs = Logic_sim.Sim.compile c in
  let sim = Logic_sim.Seq_sim.create cs in
  let si = Circuit.find c "si" in
  let q0 = Circuit.find c "q0" and q1 = Circuit.find c "q1" and q2 = Circuit.find c "q2" in
  (* Push all-ones for one cycle, then zeros: the one marches down the
     register. *)
  let _ = Logic_sim.Seq_sim.cycle sim ~pi:(fun _ -> Int64.minus_one) in
  Alcotest.(check int64) "q0 latched si" Int64.minus_one (Logic_sim.Seq_sim.ff_state sim q0);
  Alcotest.(check int64) "q1 still 0" 0L (Logic_sim.Seq_sim.ff_state sim q1);
  let _ = Logic_sim.Seq_sim.cycle sim ~pi:(fun _ -> 0L) in
  Alcotest.(check int64) "q0 back to 0" 0L (Logic_sim.Seq_sim.ff_state sim q0);
  Alcotest.(check int64) "q1 got the one" Int64.minus_one (Logic_sim.Seq_sim.ff_state sim q1);
  let _ = Logic_sim.Seq_sim.cycle sim ~pi:(fun _ -> 0L) in
  Alcotest.(check int64) "q2 got the one" Int64.minus_one (Logic_sim.Seq_sim.ff_state sim q2);
  ignore si

let test_seq_init () =
  let c = shift_register () in
  let cs = Logic_sim.Sim.compile c in
  let q1 = Circuit.find c "q1" in
  let sim = Logic_sim.Seq_sim.create ~init:(fun ff -> if ff = q1 then Int64.minus_one else 0L) cs in
  Alcotest.(check int64) "initial state" Int64.minus_one (Logic_sim.Seq_sim.ff_state sim q1)

let test_seq_tap_combinational () =
  let c = shift_register () in
  let cs = Logic_sim.Sim.compile c in
  let q0 = Circuit.find c "q0" and q2 = Circuit.find c "q2" in
  let sim =
    Logic_sim.Seq_sim.create ~init:(fun ff -> if ff = q0 || ff = q2 then Int64.minus_one else 0L) cs
  in
  let values = Logic_sim.Seq_sim.cycle sim ~pi:(fun _ -> 0L) in
  (* tap = q0 XOR q2 evaluated on the pre-clock state: 1 XOR 1 = 0. *)
  Alcotest.(check int64) "tap" 0L values.(Circuit.find c "tap")

let test_seq_ff_state_guard () =
  let c = shift_register () in
  let sim = Logic_sim.Seq_sim.create (Logic_sim.Sim.compile c) in
  Alcotest.check_raises "not a flip-flop" (Invalid_argument "Seq_sim.ff_state: not a flip-flop")
    (fun () -> ignore (Logic_sim.Seq_sim.ff_state sim (Circuit.find c "si")))

let test_seq_run_random () =
  let c = shift_register () in
  let sim = Logic_sim.Seq_sim.create (Logic_sim.Sim.compile c) in
  let rng = Rng.create ~seed:3 in
  (match Logic_sim.Seq_sim.run_random sim ~rng ~cycles:0 with
  | None -> ()
  | Some _ -> Alcotest.fail "0 cycles should return None");
  match Logic_sim.Seq_sim.run_random sim ~rng ~cycles:5 with
  | Some values -> check_int "full array" (Circuit.node_count c) (Array.length values)
  | None -> Alcotest.fail "expected values"

let () =
  Alcotest.run "logic_sim"
    [
      ( "word",
        [
          Alcotest.test_case "popcount known values" `Quick test_popcount_known;
          prop_popcount;
          Alcotest.test_case "get/set" `Quick test_get_set;
          Alcotest.test_case "low_mask" `Quick test_low_mask;
          Alcotest.test_case "of_bool" `Quick test_of_bool;
        ] );
      ( "combinational",
        [
          Alcotest.test_case "scalar evaluation of fig1" `Quick test_eval_bool_fig1;
          prop_words_agree_with_bool;
          Alcotest.test_case "length check" `Quick test_run_bool_length_check;
          prop_flip_equals_full_resim;
          Alcotest.test_case "flip leaves non-cone untouched" `Quick
            test_flip_outside_cone_untouched;
          Alcotest.test_case "biased words mean" `Quick test_biased_words_mean;
        ] );
      ( "sequential",
        [
          Alcotest.test_case "shift register propagation" `Quick test_shift_register_propagation;
          Alcotest.test_case "initial state" `Quick test_seq_init;
          Alcotest.test_case "tap sees pre-clock state" `Quick test_seq_tap_combinational;
          Alcotest.test_case "ff_state guard" `Quick test_seq_ff_state_guard;
          Alcotest.test_case "run_random" `Quick test_seq_run_random;
        ] );
    ]
