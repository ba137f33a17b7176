(* Tests for the netlist substrate: gate semantics, the builder's
   validation, circuit accessors, statistics. *)

open Helpers
open Netlist

(* --- gate semantics ------------------------------------------------------- *)

let test_gate_truth_tables () =
  let t = true and f = false in
  let cases =
    [
      (Gate.And, [| t; t |], t); (Gate.And, [| t; f |], f);
      (Gate.Nand, [| t; t |], f); (Gate.Nand, [| f; f |], t);
      (Gate.Or, [| f; f |], f); (Gate.Or, [| f; t |], t);
      (Gate.Nor, [| f; f |], t); (Gate.Nor, [| t; f |], f);
      (Gate.Xor, [| t; f |], t); (Gate.Xor, [| t; t |], f);
      (Gate.Xnor, [| t; t |], t); (Gate.Xnor, [| t; f |], f);
      (Gate.Not, [| t |], f); (Gate.Not, [| f |], t);
      (Gate.Buf, [| t |], t); (Gate.Buf, [| f |], f);
      (Gate.Const0, [||], f); (Gate.Const1, [||], t);
      (Gate.And, [| t; t; t |], t); (Gate.And, [| t; t; f |], f);
      (Gate.Xor, [| t; t; t |], t); (Gate.Xor, [| t; t; f |], f);
    ]
  in
  List.iter
    (fun (kind, inputs, expected) ->
      check_bool
        (Printf.sprintf "%s %s" (Gate.to_string kind)
           (String.concat "" (List.map (fun b -> if b then "1" else "0") (Array.to_list inputs))))
        expected (Gate.eval kind inputs))
    cases

let test_gate_arity_errors () =
  check_bool "NOT wants 1" false (Gate.arity_ok Gate.Not 2);
  check_bool "AND accepts 1 (ISCAS buffer idiom)" true (Gate.arity_ok Gate.And 1);
  check_bool "AND rejects 0" false (Gate.arity_ok Gate.And 0);
  check_bool "CONST0 wants 0" true (Gate.arity_ok Gate.Const0 0);
  Alcotest.check_raises "eval checks arity" (Gate.Arity_error { kind = Gate.Not; got = 2 })
    (fun () -> ignore (Gate.eval Gate.Not [| true; false |]))

let test_gate_of_string_aliases () =
  Alcotest.(check (option string))
    "INVERT -> NOT"
    (Some "NOT")
    (Option.map Gate.to_string (Gate.of_string "invert"));
  Alcotest.(check (option string))
    "BUFF -> BUF"
    (Some "BUF")
    (Option.map Gate.to_string (Gate.of_string "BUFF"));
  Alcotest.(check (option string)) "unknown" None (Option.map Gate.to_string (Gate.of_string "MUX"))

let test_gate_string_roundtrip () =
  List.iter
    (fun k ->
      match Gate.of_string (Gate.to_string k) with
      | Some k' -> check_bool (Gate.to_string k) true (k = k')
      | None -> Alcotest.failf "no parse for %s" (Gate.to_string k))
    Gate.all

let test_controlling_values () =
  Alcotest.(check (option bool)) "AND" (Some false) (Gate.controlling_value Gate.And);
  Alcotest.(check (option bool)) "NOR" (Some true) (Gate.controlling_value Gate.Nor);
  Alcotest.(check (option bool)) "XOR" None (Gate.controlling_value Gate.Xor)

(* eval_word bit i must equal eval applied to bit i of the inputs. *)
let prop_eval_word_consistent =
  qtest ~name:"eval_word consistent with eval on every bit" seed_arbitrary (fun seed ->
      let rng = Rng.create ~seed in
      let kinds = [| Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor |] in
      let kind = kinds.(Rng.int rng ~bound:6) in
      let arity = 1 + Rng.int rng ~bound:4 in
      let words = Array.init arity (fun _ -> Rng.word rng) in
      let out = Gate.eval_word kind words in
      let ok = ref true in
      for bit = 0 to 63 do
        let bits = Array.map (fun w -> Logic_sim.Word.get w bit) words in
        if Gate.eval kind bits <> Logic_sim.Word.get out bit then ok := false
      done;
      !ok)

let prop_eval_word_unary =
  qtest ~name:"eval_word NOT/BUF" seed_arbitrary (fun seed ->
      let rng = Rng.create ~seed in
      let w = Rng.word rng in
      Gate.eval_word Gate.Not [| w |] = Int64.lognot w && Gate.eval_word Gate.Buf [| w |] = w)

(* --- builder validation --------------------------------------------------- *)

let test_builder_minimal () =
  let b = Builder.create ~name:"mini" () in
  Builder.add_input b "a";
  Builder.add_gate b ~output:"y" ~kind:Gate.Not [ "a" ];
  Builder.add_output b "y";
  let c = Builder.freeze b in
  check_int "nodes" 2 (Circuit.node_count c);
  check_int "inputs" 1 (Circuit.input_count c);
  check_int "outputs" 1 (Circuit.output_count c);
  check_int "gates" 1 (Circuit.gate_count c);
  check_string "name" "mini" (Circuit.name c)

let test_builder_duplicate () =
  let b = Builder.create () in
  Builder.add_input b "a";
  Alcotest.check_raises "duplicate" (Builder.Error (Builder.Duplicate_definition "a"))
    (fun () -> Builder.add_gate b ~output:"a" ~kind:Gate.Not [ "a" ])

let test_builder_undefined () =
  let b = Builder.create () in
  Builder.add_input b "a";
  Builder.add_gate b ~output:"y" ~kind:Gate.And [ "a"; "ghost" ];
  Builder.add_output b "y";
  Alcotest.check_raises "undefined signal"
    (Builder.Error (Builder.Undefined_signal { referenced_by = "y"; missing = "ghost" }))
    (fun () -> ignore (Builder.freeze b))

let test_builder_undefined_output () =
  let b = Builder.create () in
  Builder.add_input b "a";
  Builder.add_output b "ghost";
  Alcotest.check_raises "undefined output"
    (Builder.Error
       (Builder.Undefined_signal { referenced_by = "OUTPUT declaration"; missing = "ghost" }))
    (fun () -> ignore (Builder.freeze b))

let test_builder_arity () =
  let b = Builder.create () in
  Builder.add_input b "a";
  Builder.add_input b "b";
  Alcotest.check_raises "NOT with 2 inputs"
    (Builder.Error (Builder.Arity { gate = "y"; kind = Gate.Not; got = 2 }))
    (fun () -> Builder.add_gate b ~output:"y" ~kind:Gate.Not [ "a"; "b" ])

let test_builder_duplicate_output () =
  let b = Builder.create () in
  Builder.add_input b "a";
  Builder.add_output b "a";
  Alcotest.check_raises "duplicate output" (Builder.Error (Builder.Duplicate_output "a"))
    (fun () -> Builder.add_output b "a")

let test_builder_cycle () =
  let b = Builder.create () in
  Builder.add_input b "a";
  Builder.add_gate b ~output:"p" ~kind:Gate.And [ "a"; "q" ];
  Builder.add_gate b ~output:"q" ~kind:Gate.And [ "a"; "p" ];
  Builder.add_output b "q";
  match Builder.freeze b with
  | _ -> Alcotest.fail "expected Combinational_cycle"
  | exception Builder.Error (Builder.Combinational_cycle loops) ->
    check_int "one loop" 1 (List.length loops);
    Alcotest.(check (list string)) "names" [ "p"; "q" ] (List.sort compare (List.hd loops))

let test_builder_ff_breaks_cycle () =
  (* The same feedback through a flip-flop is legal. *)
  let b = Builder.create () in
  Builder.add_input b "a";
  Builder.add_gate b ~output:"p" ~kind:Gate.And [ "a"; "q" ];
  Builder.add_dff b ~q:"q" ~d:"p";
  Builder.add_output b "p";
  let c = Builder.freeze b in
  check_int "ff count" 1 (Circuit.ff_count c)

let test_builder_forward_reference () =
  let b = Builder.create () in
  Builder.add_gate b ~output:"y" ~kind:Gate.Not [ "a" ];
  Builder.add_input b "a";
  Builder.add_output b "y";
  let c = Builder.freeze b in
  check_int "resolved" 2 (Circuit.node_count c)

let test_error_to_string_coverage () =
  List.iter
    (fun e -> check_bool "nonempty message" true (String.length (Builder.error_to_string e) > 0))
    [
      Builder.Duplicate_definition "x";
      Builder.Undefined_signal { referenced_by = "y"; missing = "x" };
      Builder.Arity { gate = "y"; kind = Gate.Not; got = 3 };
      Builder.Combinational_cycle [ [ "a"; "b" ] ];
      Builder.Duplicate_output "z";
    ]

(* --- circuit accessors ---------------------------------------------------- *)

let test_circuit_structure () =
  let c = fig1 () in
  check_int "nodes" 10 (Circuit.node_count c);
  check_int "gates" 5 (Circuit.gate_count c);
  check_int "depth" 4 (Circuit.depth c);
  let h = Circuit.find c "H" in
  Alcotest.(check (list int)) "H has no comb fanout" [] (Circuit.fanouts c h);
  let a = Circuit.find c "A" in
  check_int "A drives two gates" 2 (List.length (Circuit.fanouts c a));
  check_bool "A is a gate" true (Circuit.is_gate c a);
  check_bool "I1 is input" true (Circuit.is_input c (Circuit.find c "I1"))

let test_circuit_find () =
  let c = fig1 () in
  check_bool "find_opt hit" true (Circuit.find_opt c "H" <> None);
  Alcotest.(check (option int)) "find_opt miss" None (Circuit.find_opt c "nope");
  Alcotest.check_raises "find miss" Not_found (fun () -> ignore (Circuit.find c "nope"))

let test_observations_combinational () =
  let c = fig1 () in
  match Circuit.observations c with
  | [ Circuit.Po h ] ->
    check_int "PO is H" (Circuit.find c "H") h;
    check_int "net" h (Circuit.observation_net c (Circuit.Po h));
    check_string "name" "H" (Circuit.observation_name c (Circuit.Po h))
  | _ -> Alcotest.fail "expected exactly one PO"

let test_observations_sequential () =
  let c = shift_register () in
  let obs = Circuit.observations c in
  check_int "1 PO + 3 FF" 4 (List.length obs);
  let ffd =
    List.filter_map
      (function
        | Circuit.Ff_data ff -> Some (Circuit.observation_name c (Circuit.Ff_data ff))
        | Circuit.Po _ -> None)
      obs
  in
  Alcotest.(check (list string)) "ff data names" [ "q0.D"; "q1.D"; "q2.D" ]
    (List.sort compare ffd)

let test_pseudo_inputs () =
  let c = shift_register () in
  let pi = List.map (Circuit.node_name c) (Circuit.pseudo_inputs c) in
  Alcotest.(check (list string)) "si + 3 FFs" [ "q0"; "q1"; "q2"; "si" ] (List.sort compare pi)

let test_topological_order_valid () =
  let c = fig1 () in
  let order = Array.to_list (Circuit.topological_order c) in
  check_bool "valid order" true (Topo.is_topological_order (Circuit.graph c) order)

(* --- analysis context ------------------------------------------------------ *)

let test_analysis_memo_identity () =
  let c = fig1 () in
  let o1 = Circuit.topological_order c in
  check_bool "order served from one memo" true (o1 == Circuit.topological_order c);
  let ctx = Analysis.get c in
  check_bool "context shares the memoized order" true (Analysis.order ctx == o1);
  check_bool "context itself is memoized" true (Analysis.get c == ctx);
  check_bool "levels memoized" true (Circuit.levels c == Circuit.levels c);
  check_bool "context shares levels" true (Analysis.levels ctx == Circuit.levels c);
  check_bool "reverse CSR memoized" true
    (Circuit.reverse_csr c == Circuit.reverse_csr c);
  check_bool "cone served from cache" true
    (Analysis.cone ctx 0 == Analysis.cone ctx 0);
  check_bool "distance map served from cache" true
    (Analysis.distances_to ctx 0 == Analysis.distances_to ctx 0)

(* The batch engine's per-circuit layout facts, against naive recounts. *)
let test_analysis_level_facts () =
  let c = Circuit_gen.Embedded.s27 () in
  let ctx = Analysis.get c in
  let n = Circuit.node_count c in
  let lv = Analysis.levels ctx in
  let offsets = Analysis.level_offsets ctx in
  check_int "one offset per level, plus the end" (Analysis.depth ctx + 2)
    (Array.length offsets);
  Array.iteri
    (fun l off ->
      check_int
        (Printf.sprintf "nodes below level %d" l)
        (Array.fold_left (fun acc x -> if x < l then acc + 1 else acc) 0 lv)
        off)
    offsets;
  check_int "the last offset is the node count" n offsets.(Array.length offsets - 1);
  let observed = Analysis.observed ctx in
  for v = 0 to n - 1 do
    check_bool
      (Printf.sprintf "node %d observed" v)
      (Array.mem v (Analysis.observation_nets ctx))
      observed.(v);
    check_int
      (Printf.sprintf "last read level of node %d" v)
      (List.fold_left (fun m g -> max m lv.(g)) lv.(v) (Circuit.fanouts c v))
      (Analysis.max_fanout_level ctx).(v)
  done;
  check_bool "offsets memoized" true (Analysis.level_offsets ctx == offsets);
  check_bool "observed mask memoized" true (Analysis.observed ctx == observed)

let test_analysis_counters () =
  let registry = Obs.Metrics.create () in
  Obs.Hooks.set_metrics registry;
  Fun.protect ~finally:Obs.Hooks.reset @@ fun () ->
  let c = fig1 () in
  ignore (Circuit.topological_order c);
  ignore (Circuit.topological_order c);
  let ctx = Analysis.get c in
  ignore (Analysis.order ctx);
  ignore (Analysis.levels ctx);
  ignore (Analysis.depth ctx);
  let s = Obs.Metrics.snapshot registry in
  check_int "exactly one sort ran" 1
    (Obs.Metrics.counter_value s "analysis.topo.computed");
  check_int "accessor bypasses are metered" 2
    (Obs.Metrics.counter_value s "analysis.topo.direct_calls");
  check_int "context built once" 1
    (Obs.Metrics.counter_value s "analysis.context.computed");
  check_bool "reuse shows up as cache hits" true
    (Obs.Metrics.counter_value s "analysis.cache.hit" > 0)

(* The ownership contract of DESIGN.md §11: every array the context hands
   out is shared, and no engine may write into it.  Snapshot all of them,
   run every engine family over the circuit, and compare. *)
let prop_analysis_arrays_immutable =
  qtest ~count:25 ~name:"engines never mutate the shared analysis arrays"
    seed_arbitrary (fun seed ->
      let c = random_small_dag ~seed in
      let ctx = Analysis.get c in
      let rev = Analysis.reverse_csr ctx in
      let obs_net = (Analysis.observation_nets ctx).(0) in
      let snapshots =
        [
          Array.copy (Analysis.order ctx);
          Array.copy (Analysis.position ctx);
          Array.copy (Analysis.gate_order ctx);
          Array.copy (Analysis.levels ctx);
          Array.copy (Analysis.observation_nets ctx);
          Array.copy (Csr.offsets rev);
          Array.copy (Csr.targets rev);
          Array.copy (Analysis.distances_to ctx obs_net);
          Array.copy (Analysis.level_offsets ctx);
          Array.copy (Analysis.max_fanout_level ctx);
        ]
      in
      let cone_snapshot = Array.copy (Analysis.cone ctx 0) in
      let observed_snapshot = Array.copy (Analysis.observed ctx) in
      let engine = Epp.Epp_engine.create c in
      ignore (Epp.Epp_engine.analyze_all engine);
      ignore
        (Epp.Epp_batch.analyze_site_array engine
           (Array.init (Circuit.node_count c) Fun.id));
      ignore (Sigprob.Sp_topological.compute c);
      ignore (Sigprob.Observability.compute c);
      let timing = Sta.Timing.analyze c in
      ignore
        (Sta.Timing.slacks timing
           ~clock_period:(Sta.Timing.max_delay timing +. 1.0));
      let current =
        [
          Analysis.order ctx;
          Analysis.position ctx;
          Analysis.gate_order ctx;
          Analysis.levels ctx;
          Analysis.observation_nets ctx;
          Csr.offsets rev;
          Csr.targets rev;
          Analysis.distances_to ctx obs_net;
          Analysis.level_offsets ctx;
          Analysis.max_fanout_level ctx;
        ]
      in
      List.for_all2 (fun a b -> a = b) snapshots current
      && cone_snapshot = Analysis.cone ctx 0
      && observed_snapshot = Analysis.observed ctx)

(* --- statistics ----------------------------------------------------------- *)

let test_stats_fig1 () =
  let s = Stats.compute ~with_reconvergence:true (fig1 ()) in
  check_int "gates" 5 s.Stats.gate_count;
  check_int "depth" 4 s.Stats.depth;
  check_int "max fanin" 3 s.Stats.max_fanin;
  (* A fans out to D and E whose branches reconverge at H. *)
  check_bool "fig1 has a reconvergent site" true (s.Stats.reconvergent_site_count >= 1)

let test_stats_no_reconvergence_in_tree () =
  let s = Stats.compute ~with_reconvergence:true (small_tree ()) in
  check_int "trees never reconverge" 0 s.Stats.reconvergent_site_count

let test_stats_gate_kind_counts () =
  let s = Stats.compute (fig1 ()) in
  let find k = List.assoc_opt k s.Stats.gate_kind_counts in
  Alcotest.(check (option int)) "ANDs" (Some 3) (find Gate.And);
  Alcotest.(check (option int)) "ORs" (Some 1) (find Gate.Or);
  Alcotest.(check (option int)) "NOTs" (Some 1) (find Gate.Not);
  Alcotest.(check (option int)) "no XOR entry" None (find Gate.Xor)

let () =
  Alcotest.run "netlist"
    [
      ( "gate",
        [
          Alcotest.test_case "truth tables" `Quick test_gate_truth_tables;
          Alcotest.test_case "arity rules" `Quick test_gate_arity_errors;
          Alcotest.test_case "of_string aliases" `Quick test_gate_of_string_aliases;
          Alcotest.test_case "to_string/of_string round-trip" `Quick test_gate_string_roundtrip;
          Alcotest.test_case "controlling values" `Quick test_controlling_values;
          prop_eval_word_consistent;
          prop_eval_word_unary;
        ] );
      ( "builder",
        [
          Alcotest.test_case "minimal circuit" `Quick test_builder_minimal;
          Alcotest.test_case "duplicate definition" `Quick test_builder_duplicate;
          Alcotest.test_case "undefined signal" `Quick test_builder_undefined;
          Alcotest.test_case "undefined output" `Quick test_builder_undefined_output;
          Alcotest.test_case "arity violation" `Quick test_builder_arity;
          Alcotest.test_case "duplicate output" `Quick test_builder_duplicate_output;
          Alcotest.test_case "combinational cycle" `Quick test_builder_cycle;
          Alcotest.test_case "flip-flop breaks cycle" `Quick test_builder_ff_breaks_cycle;
          Alcotest.test_case "forward references" `Quick test_builder_forward_reference;
          Alcotest.test_case "error messages" `Quick test_error_to_string_coverage;
        ] );
      ( "circuit",
        [
          Alcotest.test_case "structure of fig1" `Quick test_circuit_structure;
          Alcotest.test_case "find" `Quick test_circuit_find;
          Alcotest.test_case "observations (combinational)" `Quick test_observations_combinational;
          Alcotest.test_case "observations (sequential)" `Quick test_observations_sequential;
          Alcotest.test_case "pseudo inputs" `Quick test_pseudo_inputs;
          Alcotest.test_case "topological order valid" `Quick test_topological_order_valid;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "memoized facts are shared instances" `Quick
            test_analysis_memo_identity;
          Alcotest.test_case "reuse counters" `Quick test_analysis_counters;
          Alcotest.test_case "level layout facts" `Quick test_analysis_level_facts;
          prop_analysis_arrays_immutable;
        ] );
      ( "stats",
        [
          Alcotest.test_case "fig1 stats" `Quick test_stats_fig1;
          Alcotest.test_case "tree has no reconvergence" `Quick test_stats_no_reconvergence_in_tree;
          Alcotest.test_case "gate kind counts" `Quick test_stats_gate_kind_counts;
        ] );
    ]
