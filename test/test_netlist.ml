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

let cyclic_builder () =
  let b = Builder.create () in
  Builder.add_input b "a";
  Builder.add_gate b ~output:"p" ~kind:Gate.And [ "a"; "q" ];
  Builder.add_gate b ~output:"q" ~kind:Gate.And [ "a"; "p" ];
  Builder.add_output b "q";
  b

let test_builder_cycle () =
  match Builder.freeze (cyclic_builder ()) with
  | _ -> Alcotest.fail "expected Combinational_cycle"
  | exception Builder.Error (Builder.Combinational_cycle loops) ->
    check_int "one loop" 1 (List.length loops);
    Alcotest.(check (list string)) "names" [ "p"; "q" ] (List.sort compare (List.hd loops))

(* The sort that proves a netlist acyclic is its analysis order: the
   context is published at [freeze], and nothing after it sorts again. *)
let test_builder_freeze_sorts_once () =
  let m = Obs.Metrics.create () in
  Obs.Hooks.set_metrics m;
  Fun.protect ~finally:Obs.Hooks.reset @@ fun () ->
  let counts () =
    let s = Obs.Metrics.snapshot m in
    ( Obs.Metrics.counter_value s "analysis.topo.computed",
      Obs.Metrics.counter_value s "analysis.context.computed" )
  in
  let c = Bench_format.Parser.parse_string ~name:"s27" Circuit_gen.Embedded.s27_source in
  Alcotest.(check (pair int int)) "freeze sorted and published" (1, 1) (counts ());
  ignore (Epp.Ser_estimator.analyze_all (Epp.Epp_engine.create c));
  Alcotest.(check (pair int int)) "the engine and the sweep add neither" (1, 1) (counts ())

let test_builder_cycle_publishes_nothing () =
  let m = Obs.Metrics.create () in
  Obs.Hooks.set_metrics m;
  Fun.protect ~finally:Obs.Hooks.reset @@ fun () ->
  (match Builder.freeze (cyclic_builder ()) with
  | _ -> Alcotest.fail "expected Combinational_cycle"
  | exception Builder.Error (Builder.Combinational_cycle _) -> ());
  let s = Obs.Metrics.snapshot m in
  check_int "no sort counted" 0 (Obs.Metrics.counter_value s "analysis.topo.computed");
  check_int "no context published" 0 (Obs.Metrics.counter_value s "analysis.context.computed")

(* A circuit that fails to load is the CLI run's failure: exit 124 with the
   loader's message on stderr. *)
let test_cli_load_errors () =
  let bench = Filename.temp_file "cyclic" ".bench" in
  Out_channel.with_open_bin bench (fun oc ->
      output_string oc "INPUT(a)\nOUTPUT(c)\nb = AND(a, c)\nc = AND(a, b)\n");
  let run spec =
    let err = Filename.temp_file "ser_estimate" ".err" in
    let code =
      Sys.command
        (Printf.sprintf "%s %s > /dev/null 2> %s" ser_estimate_exe (Filename.quote spec)
           (Filename.quote err))
    in
    let text = In_channel.with_open_bin err In_channel.input_all in
    Sys.remove err;
    (code, text)
  in
  List.iter
    (fun (spec, message) ->
      let code, text = run spec in
      check_int (spec ^ " exits 124") 124 code;
      check_string (spec ^ " on stderr") ("ser_estimate: " ^ message ^ "\n") text)
    [
      (bench, bench ^ ": invalid netlist: combinational cycle(s): {b, c}");
      ("embedded:zz", "unknown embedded circuit \"zz\" (available: s27, c17)");
      ("profile:s1196:abc", "profile seed \"abc\" is not an integer");
    ];
  Sys.remove bench

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
  check_int "depth" 4 (Analysis.depth (Analysis.get c));
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
  let order = Array.to_list (Analysis.order (Analysis.get c)) in
  check_bool "valid order" true (is_topological_order (Circuit.graph c) order)

(* The graph and the facts derived from it, recorded when the circuit still
   kept successor and predecessor lists beside a CSR copy: the topological
   order, the levels and the forward and reverse offsets/targets keep their
   MD5 on every pinned circuit, so cones, SP, EPP rows, fingerprints and
   checkpoints cannot move with the representation. *)
let digest_ints a =
  let b = Buffer.create (8 * Array.length a) in
  Array.iter
    (fun x ->
      Buffer.add_string b (string_of_int x);
      Buffer.add_char b ',')
    a;
  Digest.to_hex (Digest.string (Buffer.contents b))

let graph_pins =
  let tmr c =
    Transform.triplicate c
      ~nodes:(List.filter (Circuit.is_gate c) (List.init (Circuit.node_count c) Fun.id))
  in
  [
    ( "s27",
      (fun () -> Circuit_gen.Embedded.s27 ()),
      [ "07b0e53bda5e9410bb5321003ba598ef"; "3491bd8022f973d5c6046b26e4f275b8";
        "3f194a9244f0ce24ca7ee02f215278ef"; "9b55481133ab7ca21e628d4ad71350b0";
        "904ccb57cfae1d8478338e35b13390db"; "ac6da38925877746b41828c8a8bdbedc" ] );
    ( "s13207:1",
      (fun () -> Circuit_gen.Random_dag.generate ~seed:1 Circuit_gen.Profiles.s13207),
      [ "c4d8b620db9c8dbd4ccd938ca99f8a2b"; "ca11c56a5752aeb4a9349f71dc6d6ed8";
        "6b05bdfae1b6d4b1f3aff5494fb317be"; "b1678768b9406f466846b21b1c06937c";
        "5decccd05872e4b8697198f20e7ef68b"; "ad2b108ae0129d874fbb1ee97220748c" ] );
    ( "parity65536",
      (fun () -> Circuit_gen.Structured.parity_tree ~width:65536 ()),
      [ "0c809982b025c74c8f8d4c242e8dac59"; "b5884c063283049aa76211137eb75cbc";
        "613ef822380ab1073cc3299d1ecda43b"; "9aaf8708159dcd7b4b4178dd203c0142";
        "9816b9c1c52eb22d803ec6b225fe3b85"; "0dfd581f4d718190e77ebad20c78a1e6" ] );
    ( "mux14",
      (fun () -> Circuit_gen.Structured.mux_tree ~select_bits:14 ()),
      [ "c80e57a02726c2782e5ca80fac69704d"; "832a1dc4d3d1a6c6601d9067da0ba640";
        "b89a893ff19e675778fd17cfac4ee841"; "bc3f8523da80cd97ba38be89e057d180";
        "8ca87f3e840d41022ababc674794a9b7"; "6a24e3989ccc0eaf42e716c9bead57ad" ] );
    ( "tmr s1196:3",
      (fun () -> tmr (Circuit_gen.Random_dag.generate ~seed:3 Circuit_gen.Profiles.s1196)),
      [ "644688537690cb85964b02ebc3d0195d"; "20c821b2d08f41014e2802e8ad7cde1a";
        "fb050406a7d6121c4f2cd3719f994ec0"; "24d798c84a6c54bc769ee6b149df8de5";
        "057299b476ee34d2c497a94f742305a6"; "f2ed0b8ac6668783cf46a0f98db59e70" ] );
  ]

let test_graph_pinned () =
  List.iter
    (fun (label, make, md5s) ->
      let c = make () in
      let ctx = Analysis.get c in
      let g = Circuit.graph c in
      List.iter2
        (fun (what, a) md5 -> check_string (label ^ " " ^ what) md5 (digest_ints a))
        [
          ("order", Analysis.order ctx);
          ("levels", Analysis.levels ctx);
          ("offsets", Digraph.offsets g);
          ("targets", Digraph.targets g);
          ("reverse offsets", Digraph.rev_offsets g);
          ("reverse targets", Digraph.rev_targets g);
        ]
        md5s)
    graph_pins

(* --- analysis context ------------------------------------------------------ *)

let test_analysis_memo_identity () =
  let c = fig1 () in
  let ctx = Analysis.get c in
  let o1 = Analysis.order ctx in
  check_bool "order served from one memo" true (o1 == Analysis.order (Analysis.get c));
  check_bool "context itself is memoized" true (Analysis.get c == ctx);
  check_bool "levels memoized" true (Analysis.levels ctx == Analysis.levels ctx);
  check_int "depth is the largest level" (Array.fold_left max 0 (Analysis.levels ctx))
    (Analysis.depth ctx);
  check_bool "one graph per circuit" true (Analysis.csr ctx == Circuit.graph c);
  check_bool "position memoized" true (Analysis.position ctx == Analysis.position ctx);
  check_int "a cone is its members" 5 (Array.length (Analysis.cone ctx (Circuit.find c "A")));
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
  ignore (Analysis.order (Analysis.get c));
  ignore (Analysis.order (Analysis.get c));
  let ctx = Analysis.get c in
  ignore (Analysis.order ctx);
  ignore (Analysis.levels ctx);
  ignore (Analysis.depth ctx);
  let s = Obs.Metrics.snapshot registry in
  check_int "exactly one sort ran" 1
    (Obs.Metrics.counter_value s "analysis.topo.computed");
  check_int "context built once" 1
    (Obs.Metrics.counter_value s "analysis.context.computed");
  check_bool "reuse shows up as cache hits" true
    (Obs.Metrics.counter_value s "analysis.cache.hit" > 0)

(* Cones against naive searches: a node-sized mask filled by a plain
   stack search (forward over the fanouts, backward over the fanins), then
   the topological order filtered through it.  The member arrays must be
   exactly that, and the reached observations read from a site's members
   exactly those whose net the mask marks. *)
let naive_mask c ~next roots =
  let mark = Array.make (Circuit.node_count c) false in
  let rec visit v =
    if not mark.(v) then begin
      mark.(v) <- true;
      List.iter visit (next v)
    end
  in
  List.iter visit roots;
  mark

let filtered_order ctx mark =
  Array.of_list (List.filter (fun v -> mark.(v)) (Array.to_list (Analysis.order ctx)))

let cones_match_naive ctx sites =
  let c = Analysis.circuit ctx in
  let forward = naive_mask c ~next:(Circuit.fanouts c) in
  let backward = naive_mask c ~next:(fun v -> Array.to_list (Circuit.fanins c v)) in
  List.for_all
    (fun site ->
      let mark = forward [ site ] in
      let reached =
        List.filter (fun o -> mark.(Circuit.observation_net c o)) (Circuit.observations c)
      in
      let nets = List.map (Circuit.observation_net c) reached in
      let cone = Analysis.cone ctx site in
      (cone = filtered_order ctx mark
      || QCheck2.Test.fail_reportf "%s: forward cone of %d" (Circuit.name c) site)
      && (Analysis.reached_observations ctx cone = reached
         || QCheck2.Test.fail_reportf "%s: reached observations of %d" (Circuit.name c) site)
      && (Analysis.fanin_cone ctx [ site ] = filtered_order ctx (backward [ site ])
         || QCheck2.Test.fail_reportf "%s: fanin cone of %d" (Circuit.name c) site)
      && (Analysis.fanin_cone ctx nets = filtered_order ctx (backward nets)
         || QCheck2.Test.fail_reportf "%s: fanin cone of %d's observations" (Circuit.name c)
              site))
    sites

let all_sites c = List.init (Circuit.node_count c) Fun.id

(* Random DAGs, sequential profile circuits, and each of them after a TMR
   edit carried across by [Analysis.apply_delta] (the edited circuit's own
   context). *)
let prop_cones_match_naive_searches =
  qtest ~count:25 ~name:"cones equal the order filtered by naive searches"
    seed_arbitrary (fun seed ->
      let rng = Rng.create ~seed in
      let check c =
        cones_match_naive (Analysis.get c) (all_sites c)
        &&
        let gates = List.filter (Circuit.is_gate c) (all_sites c) in
        let gate = List.nth gates (Rng.int rng ~bound:(List.length gates)) in
        let after, d = Transform.triplicate_delta c ~nodes:[ gate ] in
        let ctx', _ = Analysis.apply_delta (Analysis.get c) d in
        cones_match_naive ctx' (all_sites after)
      in
      check (random_small_dag ~seed)
      && check
           (Circuit_gen.Random_dag.generate ~seed
              (Circuit_gen.Profiles.make ~name:"seq" ~inputs:6 ~outputs:4 ~ffs:3 ~gates:40)))

let test_cones_on_profiles () =
  List.iter
    (fun (profile, seed) ->
      let c = Circuit_gen.Random_dag.generate ~seed profile in
      let sites = List.filteri (fun i _ -> i mod 7 = 0) (all_sites c) in
      check_bool (Circuit.name c) true (cones_match_naive (Analysis.get c) sites))
    Circuit_gen.Profiles.[ (s1196, 1); (s1196, 3); (s5378, 1) ]

(* The ownership contract of DESIGN.md §11: every array the context hands
   out is shared, and no engine may write into it.  Snapshot all of them,
   run every engine family over the circuit, and compare. *)
let prop_analysis_arrays_immutable =
  qtest ~count:25 ~name:"engines never mutate the shared analysis arrays"
    seed_arbitrary (fun seed ->
      let c = random_small_dag ~seed in
      let ctx = Analysis.get c in
      let g = Analysis.csr ctx in
      let obs_net = (Analysis.observation_nets ctx).(0) in
      let snapshots =
        [
          Array.copy (Analysis.order ctx);
          Array.copy (Analysis.gate_order ctx);
          Array.copy (Analysis.levels ctx);
          Array.copy (Analysis.observation_nets ctx);
          Array.copy (Digraph.offsets g);
          Array.copy (Digraph.targets g);
          Array.copy (Digraph.rev_offsets g);
          Array.copy (Digraph.rev_targets g);
          Array.copy (Analysis.distances_to ctx obs_net);
          Array.copy (Analysis.level_offsets ctx);
          Array.copy (Analysis.max_fanout_level ctx);
          Array.copy (Analysis.position ctx);
        ]
      in
      let cone_before = Analysis.cone ctx 0 in
      let observed_snapshot = Array.copy (Analysis.observed ctx) in
      let engine = Epp.Epp_engine.create c in
      ignore
        (List.map (Epp.Epp_engine.analyze_site engine)
           (List.init (Circuit.node_count c) Fun.id));
      ignore (Epp.Epp_engine.analyze_site_whole_circuit engine 0);
      ignore (Epp.Epp_engine.analyze_site_naive engine 0);
      ignore (Stats.reconvergent_site_count c);
      ignore (Epp.Ser_estimator.analyze_all engine);
      ignore (Sigprob.Sp_topological.compute c);
      ignore (Sigprob.Observability.compute c);
      let timing = Sta.Timing.analyze c in
      ignore
        (Sta.Timing.slacks timing
           ~clock_period:(Sta.Timing.max_delay timing +. 1.0));
      let current =
        [
          Analysis.order ctx;
          Analysis.gate_order ctx;
          Analysis.levels ctx;
          Analysis.observation_nets ctx;
          Digraph.offsets g;
          Digraph.targets g;
          Digraph.rev_offsets g;
          Digraph.rev_targets g;
          Analysis.distances_to ctx obs_net;
          Analysis.level_offsets ctx;
          Analysis.max_fanout_level ctx;
          Analysis.position ctx;
        ]
      in
      List.for_all2 (fun a b -> a = b) snapshots current
      && cone_before = Analysis.cone ctx 0
      && observed_snapshot = Analysis.observed ctx)

(* --- statistics ----------------------------------------------------------- *)

let test_stats_fig1 () =
  let c = fig1 () in
  let s = Stats.compute c in
  check_int "gates" 5 s.Stats.gate_count;
  check_int "depth" 4 s.Stats.depth;
  check_int "max fanin" 3 s.Stats.max_fanin;
  (* A fans out to D and E whose branches reconverge at H. *)
  check_bool "fig1 has a reconvergent site" true (Stats.reconvergent_site_count c >= 1)

let test_stats_no_reconvergence_in_tree () =
  check_int "trees never reconverge" 0 (Stats.reconvergent_site_count (small_tree ()))

(* The pairwise-cone definition the labelled search replaced: a site with
   two or more fanout edges reconverges when a member of one branch's cone
   lies in the cone of an earlier branch (a branch listed twice meets its
   own cone). *)
let reconvergent_by_cones c =
  let ctx = Analysis.get c in
  let position = Analysis.position ctx in
  let rec meets seen = function
    | [] -> false
    | f :: rest ->
      let branch = Analysis.cone ctx f in
      Array.exists (fun u -> List.exists (fun l -> Reach.find l u >= 0) seen) branch
      || meets (Reach.lookup ~position branch :: seen) rest
  in
  List.length
    (List.filter
       (fun v -> List.length (Circuit.fanouts c v) >= 2 && meets [] (Circuit.fanouts c v))
       (all_sites c))

let same_reconvergence c =
  Stats.reconvergent_site_count c = reconvergent_by_cones c
  || QCheck2.Test.fail_reportf "%s: %d reconvergent sites, %d by pairwise cones" (Circuit.name c)
       (Stats.reconvergent_site_count c) (reconvergent_by_cones c)

let prop_reconvergence_matches_cones =
  qtest ~count:50 ~name:"reconvergence equals pairwise cones" seed_arbitrary (fun seed ->
      same_reconvergence (random_small_dag ~seed)
      && same_reconvergence
           (Circuit_gen.Random_dag.generate ~seed
              (Circuit_gen.Profiles.make ~name:"seq" ~inputs:6 ~outputs:4 ~ffs:3 ~gates:40)))

(* [a] feeds one AND twice and nothing else: a site with one branch,
   listed twice. *)
let double_read () =
  let b = Builder.create ~name:"double" () in
  List.iter (Builder.add_input b) [ "a"; "b" ];
  Builder.add_gate b ~output:"g" ~kind:Gate.And [ "a"; "a" ];
  Builder.add_gate b ~output:"h" ~kind:Gate.Or [ "g"; "b" ];
  Builder.add_output b "h";
  Builder.freeze b

let test_reconvergence_fixed_circuits () =
  check_int "a gate reading a net twice" 1 (Stats.reconvergent_site_count (double_read ()));
  List.iter
    (fun c -> check_bool (Circuit.name c) true (same_reconvergence c))
    (double_read () :: fig1 () :: small_tree () :: Circuit_gen.Embedded.s27 ()
    :: List.map (fun (_, make) -> make ()) Circuit_gen.Structured.all)

(* One label, stamp and queue array for the whole count: about 3 words a
   node, where a cone per fanout branch cost tens of thousands. *)
let test_reconvergence_cost () =
  let c = Circuit_gen.Random_dag.generate ~seed:1 Circuit_gen.Profiles.s13207 in
  check_int "s13207:1 reconvergent sites" 5491 (Stats.reconvergent_site_count c);
  let per_node =
    allocated_words (fun () -> Stats.reconvergent_site_count c)
    /. float (Circuit.node_count c)
  in
  if per_node > 4.0 then Alcotest.failf "%.1f words a node (ceiling 4)" per_node

let test_stats_gate_kind_counts () =
  let s = Stats.compute (fig1 ()) in
  let find k = List.assoc_opt k s.Stats.gate_kind_counts in
  Alcotest.(check (option int)) "ANDs" (Some 3) (find Gate.And);
  Alcotest.(check (option int)) "ORs" (Some 1) (find Gate.Or);
  Alcotest.(check (option int)) "NOTs" (Some 1) (find Gate.Not);
  Alcotest.(check (option int)) "no XOR entry" None (find Gate.Xor)

(* --- name table ----------------------------------------------------------- *)

(* Random finds and inserts on few distinct names (so hits, misses and
   growth all happen) agree with a Hashtbl; then a value rewrite and a
   full iteration agree too. *)
let prop_name_table_model =
  qtest ~count:200 ~name:"agrees with a Hashtbl" seed_arbitrary (fun seed ->
      let st = Random.State.make [| seed |] in
      let t = Name_table.create (Random.State.int st 4) in
      let model = Hashtbl.create 16 in
      let ok = ref true in
      for _ = 1 to 400 do
        let name = "n" ^ string_of_int (Random.State.int st 150) in
        let v = Random.State.int st 1000 in
        let expected = Option.value ~default:(-1) (Hashtbl.find_opt model name) in
        if Random.State.bool st then (if Name_table.find t name <> expected then ok := false)
        else begin
          let got = Name_table.find_or_add t name v in
          if expected >= 0 then (if got <> expected then ok := false)
          else begin
            if got <> v then ok := false;
            Hashtbl.replace model name v
          end
        end
      done;
      Name_table.map_values t (fun v -> v + 7);
      let seen = ref 0 in
      Name_table.iter
        (fun name v ->
          incr seen;
          if Hashtbl.find_opt model name <> Some (v - 7) then ok := false)
        t;
      !ok && !seen = Hashtbl.length model)

let test_name_table_edges () =
  let t = Name_table.of_names [| "a"; ""; "b"; "a" |] in
  check_int "repeated name keeps its last index" 3 (Name_table.find t "a");
  check_int "the empty name is a name" 1 (Name_table.find t "");
  check_int "absent" (-1) (Name_table.find t "c");
  let count = ref 0 in
  Name_table.iter (fun _ _ -> incr count) t;
  check_int "three names" 3 !count;
  Alcotest.check_raises "negative value" (Invalid_argument "Name_table: value out of range")
    (fun () -> ignore (Name_table.find_or_add t "c" (-1)));
  check_int "largest value" ((1 lsl 31) - 1) (Name_table.find_or_add t "c" ((1 lsl 31) - 1));
  Alcotest.check_raises "too large" (Invalid_argument "Name_table: value out of range") (fun () ->
      ignore (Name_table.find_or_add t "d" (1 lsl 31)))

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
          Alcotest.test_case "freeze sorts once" `Quick test_builder_freeze_sorts_once;
          Alcotest.test_case "a cyclic netlist publishes no context" `Quick
            test_builder_cycle_publishes_nothing;
          Alcotest.test_case "CLI load errors exit 124" `Quick test_cli_load_errors;
          Alcotest.test_case "flip-flop breaks cycle" `Quick test_builder_ff_breaks_cycle;
          Alcotest.test_case "forward references" `Quick test_builder_forward_reference;
          Alcotest.test_case "error messages" `Quick test_error_to_string_coverage;
        ] );
      ( "names",
        [ prop_name_table_model; Alcotest.test_case "edges" `Quick test_name_table_edges ] );
      ( "circuit",
        [
          Alcotest.test_case "structure of fig1" `Quick test_circuit_structure;
          Alcotest.test_case "find" `Quick test_circuit_find;
          Alcotest.test_case "observations (combinational)" `Quick test_observations_combinational;
          Alcotest.test_case "observations (sequential)" `Quick test_observations_sequential;
          Alcotest.test_case "pseudo inputs" `Quick test_pseudo_inputs;
          Alcotest.test_case "topological order valid" `Quick test_topological_order_valid;
          Alcotest.test_case "graph pinned" `Quick test_graph_pinned;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "memoized facts are shared instances" `Quick
            test_analysis_memo_identity;
          Alcotest.test_case "reuse counters" `Quick test_analysis_counters;
          Alcotest.test_case "level layout facts" `Quick test_analysis_level_facts;
          prop_analysis_arrays_immutable;
          prop_cones_match_naive_searches;
          Alcotest.test_case "cones on profile circuits" `Quick test_cones_on_profiles;
        ] );
      ( "stats",
        [
          Alcotest.test_case "fig1 stats" `Quick test_stats_fig1;
          Alcotest.test_case "tree has no reconvergence" `Quick test_stats_no_reconvergence_in_tree;
          Alcotest.test_case "gate kind counts" `Quick test_stats_gate_kind_counts;
          prop_reconvergence_matches_cones;
          Alcotest.test_case "pairwise cones on fixed circuits" `Quick
            test_reconvergence_fixed_circuits;
          Alcotest.test_case "reconvergence cost" `Quick test_reconvergence_cost;
        ] );
    ]
