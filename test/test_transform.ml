(* Tests for the netlist rewriting passes: constant propagation, structural
   hashing, sweeping, and TMR hardening.  The master property throughout is
   behavioural equivalence at the observation points, checked by shared-name
   random simulation. *)

open Helpers
open Netlist

(* Same-named inputs get the same random words; observation values must
   agree.  FF states are seeded identically by name as well. *)
let equivalent_behaviour c1 c2 =
  let cs1 = Logic_sim.Sim.compile c1 and cs2 = Logic_sim.Sim.compile c2 in
  let rng = Rng.create ~seed:424242 in
  let draws = Hashtbl.create 32 in
  let assign c v =
    let name = Circuit.node_name c v in
    match Hashtbl.find_opt draws name with
    | Some w -> w
    | None ->
      let w = Rng.word rng in
      Hashtbl.replace draws name w;
      w
  in
  let v1 = Logic_sim.Sim.eval_words cs1 ~assign:(assign c1) in
  let v2 = Logic_sim.Sim.eval_words cs2 ~assign:(assign c2) in
  (* Primary outputs compare positionally (a pass may rename the driving
     net); flip-flop data inputs compare by the FF's stable name. *)
  let po_words c values = List.map (fun v -> values.(v)) (Circuit.outputs c) in
  let ff_words c values =
    List.map
      (fun ff ->
        match Circuit.node c ff with
        | Circuit.Ff { data } -> (Circuit.node_name c ff, values.(data))
        | Circuit.Input | Circuit.Gate _ -> assert false)
      (Circuit.ffs c)
    |> List.sort compare
  in
  po_words c1 v1 = po_words c2 v2 && ff_words c1 v1 = ff_words c2 v2

(* --- constant propagation ------------------------------------------------------ *)

let with_constants () =
  let b = Builder.create ~name:"consts" () in
  List.iter (Builder.add_input b) [ "a"; "b" ];
  Builder.add_gate b ~output:"zero" ~kind:Gate.Const0 [];
  Builder.add_gate b ~output:"one" ~kind:Gate.Const1 [];
  Builder.add_gate b ~output:"dead_and" ~kind:Gate.And [ "a"; "zero" ];
  Builder.add_gate b ~output:"pass_and" ~kind:Gate.And [ "a"; "one" ];
  Builder.add_gate b ~output:"toggle" ~kind:Gate.Xor [ "b"; "one" ];
  Builder.add_gate b ~output:"y" ~kind:Gate.Or [ "dead_and"; "pass_and"; "toggle" ];
  Builder.add_output b "y";
  Builder.freeze b

let test_constant_folding_shrinks () =
  let c = with_constants () in
  let c' = Transform.propagate_constants c in
  (* y = OR(0, a, NOT b) -> gates: the NOT and the OR (2); constants and
     pass-throughs vanish. *)
  check_bool "fewer gates" true (Circuit.gate_count c' < Circuit.gate_count c);
  check_bool "equivalent" true (equivalent_behaviour c c');
  check_bool "no constants left" true
    (List.for_all
       (fun v ->
         match Circuit.kind_of c' v with
         | Some Gate.Const0 | Some Gate.Const1 -> false
         | _ -> true)
       (List.init (Circuit.node_count c') Fun.id))

let test_constant_folding_to_pure_constant () =
  (* y = AND(a, 0): the output itself becomes constant 0. *)
  let b = Builder.create () in
  Builder.add_input b "a";
  Builder.add_gate b ~output:"zero" ~kind:Gate.Const0 [];
  Builder.add_gate b ~output:"y" ~kind:Gate.And [ "a"; "zero" ];
  Builder.add_output b "y";
  let c = Builder.freeze b in
  let c' = Transform.propagate_constants c in
  check_bool "equivalent" true (equivalent_behaviour c c');
  (* The PO must now be driven by a materialized constant. *)
  let out = List.hd (Circuit.outputs c') in
  Alcotest.(check (option bool))
    "output is const0"
    (Some true)
    (Option.map (fun k -> k = Gate.Const0) (Circuit.kind_of c' out))

let test_nand_with_zero_is_one () =
  let b = Builder.create () in
  Builder.add_input b "a";
  Builder.add_gate b ~output:"zero" ~kind:Gate.Const0 [];
  Builder.add_gate b ~output:"y" ~kind:Gate.Nand [ "a"; "zero" ];
  Builder.add_output b "y";
  let c = Builder.freeze b in
  let c' = Transform.propagate_constants c in
  let out = List.hd (Circuit.outputs c') in
  Alcotest.(check (option bool))
    "output is const1"
    (Some true)
    (Option.map (fun k -> k = Gate.Const1) (Circuit.kind_of c' out));
  check_bool "equivalent" true (equivalent_behaviour c c')

let test_xnor_parity_folding () =
  (* XNOR(b, 1) = b; XNOR(b, 0) = NOT b. *)
  let build kind const =
    let b = Builder.create () in
    Builder.add_input b "b";
    Builder.add_gate b ~output:"k" ~kind:const [];
    Builder.add_gate b ~output:"y" ~kind [ "b"; "k" ];
    Builder.add_output b "y";
    Builder.freeze b
  in
  let c1 = build Gate.Xnor Gate.Const1 in
  check_bool "XNOR(b,1) = b" true (equivalent_behaviour c1 (Transform.propagate_constants c1));
  let c2 = build Gate.Xnor Gate.Const0 in
  check_bool "XNOR(b,0) = NOT b" true (equivalent_behaviour c2 (Transform.propagate_constants c2))

let prop_constant_folding_preserves_behaviour =
  qtest ~count:30 ~name:"constant propagation preserves behaviour" seed_arbitrary (fun seed ->
      let c = random_small_dag ~seed in
      equivalent_behaviour c (Transform.propagate_constants c))

(* --- structural hashing ---------------------------------------------------------- *)

let test_merge_duplicates () =
  let b = Builder.create () in
  List.iter (Builder.add_input b) [ "a"; "b" ];
  Builder.add_gate b ~output:"g1" ~kind:Gate.And [ "a"; "b" ];
  Builder.add_gate b ~output:"g2" ~kind:Gate.And [ "b"; "a" ]; (* commutative duplicate *)
  Builder.add_gate b ~output:"g3" ~kind:Gate.Nand [ "a"; "b" ]; (* different kind: kept *)
  Builder.add_gate b ~output:"y" ~kind:Gate.Xor [ "g1"; "g2" ];
  Builder.add_gate b ~output:"z" ~kind:Gate.Or [ "y"; "g3" ];
  Builder.add_output b "z";
  let c = Builder.freeze b in
  let c' = Transform.merge_duplicates c in
  check_bool "equivalent" true (equivalent_behaviour c c');
  (* g2 merges into g1, so y = XOR(g1, g1)... which is still a gate here
     (merge does not fold); the gate count drops by exactly one. *)
  check_int "one gate merged" (Circuit.gate_count c - 1) (Circuit.gate_count c')

let test_merge_cascades () =
  (* Two identical subtrees must collapse completely. *)
  let b = Builder.create () in
  List.iter (Builder.add_input b) [ "a"; "b" ];
  Builder.add_gate b ~output:"l1" ~kind:Gate.And [ "a"; "b" ];
  Builder.add_gate b ~output:"l2" ~kind:Gate.Not [ "l1" ];
  Builder.add_gate b ~output:"r1" ~kind:Gate.And [ "b"; "a" ];
  Builder.add_gate b ~output:"r2" ~kind:Gate.Not [ "r1" ];
  Builder.add_gate b ~output:"y" ~kind:Gate.Or [ "l2"; "r2" ];
  Builder.add_output b "y";
  let c = Builder.freeze b in
  let c' = Transform.merge_duplicates c in
  check_int "both levels merged" 3 (Circuit.gate_count c');
  check_bool "equivalent" true (equivalent_behaviour c c')

let prop_merge_preserves_behaviour =
  qtest ~count:30 ~name:"structural hashing preserves behaviour" seed_arbitrary (fun seed ->
      let c = random_small_dag ~seed in
      equivalent_behaviour c (Transform.merge_duplicates c))

(* --- sweeping ---------------------------------------------------------------------- *)

let test_sweep_removes_dangling () =
  let b = Builder.create () in
  Builder.add_input b "a";
  Builder.add_gate b ~output:"y" ~kind:Gate.Not [ "a" ];
  Builder.add_gate b ~output:"dead1" ~kind:Gate.Buf [ "a" ];
  Builder.add_gate b ~output:"dead2" ~kind:Gate.Not [ "dead1" ];
  Builder.add_output b "y";
  let c = Builder.freeze b in
  let c' = Transform.sweep_unobservable c in
  check_int "only y remains" 1 (Circuit.gate_count c');
  check_bool "equivalent" true (equivalent_behaviour c c')

let test_sweep_keeps_ff_cones () =
  (* Logic feeding only a flip-flop's data input is observable. *)
  let c = shift_register () in
  let c' = Transform.sweep_unobservable c in
  check_int "nothing removed" (Circuit.gate_count c) (Circuit.gate_count c');
  check_bool "equivalent" true (equivalent_behaviour c c')

let prop_optimize_preserves_behaviour =
  qtest ~count:30 ~name:"full optimize pipeline preserves behaviour" seed_arbitrary
    (fun seed ->
      let c = random_small_dag ~seed in
      equivalent_behaviour c (Transform.optimize c))

let test_optimize_s27_is_stable () =
  (* s27 is already clean: optimize must not change its size. *)
  let c = Circuit_gen.Embedded.s27 () in
  let c' = Transform.optimize c in
  check_int "same gates" (Circuit.gate_count c) (Circuit.gate_count c');
  check_bool "equivalent" true (equivalent_behaviour c c')

(* --- TMR ---------------------------------------------------------------------------- *)

let test_tmr_structure () =
  let c = fig1 () in
  let g = Circuit.find c "G" in
  let c' = Transform.triplicate c ~nodes:[ g ] in
  (* +2 replicas +4 voter gates *)
  check_int "six extra gates" (Circuit.gate_count c + 6) (Circuit.gate_count c');
  check_bool "replica exists" true (Circuit.find_opt c' "G#tmr1" <> None);
  check_bool "voter exists" true (Circuit.find_opt c' "G#vote" <> None);
  check_bool "equivalent" true (equivalent_behaviour c c')

let test_tmr_masks_replica_errors_exactly () =
  (* The BDD oracle sees perfect masking: P_sens of every replica is 0. *)
  let c = fig1 () in
  let g = Circuit.find c "G" in
  let c' = Transform.triplicate c ~nodes:[ g ] in
  let cb = Circuit_bdd.build c' in
  List.iter
    (fun name ->
      let r = Circuit_bdd.epp_exact cb (Circuit.find c' name) in
      check_float (name ^ " fully masked") 0.0 r.Circuit_bdd.p_sensitized)
    [ "G"; "G#tmr1"; "G#tmr2" ]

let test_tmr_epp_overestimates_residual () =
  (* The analytical EPP treats the voter's side inputs as independent, so
     it reports a positive residual where the truth is 0 — the documented
     limit of the independence assumption, surfaced by this transform. *)
  let c = fig1 () in
  let g = Circuit.find c "G" in
  let c' = Transform.triplicate c ~nodes:[ g ] in
  let engine = Epp.Epp_engine.create c' in
  let r = Epp.Epp_engine.analyze_site engine (Circuit.find c' "G") in
  check_bool "positive residual" true (r.Epp.Epp_engine.p_sensitized > 0.0)

let test_tmr_reduces_exact_ser () =
  (* Hardening the top FIT contributor must reduce the exact (BDD-based)
     sensitization summed over the original gates. *)
  let c = fig1 () in
  let cb = Circuit_bdd.build c in
  let total_before =
    List.fold_left
      (fun acc v ->
        if Circuit.is_gate c v then
          acc +. (Circuit_bdd.epp_exact cb v).Circuit_bdd.p_sensitized
        else acc)
      0.0
      (List.init (Circuit.node_count c) Fun.id)
  in
  let g = Circuit.find c "D" in
  let c' = Transform.triplicate c ~nodes:[ g ] in
  let cb' = Circuit_bdd.build c' in
  let total_after =
    List.fold_left
      (fun acc name ->
        match Circuit.find_opt c' name with
        | Some v -> acc +. (Circuit_bdd.epp_exact cb' v).Circuit_bdd.p_sensitized
        | None -> acc)
      0.0
      [ "A"; "E"; "G"; "D"; "H" ]
  in
  check_bool "exact sensitization drops" true (total_after < total_before)

let test_tmr_rejects_non_gates () =
  let c = fig1 () in
  Alcotest.check_raises "input selected" (Transform.Not_a_gate "B") (fun () ->
      ignore (Transform.triplicate c ~nodes:[ Circuit.find c "B" ]))

let test_tmr_bad_node () =
  let c = fig1 () in
  Alcotest.check_raises "bad id" (Invalid_argument "Transform.triplicate: bad node") (fun () ->
      ignore (Transform.triplicate c ~nodes:[ 999 ]))

let prop_tmr_preserves_behaviour =
  qtest ~count:20 ~name:"TMR preserves behaviour for any gate choice" seed_arbitrary
    (fun seed ->
      let c = random_small_dag ~seed in
      let gates =
        List.filter (Circuit.is_gate c) (List.init (Circuit.node_count c) Fun.id)
      in
      match gates with
      | [] -> true
      | g :: _ ->
        let pick = List.nth gates (seed mod List.length gates) in
        ignore g;
        equivalent_behaviour c (Transform.triplicate c ~nodes:[ pick ]))

(* --- metamorphic mutations ------------------------------------------------- *)

(* The conformance invariant (DESIGN.md §12): a mutation must preserve the
   analytical P_sensitized of every surviving site, bit-for-bit up to 1e-12.
   Computed over the plain topological signal probabilities, like the
   conformance oracles. *)
let epp_by_name c =
  let sp = Sigprob.Sp_topological.compute c in
  let engine = Epp.Epp_engine.create ~sp c in
  List.map
    (fun (r : Epp.Epp_engine.site_result) ->
      (Circuit.node_name c r.Epp.Epp_engine.site, r.Epp.Epp_engine.p_sensitized))
    (Epp.Ser_estimator.analyze_all engine)

let check_epp_invariant msg parent mutant =
  let after = epp_by_name mutant in
  List.iter
    (fun (name, p) ->
      match List.assoc_opt name after with
      | None -> ()
      | Some p' ->
        if Float.abs (p -. p') > 1e-12 then
          Alcotest.failf "%s: surviving site %s moved %.17g -> %.17g" msg name p p')
    (epp_by_name parent)

let test_insert_buffer_invariant () =
  let c = fig1 () in
  for net = 0 to Circuit.node_count c - 1 do
    let m = Transform.insert_identity c ~net in
    check_int "one gate added" (Circuit.gate_count c + 1) (Circuit.gate_count m);
    check_bool "behaviour" true (equivalent_behaviour c m);
    check_epp_invariant (Printf.sprintf "buffer on net %d" net) c m
  done

let test_insert_inverter_pair_invariant () =
  let c = fig1 () in
  for net = 0 to Circuit.node_count c - 1 do
    let m = Transform.insert_identity ~double_invert:true c ~net in
    check_int "two gates added" (Circuit.gate_count c + 2) (Circuit.gate_count m);
    check_bool "behaviour" true (equivalent_behaviour c m);
    check_epp_invariant (Printf.sprintf "inverter pair on net %d" net) c m
  done

let test_split_fanout_invariant () =
  let c = fig1 () in
  (* A drives E and D: a genuine fanout split. *)
  let m = Transform.split_fanout c ~net:(Circuit.find c "A") in
  check_int "one buffer added" (Circuit.gate_count c + 1) (Circuit.gate_count m);
  check_bool "behaviour" true (equivalent_behaviour c m);
  check_epp_invariant "split A" c m;
  (* A single-consumer net is left untouched. *)
  let u = Transform.split_fanout c ~net:(Circuit.find c "E") in
  check_int "unchanged" (Circuit.gate_count c) (Circuit.gate_count u)

let test_de_morgan_invariant () =
  let c = fig1 () in
  List.iter
    (fun v ->
      match Circuit.kind_of c v with
      | Some (Gate.And | Gate.Or | Gate.Nand | Gate.Nor) ->
        let m = Transform.de_morgan c ~gate:v in
        check_bool "behaviour" true (equivalent_behaviour c m);
        check_epp_invariant
          (Printf.sprintf "de Morgan on %s" (Circuit.node_name c v))
          c m
      | _ -> ())
    (List.init (Circuit.node_count c) Fun.id);
  Alcotest.check_raises "not eligible"
    (Invalid_argument "Transform.de_morgan: not an AND/OR/NAND/NOR gate") (fun () ->
      ignore (Transform.de_morgan c ~gate:(Circuit.find c "E")))

let test_permute_observations_invariant () =
  let c = random_small_dag ~seed:11 in
  let k = Circuit.output_count c in
  check_bool "fixture has several POs" true (k >= 2);
  let perm = Array.init k (fun i -> (i + 1) mod k) in
  let m = Transform.permute_observations c ~perm in
  check_epp_invariant "permute POs" c m;
  (* The observed nets are the same multiset, in permuted order. *)
  let nets c = List.map (Circuit.node_name c) (Circuit.outputs c) in
  check_bool "same nets" true
    (List.sort compare (nets c) = List.sort compare (nets m));
  check_bool "order permuted" true (nets c <> nets m || k = 1);
  Alcotest.check_raises "bad length"
    (Invalid_argument "Transform.permute_observations: bad length") (fun () ->
      ignore (Transform.permute_observations c ~perm:[| 0 |]));
  Alcotest.check_raises "not a permutation"
    (Invalid_argument "Transform.permute_observations: not a permutation") (fun () ->
      ignore (Transform.permute_observations c ~perm:(Array.make k 0)))

let prop_mutations_preserve_epp =
  qtest ~count:25 ~name:"mutation chain preserves EPP of surviving sites" seed_arbitrary
    (fun seed ->
      with_repro ~build:(fun s -> random_small_dag ~seed:s) seed (fun c ->
          let rng = Rng.create ~seed in
          let n = Circuit.node_count c in
          let m1 = Transform.insert_identity c ~net:(Rng.int rng ~bound:n) in
          let m2 =
            Transform.insert_identity ~double_invert:true m1
              ~net:(Rng.int rng ~bound:(Circuit.node_count m1))
          in
          let m3 =
            match
              List.filter
                (fun v ->
                  match Circuit.kind_of m2 v with
                  | Some (Gate.And | Gate.Or | Gate.Nand | Gate.Nor) -> true
                  | _ -> false)
                (List.init (Circuit.node_count m2) Fun.id)
            with
            | [] -> m2
            | eligible ->
              Transform.de_morgan m2
                ~gate:(List.nth eligible (Rng.int rng ~bound:(List.length eligible)))
          in
          check_epp_invariant "chain" c m3;
          equivalent_behaviour c m3))

(* --- reported deltas vs the structural oracle ------------------------------ *)

(* Every [*_delta] variant must report exactly the delta that
   Delta.structural_diff recomputes from the two circuits alone — the
   incremental machinery trusts the reported touched sets, so an
   under-report here would silently splice stale results. *)
let check_delta_oracle msg d =
  let oracle =
    Delta.structural_diff ~before:(Delta.before d) ~after:(Delta.after d)
  in
  let show l = String.concat "," (List.map string_of_int l) in
  let cmp what got want =
    if got <> want then
      Alcotest.failf "%s: %s reported [%s], oracle says [%s]" msg what
        (show got) (show want)
  in
  cmp "touched" (Delta.touched d) (Delta.touched oracle);
  cmp "added" (Delta.added d) (Delta.added oracle);
  cmp "removed" (Delta.removed d) (Delta.removed oracle);
  check_bool (msg ^ ": id maps match") true
    (Delta.new_of_old d = Delta.new_of_old oracle
    && Delta.old_of_new d = Delta.old_of_new oracle)

let test_delta_insert_identity () =
  let c = fig1 () in
  for net = 0 to Circuit.node_count c - 1 do
    let after, d = Transform.insert_identity_delta c ~net in
    check_bool "delta wraps the result" true (after == Delta.after d);
    check_bool "delta starts from the input" true (c == Delta.before d);
    check_delta_oracle (Printf.sprintf "buffer on net %d" net) d;
    let after2, d2 = Transform.insert_identity_delta ~double_invert:true c ~net in
    check_bool "delta wraps the result (ii2)" true (after2 == Delta.after d2);
    check_delta_oracle (Printf.sprintf "inverter pair on net %d" net) d2
  done

let test_delta_split_fanout () =
  let c = fig1 () in
  (* A drives E and D: a real split with a reported consumer set. *)
  let _, d = Transform.split_fanout_delta c ~net:(Circuit.find c "A") in
  check_delta_oracle "split A" d;
  check_bool "split is not an identity" true (not (Delta.is_identity d));
  (* E has a single consumer: the transform is a no-op and says so. *)
  let after, d = Transform.split_fanout_delta c ~net:(Circuit.find c "E") in
  check_bool "single-consumer split returns the circuit" true (after == c);
  check_bool "and an identity delta" true (Delta.is_identity d)

let test_delta_de_morgan () =
  let c = fig1 () in
  List.iter
    (fun v ->
      match Circuit.kind_of c v with
      | Some (Gate.And | Gate.Or | Gate.Nand | Gate.Nor) ->
        let _, d = Transform.de_morgan_delta c ~gate:v in
        check_delta_oracle
          (Printf.sprintf "de Morgan on %s" (Circuit.node_name c v))
          d
      | _ -> ())
    (List.init (Circuit.node_count c) Fun.id)

let test_delta_triplicate () =
  let c = fig1 () in
  List.iter
    (fun v ->
      if Circuit.is_gate c v then begin
        let _, d = Transform.triplicate_delta c ~nodes:[ v ] in
        check_delta_oracle
          (Printf.sprintf "TMR on %s" (Circuit.node_name c v))
          d;
        check_bool "TMR adds nodes" true (Delta.added d <> [])
      end)
    (List.init (Circuit.node_count c) Fun.id)

(* An edit keeps each definition it leaves alone as the base circuit's own
   node value (nodes are immutable, so circuits may share them): a
   surviving node whose kind and fanin ids (or FF data) read the same after
   the edit is [==] its base node, and every other survivor, so every
   touched or rewired one, is a fresh value. *)
let check_shared msg d =
  let before = Delta.before d and after = Delta.after d in
  let old_of_new = Delta.old_of_new d in
  let shared = ref 0 in
  for w = 0 to Circuit.node_count after - 1 do
    let v = old_of_new.(w) in
    if v >= 0 then begin
      let base = Circuit.node before v and node = Circuit.node after w in
      let unchanged = base = node in
      if unchanged then incr shared;
      if unchanged <> (node == base) then
        Alcotest.failf "%s: %s is %s but %s" msg (Circuit.node_name after w)
          (if unchanged then "unchanged" else "changed")
          (if node == base then "shared" else "a copy")
    end
  done;
  List.iter
    (fun w ->
      let v = old_of_new.(w) in
      if v >= 0 && Circuit.node after w == Circuit.node before v then
        Alcotest.failf "%s: touched %s shares its base node" msg (Circuit.node_name after w))
    (Delta.touched d);
  !shared

let test_delta_shares_unchanged_nodes () =
  let c = Circuit_gen.Random_dag.generate ~seed:3 Circuit_gen.Profiles.s1196 in
  let n = Circuit.node_count c in
  let gates = List.filter (Circuit.is_gate c) (List.init n Fun.id) in
  let every k l = List.filteri (fun i _ -> i mod k = 0) l in
  (* A buffer keeps every id: only the tapped net's consumers change. *)
  List.iter
    (fun net ->
      let after, d = Transform.insert_identity_delta c ~net in
      for v = 0 to n - 1 do
        let consumes =
          match Circuit.node c v with
          | Circuit.Input -> false
          | Circuit.Ff { data } -> data = net
          | Circuit.Gate { fanins; _ } -> Array.mem net fanins
        in
        if consumes = (Circuit.node after v == Circuit.node c v) then
          Alcotest.failf "buffer on %s: node %s %s" (Circuit.node_name c net)
            (Circuit.node_name c v)
            (if consumes then "consumes the net but is shared" else "is a copy")
      done;
      ignore (check_shared "buffer" d))
    (every 97 (List.init n Fun.id));
  let tmr_shared = ref 0 and dm_shared = ref 0 in
  List.iter
    (fun g ->
      let _, d = Transform.triplicate_delta c ~nodes:[ g ] in
      tmr_shared := !tmr_shared + check_shared ("TMR on " ^ Circuit.node_name c g) d;
      match Circuit.kind_of c g with
      | Some (Gate.And | Gate.Or | Gate.Nand | Gate.Nor) ->
        let _, d = Transform.de_morgan_delta c ~gate:g in
        dm_shared := !dm_shared + check_shared ("De Morgan on " ^ Circuit.node_name c g) d
      | _ -> ())
    (every 41 gates);
  check_bool "TMR shares nodes" true (!tmr_shared > 0);
  check_bool "De Morgan shares nodes" true (!dm_shared > 0);
  let _, d = Transform.split_fanout_delta c ~net:(List.hd gates) in
  ignore (check_shared "fanout split" d)

let test_delta_permute_observations () =
  let c = random_small_dag ~seed:11 in
  let k = Circuit.output_count c in
  let perm = Array.init k (fun i -> (i + 1) mod k) in
  let _, d = Transform.permute_observations_delta c ~perm in
  check_delta_oracle "permute POs" d;
  check_bool "no touched nodes" true (Delta.touched d = [])

(* One random delta chain, deterministic from [seed]: four steps drawn
   from insert_identity / split_fanout / triplicate / de_morgan, each
   reported delta checked against the structural oracle. *)
let delta_chain seed =
      with_repro ~build:(fun s -> random_small_dag ~seed:s) seed (fun c ->
          let rng = Rng.create ~seed in
          let step circuit i =
            let n = Circuit.node_count circuit in
            let gates =
              List.filter (Circuit.is_gate circuit)
                (List.init n Fun.id)
            in
            let after, d =
              match Rng.int rng ~bound:4 with
              | 0 -> Transform.insert_identity_delta circuit ~net:(Rng.int rng ~bound:n)
              | 1 -> Transform.split_fanout_delta circuit ~net:(Rng.int rng ~bound:n)
              | 2 when gates <> [] ->
                Transform.triplicate_delta circuit
                  ~nodes:[ List.nth gates (Rng.int rng ~bound:(List.length gates)) ]
              | _ -> (
                match
                  List.filter
                    (fun v ->
                      match Circuit.kind_of circuit v with
                      | Some (Gate.And | Gate.Or | Gate.Nand | Gate.Nor) -> true
                      | _ -> false)
                    (List.init n Fun.id)
                with
                | [] -> Transform.insert_identity_delta circuit ~net:(Rng.int rng ~bound:n)
                | eligible ->
                  Transform.de_morgan_delta circuit
                    ~gate:(List.nth eligible (Rng.int rng ~bound:(List.length eligible))))
            in
            check_delta_oracle (Printf.sprintf "chain step %d" i) d;
            after
          in
          let rec chain circuit i =
            if i > 4 then true else chain (step circuit i) (i + 1)
          in
          chain c 1)

let prop_deltas_match_oracle =
  qtest ~count:40 ~name:"random delta chain matches the structural oracle"
    seed_arbitrary delta_chain

(* Seeds whose chain triplicates a gate twice: they used to die on
   [Builder.Error] (the second round redefined [g#tmr1]). *)
let test_delta_chain_pinned_seeds () =
  List.iter
    (fun seed ->
      match delta_chain seed with
      | true -> ()
      | false -> Alcotest.failf "delta chain seed %d failed" seed
      | exception QCheck2.Test.Test_fail (_, msgs) ->
        Alcotest.failf "delta chain seed %d: %s" seed (String.concat "; " msgs))
    [ 492096; 58795; 844369 ]

(* Triplicating the same gate twice keeps every helper distinct: the second
   round's replicas and voter get suffixed names, consumers move to the
   newest voter, and behaviour is preserved. *)
let test_tmr_twice () =
  let c = fig1 () in
  let g = Circuit.find c "G" in
  let c1 = Transform.triplicate c ~nodes:[ g ] in
  let c2 = Transform.triplicate c1 ~nodes:[ Circuit.find c1 "G" ] in
  List.iter
    (fun name ->
      check_bool (name ^ " exists") true (Circuit.find_opt c2 name <> None))
    [ "G#tmr1"; "G#tmr2"; "G#vote"; "G#tmr12"; "G#tmr22"; "G#maj012"; "G#vote2" ];
  check_bool "the first voter's AND reads the second voter" true
    (Array.exists
       (fun u -> Circuit.node_name c2 u = "G#vote2")
       (Circuit.fanins c2 (Circuit.find c2 "G#maj01")));
  check_bool "behaviour preserved" true (equivalent_behaviour c c2);
  (* triplicating a replica and its original in one call *)
  let c3 = Transform.triplicate c1 ~nodes:[ Circuit.find c1 "G"; Circuit.find c1 "G#tmr1" ] in
  check_bool "replica and original together" true (equivalent_behaviour c c3);
  let _, d = Transform.triplicate_delta c1 ~nodes:[ Circuit.find c1 "G" ] in
  check_delta_oracle "re-TMR delta" d

(* TMR and the metamorphic mutations emit their result by id instead of
   rebuilding it through Builder.  The result must be a circuit Builder
   accepts (no duplicate or undefined name, arities, no combinational
   cycle) and must be the very circuit a by-name Builder rebuild yields:
   same ids, names, definitions and interface.  The chain also runs on
   sequential circuits, which the delta-oracle chain above does not, and
   checks each step's delta and behaviour there. *)
let builder_rebuild c =
  let b = Builder.create ~name:(Circuit.name c) () in
  let name = Circuit.node_name c in
  for v = 0 to Circuit.node_count c - 1 do
    match Circuit.node c v with
    | Circuit.Input -> Builder.add_input b (name v)
    | Circuit.Ff { data } -> Builder.add_dff b ~q:(name v) ~d:(name data)
    | Circuit.Gate { kind; fanins } ->
      Builder.add_gate b ~output:(name v) ~kind
        (Array.to_list (Array.map name fanins))
  done;
  List.iter (fun v -> Builder.add_output b (name v)) (Circuit.outputs c);
  Builder.freeze b

let same_circuit c1 c2 =
  let n = Circuit.node_count c1 in
  Circuit.name c1 = Circuit.name c2
  && n = Circuit.node_count c2
  && List.for_all
       (fun v ->
         Circuit.node_name c1 v = Circuit.node_name c2 v
         && Circuit.node c1 v = Circuit.node c2 v
         && Circuit.fanouts c1 v = Circuit.fanouts c2 v)
       (List.init n Fun.id)
  && Circuit.inputs c1 = Circuit.inputs c2
  && Circuit.outputs c1 = Circuit.outputs c2
  && Circuit.ffs c1 = Circuit.ffs c2

let rewrite_matches_builder seed =
  let build s =
    if s land 1 = 0 then random_small_dag ~seed:s
    else Circuit_gen.Random_dag.generate ~seed:s Circuit_gen.Profiles.s27
  in
  with_repro ~build seed (fun c ->
      let rng = Rng.create ~seed in
      let pick l = List.nth l (Rng.int rng ~bound:(List.length l)) in
      let step circuit i =
        let n = Circuit.node_count circuit in
        let nodes = List.init n Fun.id in
        let gates = List.filter (Circuit.is_gate circuit) nodes in
        let de_morgan_able =
          List.filter
            (fun v ->
              match Circuit.kind_of circuit v with
              | Some (Gate.And | Gate.Or | Gate.Nand | Gate.Nor) -> true
              | _ -> false)
            nodes
        in
        let permuted = ref false in
        let after, d =
          match Rng.int rng ~bound:6 with
          | 0 -> Transform.insert_identity_delta circuit ~net:(Rng.int rng ~bound:n)
          | 1 ->
            Transform.insert_identity_delta ~double_invert:true circuit
              ~net:(Rng.int rng ~bound:n)
          | 2 -> Transform.split_fanout_delta circuit ~net:(Rng.int rng ~bound:n)
          | 3 when gates <> [] ->
            (* one or two gates, possibly one fed by the other *)
            Transform.triplicate_delta circuit
              ~nodes:(List.sort_uniq compare [ pick gates; pick gates ])
          | 4 when de_morgan_able <> [] ->
            Transform.de_morgan_delta circuit ~gate:(pick de_morgan_able)
          | _ ->
            let k = Circuit.output_count circuit in
            let shift = Rng.int rng ~bound:(max k 1) in
            permuted := true;
            Transform.permute_observations_delta circuit
              ~perm:(Array.init k (fun j -> (j + shift) mod k))
        in
        if not (same_circuit after (builder_rebuild after)) then
          QCheck2.Test.fail_reportf "step %d differs from its Builder rebuild" i;
        check_delta_oracle (Printf.sprintf "step %d" i) d;
        (* outputs compare by position, which a permutation moves *)
        if (not !permuted) && not (equivalent_behaviour circuit after) then
          QCheck2.Test.fail_reportf "step %d changed the behaviour" i;
        after
      in
      let rec chain circuit i = if i > 5 then true else chain (step circuit i) (i + 1) in
      chain c 1)

(* The id layout the rewrites reproduce, which circuit fingerprints (and so
   serd's cache keys for edited circuits) depend on. *)
let test_rewrite_id_layout () =
  let c = fig1 () in
  let names c = List.init (Circuit.node_count c) (Circuit.node_name c) in
  let check what c expected =
    Alcotest.(check (list string)) what expected (names c)
  in
  check "TMR helpers follow their gate"
    (Transform.triplicate c ~nodes:[ Circuit.find c "G" ])
    [ "I1"; "I2"; "B"; "C"; "F"; "A"; "E"; "G"; "G#tmr1"; "G#tmr2"; "G#maj01";
      "G#maj12"; "G#maj02"; "G#vote"; "D"; "H" ];
  check "identity stages follow every original node"
    (Transform.insert_identity ~double_invert:true c ~net:(Circuit.find c "A"))
    [ "I1"; "I2"; "B"; "C"; "F"; "A"; "E"; "G"; "D"; "H"; "A#ii1"; "A#ii2" ];
  check "De Morgan helpers precede the rewritten gate"
    (Transform.de_morgan c ~gate:(Circuit.find c "D"))
    [ "I1"; "I2"; "B"; "C"; "F"; "A"; "E"; "G"; "D#dm0"; "D#dm1"; "D#dual"; "D"; "H" ]

let prop_rewrites_match_builder =
  qtest ~count:60 ~name:"id-level rewrites equal their Builder rebuild"
    seed_arbitrary rewrite_matches_builder

let () =
  Alcotest.run "transform"
    [
      ( "constants",
        [
          Alcotest.test_case "folding shrinks" `Quick test_constant_folding_shrinks;
          Alcotest.test_case "output becomes constant" `Quick
            test_constant_folding_to_pure_constant;
          Alcotest.test_case "NAND with 0 is 1" `Quick test_nand_with_zero_is_one;
          Alcotest.test_case "XNOR parity folding" `Quick test_xnor_parity_folding;
          prop_constant_folding_preserves_behaviour;
        ] );
      ( "hashing",
        [
          Alcotest.test_case "commutative duplicates merge" `Quick test_merge_duplicates;
          Alcotest.test_case "merging cascades" `Quick test_merge_cascades;
          prop_merge_preserves_behaviour;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "dangling logic removed" `Quick test_sweep_removes_dangling;
          Alcotest.test_case "FF cones kept" `Quick test_sweep_keeps_ff_cones;
          prop_optimize_preserves_behaviour;
          Alcotest.test_case "s27 stable under optimize" `Quick test_optimize_s27_is_stable;
        ] );
      ( "tmr",
        [
          Alcotest.test_case "structure" `Quick test_tmr_structure;
          Alcotest.test_case "exact masking of replicas" `Quick
            test_tmr_masks_replica_errors_exactly;
          Alcotest.test_case "EPP residual (independence limit)" `Quick
            test_tmr_epp_overestimates_residual;
          Alcotest.test_case "exact SER drops" `Quick test_tmr_reduces_exact_ser;
          Alcotest.test_case "rejects non-gates" `Quick test_tmr_rejects_non_gates;
          Alcotest.test_case "bad node id" `Quick test_tmr_bad_node;
          prop_tmr_preserves_behaviour;
          Alcotest.test_case "triplicating a gate twice" `Quick test_tmr_twice;
        ] );
      ( "metamorphic",
        [
          Alcotest.test_case "buffer insertion" `Quick test_insert_buffer_invariant;
          Alcotest.test_case "inverter-pair insertion" `Quick
            test_insert_inverter_pair_invariant;
          Alcotest.test_case "fanout split" `Quick test_split_fanout_invariant;
          Alcotest.test_case "de Morgan rewrite" `Quick test_de_morgan_invariant;
          Alcotest.test_case "observation permutation" `Quick
            test_permute_observations_invariant;
          prop_mutations_preserve_epp;
        ] );
      ( "deltas",
        [
          Alcotest.test_case "buffer insertion" `Quick test_delta_insert_identity;
          Alcotest.test_case "fanout split" `Quick test_delta_split_fanout;
          Alcotest.test_case "de Morgan rewrite" `Quick test_delta_de_morgan;
          Alcotest.test_case "TMR" `Quick test_delta_triplicate;
          Alcotest.test_case "unchanged nodes are shared" `Quick
            test_delta_shares_unchanged_nodes;
          Alcotest.test_case "observation permutation" `Quick
            test_delta_permute_observations;
          prop_deltas_match_oracle;
          Alcotest.test_case "pinned chain seeds" `Quick
            test_delta_chain_pinned_seeds;
          Alcotest.test_case "id layout of the rewrites" `Quick
            test_rewrite_id_layout;
          prop_rewrites_match_builder;
        ] );
    ]
