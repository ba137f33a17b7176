(* Tier-1 tests for the conformance subsystem: the oracle registry and its
   agreement policies, corpus replay through the full panel, a bounded
   fixed-seed fuzz run, the metamorphic invariants on the embedded
   circuits, and the shrinker (driven through the supervisor's
   fault-injection seam). *)

open Helpers
open Netlist
module Oracle = Conformance.Oracle
module Fuzz = Conformance.Fuzz
module Shrinker = Conformance.Shrinker
module Corpus = Conformance.Corpus

(* --- agreement policies ------------------------------------------------------ *)

let test_policy_matrix () =
  let an = Oracle.reference () in
  let ex = Oracle.exact_enum () in
  let mc = Oracle.monte_carlo ~vectors:1024 () in
  let is = function
    | Some p -> p
    | None -> Alcotest.fail "expected a comparable pair"
  in
  let p = Oracle.policy ~envelope:0.1 ~z:3.0 in
  (match is (p an (Oracle.batch ())) with
  | Oracle.Bitwise -> ()
  | _ -> Alcotest.fail "analytical pair must be bitwise");
  (match is (p ex (Oracle.exact_bdd ())) with
  | Oracle.Within eps -> check_bool "tight" true (eps <= 1e-6)
  | _ -> Alcotest.fail "exact pair must be Within");
  (match is (p ex an) with
  | Oracle.Envelope e -> check_float "envelope" 0.1 e
  | _ -> Alcotest.fail "exact vs analytical must be Envelope");
  (match is (p mc ex) with
  | Oracle.Wilson { slack; vectors; _ } ->
    check_float "no slack vs exact" 0.0 slack;
    check_int "vectors" 1024 vectors
  | _ -> Alcotest.fail "statistical vs exact must be Wilson");
  (match is (p mc an) with
  | Oracle.Wilson { slack; _ } -> check_float "slack = envelope" 0.1 slack
  | _ -> Alcotest.fail "statistical vs analytical must be Wilson");
  check_bool "statistical pair incomparable" true
    (p mc (Oracle.monte_carlo ~vectors:64 ()) = None)

let test_interval_policy_matrix () =
  (* The certified tier's pairings: interval-aware against analytical and
     exact oracles, incomparable against statistical ones. *)
  let cert = Oracle.certified () in
  let an = Oracle.reference () in
  let ex = Oracle.exact_enum () in
  let mc = Oracle.monte_carlo ~vectors:1024 () in
  let p = Oracle.policy ~envelope:0.1 ~z:3.0 in
  (match p cert an with
  | Some (Oracle.Interval { slack }) -> check_float "slack = envelope" 0.1 slack
  | _ -> Alcotest.fail "certified vs analytical must be Interval");
  (match p ex cert with
  | Some (Oracle.Interval { slack }) -> check_bool "tight vs exact" true (slack <= 1e-6)
  | _ -> Alcotest.fail "certified vs exact must be Interval");
  (match p cert cert with
  | Some (Oracle.Interval { slack }) -> check_bool "tight pair" true (slack <= 1e-6)
  | _ -> Alcotest.fail "certified pair must be Interval");
  check_bool "certified vs statistical incomparable" true (p cert mc = None)

let interval_result lo hi =
  { Oracle.p_sensitized = 0.5 *. (lo +. hi); per_observation = []; interval = Some (lo, hi) }

let point_result p = { Oracle.p_sensitized = p; per_observation = []; interval = None }

let test_interval_agreement () =
  (* Analytical inside the certified interval = agreement; outside = a HARD
     finding (not statistical) carrying the gap beyond the slack. *)
  let cert = Oracle.certified () in
  let an = Oracle.reference () in
  let c = cancellation () in
  let policy =
    match Oracle.policy ~envelope:0.0 ~z:4.5 cert an with
    | Some p -> p
    | None -> Alcotest.fail "comparable"
  in
  let compare_with r =
    Oracle.compare_site ~policy ~left:cert ~right:an c 0 (interval_result 0.2 0.6) r
  in
  check_int "inside agrees" 0 (List.length (compare_with (point_result 0.4)));
  check_int "endpoint counts as inside" 0 (List.length (compare_with (point_result 0.6)));
  (match compare_with (point_result 0.9) with
  | [ m ] ->
    check_bool "outside is a hard finding" true (not (Oracle.is_statistical m.Oracle.policy));
    check_float_eps 1e-9 "gap beyond the interval" 0.3 m.Oracle.gap
  | l -> Alcotest.failf "expected exactly one finding, got %d" (List.length l));
  check_bool "NaN trips" true (compare_with (point_result Float.nan) <> [])

let test_interval_degenerate () =
  (* A degenerate [lo = hi] certified verdict against an exact oracle
     behaves as an exact pair: equality agrees, real separation trips. *)
  let cert = Oracle.certified () in
  let ex = Oracle.exact_enum () in
  let c = cancellation () in
  let policy =
    match Oracle.policy ~envelope:0.65 ~z:4.5 cert ex with
    | Some p -> p
    | None -> Alcotest.fail "comparable"
  in
  let compare_with r =
    Oracle.compare_site ~policy ~left:cert ~right:ex c 0 (interval_result 0.25 0.25) r
  in
  check_int "equal degenerate agrees" 0 (List.length (compare_with (point_result 0.25)));
  check_int "1e-12 rounding does not trip" 0
    (List.length (compare_with (point_result (0.25 +. 1e-12))));
  check_bool "real separation trips the exact pair" true
    (compare_with (point_result 0.3) <> [])

let test_wilson_endpoints () =
  (* Degenerate estimates must not trip the interval on rounding alone. *)
  let mc = Oracle.monte_carlo ~vectors:2048 () in
  let ex = Oracle.exact_enum () in
  let c = cancellation () in
  let one = { Oracle.p_sensitized = 1.0; per_observation = []; interval = None } in
  let zero = { Oracle.p_sensitized = 0.0; per_observation = []; interval = None } in
  let policy =
    match Oracle.policy ~envelope:0.65 ~z:4.5 mc ex with
    | Some p -> p
    | None -> Alcotest.fail "comparable"
  in
  check_int "1 vs 1 agrees" 0
    (List.length (Oracle.compare_site ~policy ~left:mc ~right:ex c 0 one one));
  check_int "0 vs 0 agrees" 0
    (List.length (Oracle.compare_site ~policy ~left:mc ~right:ex c 0 zero zero));
  check_bool "a real gap still trips" true
    (Oracle.compare_site ~policy ~left:mc ~right:ex c 0 one zero <> [])

(* --- full-panel agreement on the embedded circuits --------------------------- *)

let run_panel ?(envelope = Oracle.default_envelope) c =
  let ck = Fuzz.check_all_sites ~envelope c in
  (match List.filter Fuzz.is_hard ck.Fuzz.findings with
  | [] -> ()
  | f :: _ -> Alcotest.failf "hard finding: %a" Fuzz.pp_finding f);
  ck

let test_panel_fig1 () =
  let ck = run_panel (fig1 ()) in
  check_bool "compared the full panel" true (List.length ck.Fuzz.pairs >= 4);
  check_bool "no capacity skips on fig1" true (ck.Fuzz.skipped = [])

let test_panel_s27 () = ignore (run_panel (Circuit_gen.Embedded.s27 ()))
let test_panel_c17 () = ignore (run_panel (Circuit_gen.Embedded.c17 ()))

let test_panel_cancellation () =
  (* Reconvergent cancellation: the polarity-tracked analytical engines and
     both exact oracles all agree P_sensitized(x) = 0. *)
  ignore (run_panel ~envelope:1e-9 (cancellation ()))

let test_panel_with_certified () =
  (* Adding the certified tier to the panel: on small circuits every verdict
     is BDD-exact (degenerate interval), so it must agree with the exact
     oracles at 1e-9 and with the analytical ones inside the envelope. *)
  let oracles =
    Conformance.Oracle.default () @ [ Conformance.Oracle.certified () ]
  in
  List.iter
    (fun c ->
      let ck = Fuzz.check_all_sites ~oracles c in
      (match List.filter Fuzz.is_hard ck.Fuzz.findings with
      | [] -> ()
      | f :: _ -> Alcotest.failf "hard finding: %a" Fuzz.pp_finding f);
      check_bool "certified pair compared" true
        (List.exists
           (fun (a, b) -> a = "certified" || b = "certified")
           ck.Fuzz.pairs))
    [ fig1 (); Circuit_gen.Embedded.c17 (); cancellation () ]

(* The "parallel" oracle really runs on several domains, even for a
   circuit of one block, and agrees with "batch" in every bit. *)
let test_parallel_oracle_fans_out () =
  let c = Circuit_gen.Embedded.s27 () in
  let sites = Array.init (Circuit.node_count c) Fun.id in
  let par, spawned =
    with_spawned_workers (fun () -> (Oracle.parallel ~domains:2 ()).Oracle.run c ~sites)
  in
  check_int "one helper domain spawned" 1 spawned;
  let bat = (Oracle.batch ()).Oracle.run c ~sites in
  Array.iteri
    (fun i (r : Oracle.result) ->
      check_bool
        (Printf.sprintf "site %d bitwise equal to batch" i)
        true
        (Int64.bits_of_float r.Oracle.p_sensitized
         = Int64.bits_of_float bat.(i).Oracle.p_sensitized
        && r.Oracle.per_observation = bat.(i).Oracle.per_observation))
    par

(* --- corpus replay ------------------------------------------------------------ *)

(* dune runtest runs from the test directory (where the corpus glob deps are
   staged); dune exec runs from the workspace root. *)
let corpus_dir =
  if Sys.file_exists "corpus" then "corpus" else "test/corpus"

let test_corpus_replay () =
  let entries = Corpus.load corpus_dir in
  check_bool "corpus is populated" true (List.length entries >= 5);
  check_bool "parity entries are no longer skipped" true
    (List.exists (fun e -> e.Corpus.file = "parity3.blif") entries
    && List.exists (fun e -> e.Corpus.file = "parity5.blif") entries);
  List.iter
    (fun e ->
      (* Per-entry envelope override from the sidecar: decomposed parity
         deviates far beyond the default analytical ceiling, and that
         deviation is a pinned value now, not an exclusion. *)
      let envelope = Option.value e.Corpus.envelope ~default:Oracle.default_envelope in
      let ck = run_panel ~envelope e.Corpus.circuit in
      check_bool (e.Corpus.file ^ " compared") true (ck.Fuzz.comparisons > 0))
    entries

let test_corpus_stability () =
  (* save/load round-trip: native-XOR circuits are stored elaborated with a
     fingerprint sidecar; tampered bytes are rejected loudly. *)
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ser_corpus_test_%d" (Unix.getpid ()))
  in
  let cleanup () =
    if Sys.file_exists dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  Fun.protect ~finally:cleanup (fun () ->
      let c = Circuit_gen.Structured.parity_tree ~width:4 () in
      let path = Corpus.save ~envelope:0.85 ~dir ~name:"parity4" c in
      check_bool "meta sidecar written" true
        (Sys.file_exists (Filename.remove_extension path ^ ".meta.json"));
      (match Corpus.load dir with
      | [ e ] ->
        check_string "file" "parity4.blif" e.Corpus.file;
        check_bool "envelope restored" true (e.Corpus.envelope = Some 0.85);
        (* Decomposition stability: the loaded circuit is its own
           print/parse fixpoint, so replay checks what was saved. *)
        check_string "loaded circuit is a fixpoint" e.Corpus.fingerprint
          (Corpus.fingerprint
             (Blif_format.Blif_parser.parse_string (Shrinker.to_blif e.Corpus.circuit)))
      | l -> Alcotest.failf "expected one entry, got %d" (List.length l));
      let oc = open_out path in
      output_string oc (Shrinker.to_blif (fig1 ()));
      close_out oc;
      check_bool "tampered entry rejected" true
        (match Corpus.load dir with
        | _ -> false
        | exception Corpus.Unstable _ -> true))

let test_corpus_roundtrip () =
  (* A mutated circuit (names contain '#') survives the BLIF round-trip
     after sanitizing and keeps its P_sensitized per surviving site. *)
  let c = fig1 () in
  let m = Transform.insert_identity ~double_invert:true c ~net:(Circuit.find c "A") in
  let s = Shrinker.sanitize_names m in
  let reparsed = Blif_format.Blif_parser.parse_string (Shrinker.to_blif m) in
  (* The parser may re-elaborate wide gates, so compare the interface and
     the semantics rather than the node count. *)
  check_int "same inputs" (Circuit.input_count s) (Circuit.input_count reparsed);
  check_int "same outputs" (Circuit.output_count s) (Circuit.output_count reparsed);
  let p c name =
    let sp = Sigprob.Sp_topological.compute c in
    let e = Epp.Epp_engine.create ~sp c in
    (Epp.Epp_engine.analyze_site e (Circuit.find c name)).Epp.Epp_engine.p_sensitized
  in
  check_float "EPP preserved" (p c "H") (p reparsed "H")

(* --- bounded fixed-seed fuzz --------------------------------------------------- *)

let test_fixed_seed_fuzz () =
  (* A small deterministic fuzz run inside the tier-1 budget (~2s): no hard
     findings, decent pair coverage, envelope mean near the paper's claim. *)
  let config =
    { Fuzz.default_config with seed = 20260806; cases = 12; mc_vectors = 1024 }
  in
  let t0 = Unix.gettimeofday () in
  let r = Fuzz.run config in
  let dt = Unix.gettimeofday () -. t0 in
  (match r.Fuzz.hard with
  | [] -> ()
  | f :: _ -> Alcotest.failf "hard finding: %a" Fuzz.pp_finding f);
  check_int "all cases ran" 12 r.Fuzz.cases;
  check_bool "mutants were checked" true (r.Fuzz.mutants > 0);
  check_bool "invariants were checked" true (r.Fuzz.invariant_checks > 100);
  check_bool ">=4 oracle pairs" true (List.length r.Fuzz.pair_counts >= 4);
  check_bool "within the 2s budget" true (dt < 2.0);
  check_int "deterministic comparisons" r.Fuzz.comparisons (Fuzz.run config).Fuzz.comparisons

(* --- metamorphic invariants on the embedded circuits --------------------------- *)

let epp_of c name =
  let sp = Sigprob.Sp_topological.compute c in
  let e = Epp.Epp_engine.create ~sp c in
  (Epp.Epp_engine.analyze_site e (Circuit.find c name)).Epp.Epp_engine.p_sensitized

let check_mutation_invariant c mutant =
  for v = 0 to Circuit.node_count c - 1 do
    let name = Circuit.node_name c v in
    match Circuit.find_opt mutant name with
    | None -> ()
    | Some _ ->
      check_float_eps 1e-12
        (Printf.sprintf "site %s" name)
        (epp_of c name) (epp_of mutant name)
  done

let test_metamorphic_s27 () =
  let c = Circuit_gen.Embedded.s27 () in
  check_mutation_invariant c (Transform.insert_identity c ~net:(Circuit.find c "G10"));
  let dm =
    List.find
      (fun v ->
        match Circuit.kind_of c v with
        | Some (Gate.And | Gate.Or | Gate.Nand | Gate.Nor) -> true
        | _ -> false)
      (List.init (Circuit.node_count c) Fun.id)
  in
  check_mutation_invariant c (Transform.de_morgan c ~gate:dm)

let test_metamorphic_fig1 () =
  let c = fig1 () in
  check_mutation_invariant c
    (Transform.insert_identity ~double_invert:true c ~net:(Circuit.find c "A"));
  check_mutation_invariant c (Transform.split_fanout c ~net:(Circuit.find c "A"))

(* --- shrinker ------------------------------------------------------------------ *)

let test_shrinker_demo () =
  (* The acceptance gate: perturb the batch engine through the supervisor seam,
     find a disagreement, shrink it to <=10 gates, and the repro must still
     disagree and emit as BLIF + OCaml. *)
  let demo = Fuzz.shrink_demo ~seed:2026 () in
  let o = demo.Fuzz.outcome in
  check_bool "still disagrees" true demo.Fuzz.still_disagrees;
  check_bool "repro has <=10 gates" true (o.Shrinker.final_gates <= 10);
  check_bool "it shrank" true (o.Shrinker.final_gates < o.Shrinker.initial_gates);
  check_bool "BLIF emitted" true (String.length demo.Fuzz.blif > 0);
  check_bool "snippet mentions the site" true
    (let site = Circuit.node_name o.Shrinker.circuit o.Shrinker.site in
     let needle = Printf.sprintf "%S" site in
     let hay = demo.Fuzz.snippet in
     let n = String.length needle and h = String.length hay in
     let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
     scan 0)

let test_shrinker_tracks_site () =
  (* Shrinking under a predicate that only needs the site observable keeps
     the site alive and reaches a tiny circuit. *)
  let c = random_small_dag ~seed:5 in
  let site =
    List.find (Circuit.is_gate c) (List.init (Circuit.node_count c) Fun.id)
  in
  let name = Circuit.node_name c site in
  let check cand s =
    Circuit.node_name cand s = name
    && (epp_of cand name > 0.0 || Circuit.output_count cand > 0)
  in
  if check c site then begin
    let o = Shrinker.shrink ~check c ~site in
    check_string "site name preserved" name
      (Circuit.node_name o.Shrinker.circuit o.Shrinker.site);
    check_bool "did not grow" true (o.Shrinker.final_gates <= o.Shrinker.initial_gates)
  end

let test_shrinker_rejects_non_repro () =
  let c = fig1 () in
  Alcotest.check_raises "must reproduce"
    (Invalid_argument "Shrinker.shrink: the disagreement does not reproduce on the input")
    (fun () -> ignore (Shrinker.shrink ~check:(fun _ _ -> false) c ~site:0))

let test_sanitize_names () =
  let c = fig1 () in
  let m = Transform.insert_identity ~double_invert:true c ~net:(Circuit.find c "A") in
  let s = Shrinker.sanitize_names m in
  for v = 0 to Circuit.node_count s - 1 do
    String.iter
      (fun ch ->
        if ch = '#' || ch = ' ' || ch = '\\' || ch = '=' then
          Alcotest.failf "unsafe char %C survives in %s" ch (Circuit.node_name s v))
      (Circuit.node_name s v)
  done

(* --- fingerprint ----------------------------------------------------------------- *)

let test_fingerprint_distinguishes () =
  let a = Fuzz.fingerprint (fig1 ()) in
  check_string "stable" a (Fuzz.fingerprint (fig1 ()));
  check_bool "sensitive to structure" true
    (a <> Fuzz.fingerprint (Transform.insert_identity (fig1 ()) ~net:0))

let () =
  Alcotest.run "conformance"
    [
      ( "policies",
        [
          Alcotest.test_case "soundness matrix" `Quick test_policy_matrix;
          Alcotest.test_case "Wilson endpoints" `Quick test_wilson_endpoints;
          Alcotest.test_case "interval matrix" `Quick test_interval_policy_matrix;
          Alcotest.test_case "interval agreement" `Quick test_interval_agreement;
          Alcotest.test_case "degenerate intervals" `Quick test_interval_degenerate;
        ] );
      ( "panel",
        [
          Alcotest.test_case "fig1" `Quick test_panel_fig1;
          Alcotest.test_case "s27" `Quick test_panel_s27;
          Alcotest.test_case "c17" `Quick test_panel_c17;
          Alcotest.test_case "cancellation" `Quick test_panel_cancellation;
          Alcotest.test_case "parallel oracle fans out" `Quick
            test_parallel_oracle_fans_out;
          Alcotest.test_case "with the certified tier" `Slow test_panel_with_certified;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "replay" `Slow test_corpus_replay;
          Alcotest.test_case "save/load stability" `Quick test_corpus_stability;
          Alcotest.test_case "BLIF round-trip of mutants" `Quick test_corpus_roundtrip;
        ] );
      ("fuzz", [ Alcotest.test_case "fixed-seed run" `Slow test_fixed_seed_fuzz ]);
      ( "metamorphic",
        [
          Alcotest.test_case "s27 invariants" `Quick test_metamorphic_s27;
          Alcotest.test_case "fig1 invariants" `Quick test_metamorphic_fig1;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "perturbed-kernel demo" `Quick test_shrinker_demo;
          Alcotest.test_case "tracks the site by name" `Quick test_shrinker_tracks_site;
          Alcotest.test_case "rejects a non-repro" `Quick test_shrinker_rejects_non_repro;
          Alcotest.test_case "name sanitizing" `Quick test_sanitize_names;
        ] );
      ( "fingerprint",
        [ Alcotest.test_case "stable and sensitive" `Quick test_fingerprint_distinguishes ]
      );
    ]
