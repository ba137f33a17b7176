(* Tests for the per-observation SER attribution. *)

open Helpers
open Netlist

(* The attribution of a clean supervised sweep of [c]. *)
let attribution ?top c =
  let engine = Epp.Epp_engine.create c in
  Epp.Attribution.compute ?top engine (Epp.Supervisor.sweep_all ~domains:1 engine)

let test_single_po_absorbs_everything () =
  let c = fig1 () in
  let a = attribution c in
  match a.Epp.Attribution.columns with
  | [ col ] ->
    check_string "the only PO" "H" col.Epp.Attribution.name;
    check_float_eps 1e-12 "column equals matrix total" a.Epp.Attribution.matrix_total_fit
      col.Epp.Attribution.fit;
    check_bool "positive" true (col.Epp.Attribution.fit > 0.0)
  | _ -> Alcotest.fail "fig1 has one observation"

let test_columns_sorted_and_complete () =
  let c = Circuit_gen.Embedded.s27 () in
  let a = attribution c in
  check_int "1 PO + 3 FFs" 4 (List.length a.Epp.Attribution.columns);
  let fits = List.map (fun col -> col.Epp.Attribution.fit) a.Epp.Attribution.columns in
  check_bool "descending" true (List.sort (fun x y -> compare y x) fits = fits);
  check_float_eps 1e-12 "total is the sum of columns"
    (List.fold_left ( +. ) 0.0 fits)
    a.Epp.Attribution.matrix_total_fit

let test_top_contributors_bounded_and_sorted () =
  let c = Circuit_gen.Embedded.s27 () in
  let a = attribution ~top:2 c in
  List.iter
    (fun col ->
      check_bool "at most 2" true (List.length col.Epp.Attribution.top_contributors <= 2);
      match col.Epp.Attribution.top_contributors with
      | (_, f1) :: (_, f2) :: _ -> check_bool "descending" true (f1 >= f2)
      | _ -> ())
    a.Epp.Attribution.columns

let test_matrix_upper_bounds_estimator () =
  (* Column sums count multi-capture events once per column, so the matrix
     total must upper-bound the (deduplicated) estimator total. *)
  let c = Circuit_gen.Embedded.s27 () in
  let a = attribution c in
  let report = Epp.Ser_estimator.estimate c in
  check_bool "upper bound" true
    (a.Epp.Attribution.matrix_total_fit >= report.Epp.Ser_estimator.total_fit -. 1e-12)

let test_unobserved_point_gets_zero () =
  (* An output fed by a constant-free... simplest: a PO with no gates
     upstream except an input: contributions only from gates; an
     input-driven PO column is 0 because inputs have no R_SEU. *)
  let b = Builder.create () in
  Builder.add_input b "a";
  Builder.add_input b "x";
  Builder.add_gate b ~output:"y" ~kind:Gate.Not [ "x" ];
  Builder.add_output b "a";
  Builder.add_output b "y";
  let c = Builder.freeze b in
  let attribution = attribution c in
  let col name =
    List.find (fun col -> col.Epp.Attribution.name = name) attribution.Epp.Attribution.columns
  in
  check_float "input-only PO" 0.0 (col "a").Epp.Attribution.fit;
  check_bool "gate-driven PO positive" true ((col "y").Epp.Attribution.fit > 0.0)

let test_negative_top_rejected () =
  Alcotest.check_raises "top" (Invalid_argument "Attribution.compute: negative top") (fun () ->
      ignore (attribution ~top:(-1) (fig1 ())))

let prop_columns_nonnegative =
  qtest ~count:10 ~name:"all columns nonnegative on random DAGs" seed_arbitrary (fun seed ->
      let c = random_small_dag ~seed in
      let a = attribution c in
      List.for_all (fun col -> col.Epp.Attribution.fit >= 0.0) a.Epp.Attribution.columns)

(* --- against the per-site reference algorithm ------------------------------- *)

let bits = Int64.bits_of_float

(* Attribution as it was computed before it read a sweep's rows: its own
   engine, one boxed reference analysis per site in ascending order, each
   column found by its observation, and each column's whole contributor
   list sorted to keep [top].  Sites in [skip] are left out.  The result
   takes [top]. *)
let reference_attribution ?(skip = []) c =
  let technology = Seu_model.Technology.default in
  let latching = Seu_model.Latching.default in
  let engine = Epp.Epp_engine.create c in
  let observations = Circuit.observations c in
  let index = Hashtbl.create 16 in
  List.iteri (fun i obs -> Hashtbl.replace index obs i) observations;
  let columns = Array.make (List.length observations) [] in
  let totals = Array.make (List.length observations) 0.0 in
  for site = 0 to Circuit.node_count c - 1 do
    let r_seu = Seu_model.Technology.r_seu_node technology c site in
    if r_seu > 0.0 && not (List.mem site skip) then
      List.iter
        (fun (obs, p_prop) ->
          let i = Hashtbl.find index obs in
          let rate = r_seu *. p_prop *. Seu_model.Latching.p_latched latching obs in
          if rate > 0.0 then begin
            totals.(i) <- totals.(i) +. rate;
            columns.(i) <- (site, rate) :: columns.(i)
          end)
        (Epp.Epp_engine.analyze_site engine site).Epp.Epp_engine.per_observation
  done;
  fun top ->
  let columns =
    List.mapi
      (fun i obs ->
        ( obs,
          Circuit.observation_name c obs,
          Seu_model.Fit.of_rate_per_second totals.(i),
          List.sort (fun (_, a) (_, b) -> compare b a) columns.(i)
          |> List.filteri (fun k _ -> k < top)
          |> List.map (fun (node, rate) ->
                 (node, Seu_model.Fit.of_rate_per_second rate)) ))
      observations
    |> List.sort (fun (_, _, a, _) (_, _, b, _) -> compare b a)
  in
  (columns, Seu_model.Fit.of_rate_per_second (Array.fold_left ( +. ) 0.0 totals))

let same_attribution (a : Epp.Attribution.t) (columns, total) =
  bits a.Epp.Attribution.matrix_total_fit = bits total
  && List.length a.Epp.Attribution.columns = List.length columns
  && List.for_all2
       (fun (col : Epp.Attribution.column) (obs, name, fit, top) ->
         col.Epp.Attribution.observation = obs
         && col.Epp.Attribution.name = name
         && bits col.Epp.Attribution.fit = bits fit
         && List.length col.Epp.Attribution.top_contributors = List.length top
         && List.for_all2
              (fun (n1, f1) (n2, f2) -> n1 = n2 && bits f1 = bits f2)
              col.Epp.Attribution.top_contributors top)
       a.Epp.Attribution.columns columns

(* The columns read from a sweep's rows are the reference algorithm's, bit
   for bit: same sums in the same site order, same contributors. *)
let test_matches_reference () =
  List.iter
    (fun (name, c) ->
      let reference = reference_attribution c in
      List.iter
        (fun top ->
          check_bool
            (Printf.sprintf "%s, top %d: bit-identical to the reference" name top)
            true
            (same_attribution (attribution ~top c) (reference top)))
        [ 0; 5; 40 ])
    [
      ("s27", Circuit_gen.Embedded.s27 ());
      ("s1196:3", Circuit_gen.Random_dag.generate ~seed:3 Circuit_gen.Profiles.s1196);
      ("s5378:1", Circuit_gen.Random_dag.generate ~seed:1 Circuit_gen.Profiles.s5378);
    ]

(* A site quarantined by the sweep contributes to no column: the columns
   are the reference's without it. *)
let test_quarantined_site_absent () =
  let c = Circuit_gen.Random_dag.generate ~seed:3 Circuit_gen.Profiles.s1196 in
  let engine = Epp.Epp_engine.create c in
  let n = Circuit.node_count c in
  (* the gate with the most reached observation points *)
  let victim, _ =
    List.fold_left
      (fun (best, most) site ->
        let reached =
          (Epp.Epp_engine.analyze_site engine site).Epp.Epp_engine.reached_outputs
        in
        if Circuit.is_gate c site && reached > most then (site, reached)
        else (best, most))
      (-1, 0) (List.init n Fun.id)
  in
  let outcome =
    Epp.Supervisor.sweep_all ~domains:1
      ~batch_run:(fun block sites ->
        Array.mapi
          (fun l r -> if sites.(l) = victim then Error (Failure "injected") else r)
          (Epp.Epp_batch.Block.run block sites))
      ~reference:(fun engine site ->
        if site = victim then failwith "injected"
        else Epp.Epp_engine.analyze_site engine site)
      engine
  in
  check_int "the victim is quarantined" 1
    outcome.Epp.Supervisor.stats.Epp.Diag.quarantined;
  let a = Epp.Attribution.compute ~top:n engine outcome in
  check_bool "absent from every column" true
    (List.for_all
       (fun (col : Epp.Attribution.column) ->
         not (List.mem_assoc victim col.Epp.Attribution.top_contributors))
       a.Epp.Attribution.columns);
  check_bool "the reference's columns without it" true
    (same_attribution a (reference_attribution ~skip:[ victim ] c n))

(* --- the CLI ------------------------------------------------------------------ *)

(* --by-output composes from the run's one sweep: it builds no second engine,
   so the signal-probability fixpoint runs once. *)
let test_cli_by_output_one_engine () =
  let sp_evaluations flags =
    let path = Filename.temp_file "serprop_by_output" ".json" in
    let code =
      Sys.command
        (Printf.sprintf
           "%s profile:s1196 %s --metrics %s > /dev/null 2>&1" ser_estimate_exe flags
           (Filename.quote path))
    in
    check_int (Printf.sprintf "ser_estimate %s exits 0" flags) 0 code;
    let metrics =
      match Obs.Json.parse_file path with
      | Ok m -> m
      | Error e -> Alcotest.fail ("metrics snapshot: " ^ e)
    in
    Sys.remove path;
    match
      Option.bind
        (Option.bind (Obs.Json.member "counters" metrics)
           (Obs.Json.member "sp.node_evaluations"))
        Obs.Json.to_number
    with
    | Some v -> v
    | None -> Alcotest.fail "no sp.node_evaluations in the snapshot"
  in
  let plain = sp_evaluations "" in
  check_bool "the plain run evaluates SP" true (plain > 0.0);
  check_bool "--by-output evaluates SP as often as the plain run" true
    (sp_evaluations "--by-output" = plain)

let () =
  Alcotest.run "attribution"
    [
      ( "columns",
        [
          Alcotest.test_case "single PO absorbs everything" `Quick
            test_single_po_absorbs_everything;
          Alcotest.test_case "sorted and complete" `Quick test_columns_sorted_and_complete;
          Alcotest.test_case "top contributors" `Quick test_top_contributors_bounded_and_sorted;
          Alcotest.test_case "matrix upper-bounds estimator" `Quick
            test_matrix_upper_bounds_estimator;
          Alcotest.test_case "unobserved point gets zero" `Quick test_unobserved_point_gets_zero;
          Alcotest.test_case "negative top rejected" `Quick test_negative_top_rejected;
          prop_columns_nonnegative;
        ] );
      ( "rows",
        [
          Alcotest.test_case "bit-identical to the per-site reference" `Quick
            test_matches_reference;
          Alcotest.test_case "quarantined site absent" `Quick
            test_quarantined_site_absent;
        ] );
      ( "cli",
        [
          Alcotest.test_case "--by-output runs one engine" `Quick
            test_cli_by_output_one_engine;
        ] );
    ]
