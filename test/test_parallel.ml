(* Tests for multicore site analysis: the work-stealing fan-out and the
   sweep driver on top of it (Ser_estimator.analyze_sites ~domains). *)

open Helpers
open Netlist

let results_equal a b =
  List.for_all2
    (fun (x : Epp.Epp_engine.site_result) (y : Epp.Epp_engine.site_result) ->
      x.Epp.Epp_engine.site = y.Epp.Epp_engine.site
      && Float.abs (x.Epp.Epp_engine.p_sensitized -. y.Epp.Epp_engine.p_sensitized) < 1e-15
      && x.Epp.Epp_engine.cone_size = y.Epp.Epp_engine.cone_size)
    a b

(* An s1196-sized circuit is ten blocks: enough to fan out at 4 domains
   (Parallel.map_array keeps fewer than 2 x domains items on the calling
   domain). *)
let test_matches_sequential () =
  let c = Circuit_gen.Random_dag.generate ~seed:13 Circuit_gen.Profiles.s1196 in
  let engine = Epp.Epp_engine.create c in
  let sequential = Epp.Ser_estimator.analyze_all engine in
  let parallel, spawned =
    with_spawned_workers (fun () -> Epp.Ser_estimator.analyze_all ~domains:4 engine)
  in
  check_int "fanned out across 4 domains" 3 spawned;
  check_int "same length" (List.length sequential) (List.length parallel);
  check_bool "identical results in order" true (results_equal sequential parallel)

let test_single_domain_degenerates () =
  let c = fig1 () in
  let engine = Epp.Epp_engine.create c in
  let sites = [ 5; 6; 7 ] in
  check_bool "same as the reference" true
    (results_equal
       (List.map (Epp.Epp_engine.analyze_site engine) sites)
       (Epp.Ser_estimator.analyze_sites ~domains:1 engine sites))

let test_empty_sites () =
  let c = fig1 () in
  let engine = Epp.Epp_engine.create c in
  check_int "empty" 0 (List.length (Epp.Ser_estimator.analyze_sites ~domains:4 engine []))

let test_small_batch_falls_back () =
  let c = fig1 () in
  let engine = Epp.Epp_engine.create c in
  let r = Epp.Ser_estimator.analyze_sites ~domains:8 engine [ 0; 1 ] in
  check_int "both analyzed" 2 (List.length r)

let test_domain_validation () =
  let c = fig1 () in
  let engine = Epp.Epp_engine.create c in
  Alcotest.check_raises "zero domains"
    (Invalid_argument "Parallel.map_array: domains must be >= 1") (fun () ->
      ignore (Epp.Ser_estimator.analyze_sites ~domains:0 engine [ 0 ]))

let test_default_domains_positive () =
  check_bool "at least one" true (Epp.Parallel.default_domains () >= 1)

(* A raising site must not leak unjoined domains or hang the sweep: the
   exception propagates to the caller after every helper is joined, and the
   module stays usable afterwards. *)
let test_raising_site () =
  let c = Circuit_gen.Random_dag.generate ~seed:7 Circuit_gen.Profiles.s344 in
  let engine = Epp.Epp_engine.create c in
  let n = Circuit.node_count c in
  (* ten blocks: enough to fan out across 4 domains *)
  let sites = List.init 620 (fun i -> if i = 400 then n + 1000 else i mod n) in
  let (), spawned =
    with_spawned_workers (fun () ->
        Alcotest.check_raises "bad site raises out of the parallel sweep"
          (Invalid_argument "Epp_batch.Block.run: bad site") (fun () ->
            ignore (Epp.Ser_estimator.analyze_sites ~domains:4 engine sites)))
  in
  check_int "the failing sweep fanned out" 3 spawned;
  (* No deadlock / leaked-domain fallout: an immediate clean sweep works. *)
  check_int "sweep still works after the failure" n
    (List.length (Epp.Ser_estimator.analyze_all ~domains:4 engine))

(* The propagated exception is the lowest failing input index, regardless of
   which domain hit which site first. *)
let test_first_failure_deterministic () =
  let items = Array.init 200 Fun.id in
  let f () i = if i mod 31 = 17 then failwith (string_of_int i) else i in
  for _ = 1 to 10 do
    match
      Epp.Parallel.map_array ~domains:4 ~workspace:(fun () -> ()) ~f items
    with
    | _ -> Alcotest.fail "expected a failure"
    | exception Failure msg -> check_string "lowest failing index" "17" msg
  done

let test_map_array_order () =
  let items = Array.init 100 Fun.id in
  let r =
    Epp.Parallel.map_array ~domains:4 ~workspace:(fun () -> ()) ~f:(fun () i -> i * i) items
  in
  check_bool "results in input order" true
    (Array.for_all Fun.id (Array.mapi (fun i x -> x = i * i) r))

let test_map_array_empty () =
  check_int "empty input" 0
    (Array.length
       (Epp.Parallel.map_array ~domains:4 ~workspace:(fun () -> ()) ~f:(fun () i -> i) [||]))

(* map_array_until: the default deadline fills every slot identically to
   map_array; an already-expired one starts nothing — and in neither case
   is finished work dropped. *)
let test_map_array_until_never () =
  let items = Array.init 50 Fun.id in
  let r =
    Epp.Parallel.map_array_until ~domains:4
      ~workspace:(fun () -> ())
      ~f:(fun () i -> i + 1)
      items
  in
  check_bool "every slot filled" true
    (Array.for_all Option.is_some r);
  check_bool "results in input order" true
    (Array.for_all Fun.id (Array.mapi (fun i x -> x = Some (i + 1)) r))

let test_map_array_until_expired () =
  let calls = Atomic.make 0 in
  let f () i =
    Atomic.incr calls;
    i
  in
  let items = Array.init 50 Fun.id in
  List.iter
    (fun domains ->
      let r =
        Epp.Parallel.map_array_until ~domains
          ~deadline:(Obs.Deadline.of_budget_ms 0.0)
          ~workspace:(fun () -> ())
          ~f items
      in
      check_bool "nothing starts on an expired budget" true
        (Array.for_all Option.is_none r))
    [ 1; 4 ];
  check_int "f never ran" 0 (Atomic.get calls)

(* Six blocks of random sites, so the sweep fans out at 3 domains. *)
let prop_order_preserved =
  qtest ~count:10 ~name:"results come back in input order" seed_arbitrary (fun seed ->
      let c = random_small_dag ~seed in
      let engine = Epp.Epp_engine.create ~sp:(Sigprob.Sp_topological.compute c) c in
      let rng = Rng.create ~seed in
      let sites =
        List.init (6 * Epp.Epp_batch.max_lanes) (fun _ ->
            Rng.int rng ~bound:(Circuit.node_count c))
      in
      let results, spawned =
        with_spawned_workers (fun () ->
            Epp.Ser_estimator.analyze_sites ~domains:3 engine sites)
      in
      spawned = 2
      && List.for_all2
           (fun site (r : Epp.Epp_engine.site_result) -> r.Epp.Epp_engine.site = site)
           sites results)

let () =
  Alcotest.run "parallel"
    [
      ( "domains",
        [
          Alcotest.test_case "matches sequential" `Quick test_matches_sequential;
          Alcotest.test_case "single domain degenerates" `Quick test_single_domain_degenerates;
          Alcotest.test_case "empty sites" `Quick test_empty_sites;
          Alcotest.test_case "small batch falls back" `Quick test_small_batch_falls_back;
          Alcotest.test_case "domain validation" `Quick test_domain_validation;
          Alcotest.test_case "default domains" `Quick test_default_domains_positive;
          prop_order_preserved;
        ] );
      ( "exception safety",
        [
          Alcotest.test_case "raising site" `Quick test_raising_site;
          Alcotest.test_case "first failure deterministic" `Quick
            test_first_failure_deterministic;
          Alcotest.test_case "map_array order" `Quick test_map_array_order;
          Alcotest.test_case "map_array empty" `Quick test_map_array_empty;
          Alcotest.test_case "map_array_until default" `Quick
            test_map_array_until_never;
          Alcotest.test_case "map_array_until expired" `Quick
            test_map_array_until_expired;
        ] );
    ]
