(* batch_smoke: CI gate for the level-synchronous batched sweep (dune build
   @batch-smoke).

   On the embedded s27 netlist and one dense generated DAG (the
   s1196-profile random DAG, whose cones cover a large fraction of the
   circuit — the regime the batch engine exists for), the sweep must

   - produce results bit-identical to the boxed reference engine on every
     site (p_sensitized and every per-observation entry),
   - populate the live epp.batch.* telemetry (blocks, sites, lane evals,
     lanes-filled / level-width / plane-rows histograms),
   - visit exactly each leaf block's union cone: the gates it evaluated
     plus the ones it skipped (epp.batch.nodes_skipped) must equal the
     gates in the union of each leaf's forward cones, computed here by a
     separate traversal,
   - keep the s1196 fixture's planes well under the n × 62 floats they
     took when every node had a row (the epp.batch.plane_bytes gauge),
   - reuse the shared circuit-analysis context: exactly one topological
     sort per circuit, the one that validated it when it was built, across
     engine creation, the reference sweep, the mask pass and the batch
     propagation (analysis.topo.computed = 1),
   - and round-trip through the bench artifact: BENCH_batch.json is
     written, re-parsed, and the parsed counters re-checked.

   Any drift exits non-zero and fails the alias. *)

let bits = Int64.bits_of_float

let failures = ref 0
let checks = ref []

let check what ok =
  checks := (what, ok) :: !checks;
  if ok then Fmt.pr "ok: %s@." what
  else begin
    incr failures;
    Fmt.pr "FAIL: %s@." what
  end

let same_result (a : Epp.Epp_engine.site_result) (b : Epp.Epp_engine.site_result) =
  a.Epp.Epp_engine.site = b.Epp.Epp_engine.site
  && bits a.Epp.Epp_engine.p_sensitized = bits b.Epp.Epp_engine.p_sensitized
  && a.Epp.Epp_engine.cone_size = b.Epp.Epp_engine.cone_size
  && List.for_all2
       (fun (o1, p1) (o2, p2) -> o1 = o2 && bits p1 = bits p2)
       a.Epp.Epp_engine.per_observation b.Epp.Epp_engine.per_observation

(* Gates in the union of the forward cones of [sites]: a traversal of the
   circuit's fanout lists, independent of the engine's masks. *)
let union_gates circuit sites =
  let seen = Array.make (Netlist.Circuit.node_count circuit) false in
  let total = ref 0 in
  let rec visit v =
    if not seen.(v) then begin
      seen.(v) <- true;
      if Netlist.Circuit.is_gate circuit v then incr total;
      List.iter visit (Netlist.Circuit.fanouts circuit v)
    end
  in
  Array.iter visit sites;
  !total

(* The leaves a block splits into, in order.  A block's split decision
   depends on its own sites only, so a block that runs as one leaf on its
   own is a leaf inside its parent too; otherwise its halves are probed. *)
let rec leaves engine sites =
  let metrics = Obs.Metrics.create () in
  Obs.Hooks.set_metrics metrics;
  let b = Epp.Epp_batch.Block.create engine in
  ignore (Epp.Epp_batch.Block.run b sites);
  Epp.Epp_batch.Block.release b;
  Obs.Hooks.reset ();
  if Obs.Metrics.counter_value (Obs.Metrics.snapshot metrics) "epp.batch.blocks" = 1
  then [ sites ]
  else
    let k = Array.length sites / 2 in
    leaves engine (Array.sub sites 0 k)
    @ leaves engine (Array.sub sites k (Array.length sites - k))

(* One fixture, built and swept under a fresh live sink, so the
   shared-context counter can be asserted per circuit: building it sorts it
   once, and everything the sweep needs — the topological order, the
   forward CSR, the level buckets — must come from that Analysis context. *)
let run_fixture ~label ?max_plane_share build =
  Epp.Epp_batch.drop_spare_planes ();
  let metrics = Obs.Metrics.create () in
  Obs.Hooks.set_metrics metrics;
  let circuit, engine, snapshot =
    Fun.protect ~finally:Obs.Hooks.reset (fun () ->
        let circuit = build () in
        let engine = Epp.Epp_engine.create circuit in
        let n = Netlist.Circuit.node_count circuit in
        let sites = Array.init n Fun.id in
        let reference = Array.map (Epp.Epp_engine.analyze_site engine) sites in
        let batch = Epp.Ser_estimator.analyze_site_array engine sites in
        check
          (Printf.sprintf "%s: batch bit-identical to the reference on all %d sites"
             label n)
          (Array.for_all2 same_result reference batch);
        (circuit, engine, Obs.Metrics.snapshot metrics))
  in
  let v name = Obs.Metrics.counter_value snapshot name in
  let n = Netlist.Circuit.node_count circuit in
  check
    (Printf.sprintf "%s: epp.batch.blocks > 0 (got %d)" label (v "epp.batch.blocks"))
    (v "epp.batch.blocks" > 0);
  check
    (Printf.sprintf "%s: epp.batch.sites = %d (got %d)" label n (v "epp.batch.sites"))
    (v "epp.batch.sites" = n);
  check
    (Printf.sprintf "%s: epp.batch.gate_lane_evals > 0 (got %d)" label
       (v "epp.batch.gate_lane_evals"))
    (v "epp.batch.gate_lane_evals" > 0);
  let hist_sum name =
    match Obs.Metrics.histogram_value snapshot name with
    | Some h -> h.Obs.Metrics.sum
    | None -> 0.0
  in
  (* every leaf walks its union cone and nothing else: each union gate is
     either evaluated (counted in a level width) or skipped *)
  let visited =
    int_of_float (hist_sum "epp.batch.level_width") + v "epp.batch.nodes_skipped"
  in
  let leaves =
    List.concat_map (leaves engine) (Array.to_list (Epp.Epp_batch.blocks (Array.init n Fun.id)))
  in
  check
    (Printf.sprintf "%s: %d blocks split into %d leaves (epp.batch.blocks %d)" label
       (Array.length (Epp.Epp_batch.blocks (Array.init n Fun.id)))
       (List.length leaves) (v "epp.batch.blocks"))
    (List.length leaves = v "epp.batch.blocks");
  let expected = List.fold_left (fun acc l -> acc + union_gates circuit l) 0 leaves in
  check
    (Printf.sprintf "%s: leaves visit exactly their union cones (%d gates, got %d)"
       label expected visited)
    (visited = expected);
  (match max_plane_share with
  | None -> ()
  | Some share ->
    let floats =
      match Obs.Metrics.gauge_value snapshot "epp.batch.plane_bytes" with
      | Some bytes -> int_of_float bytes / (4 * 8)
      | None -> max_int
    in
    check
      (Printf.sprintf "%s: %d floats per plane <= %.0f%% of n x 62 = %d" label
         floats (100.0 *. share) (n * 62))
      (float_of_int floats <= share *. float_of_int (n * 62)));
  check
    (Printf.sprintf "%s: plane_rows histogram populated" label)
    (match Obs.Metrics.histogram_value snapshot "epp.batch.plane_rows" with
    | Some h -> h.Obs.Metrics.count = v "epp.batch.blocks"
    | None -> false);
  check
    (Printf.sprintf "%s: no lane faults (got %d)" label (v "epp.batch.lane_faults"))
    (v "epp.batch.lane_faults" = 0);
  check
    (Printf.sprintf "%s: lanes_filled histogram populated" label)
    (match Obs.Metrics.histogram_value snapshot "epp.batch.lanes_filled" with
    | Some h -> h.Obs.Metrics.count > 0
    | None -> false);
  check
    (Printf.sprintf "%s: level_width histogram populated" label)
    (match Obs.Metrics.histogram_value snapshot "epp.batch.level_width" with
    | Some h -> h.Obs.Metrics.count > 0
    | None -> false);
  check
    (Printf.sprintf "%s: analysis.topo.computed = 1 (got %d)" label
       (v "analysis.topo.computed"))
    (v "analysis.topo.computed" = 1);
  (label, snapshot)

let () =
  let snapshots =
    [
      run_fixture ~label:"s27" Circuit_gen.Embedded.s27;
      (* 34% measured: a 561-node circuit's live frontier is a large share
         of it; the dense 8.7k-node s13207 profile is under 20% *)
      run_fixture ~label:"s1196-profile" ~max_plane_share:0.4 (fun () ->
          Circuit_gen.Random_dag.generate ~seed:1 Circuit_gen.Profiles.s1196);
    ]
  in
  (* Write the artifact, then re-parse it and re-check the counters from the
     parsed JSON — the trajectory file must round-trip, not just serialize. *)
  let path = "BENCH_batch.json" in
  let open Obs.Json in
  to_file ~pretty:true path
    (Obj
       [
         ("benchmark", String "epp_batch_smoke");
         ( "checks",
           List
             (List.rev_map
                (fun (what, ok) -> Obj [ ("name", String what); ("ok", Bool ok) ])
                !checks) );
         ("failures", int !failures);
         ( "fixtures",
           List
             (List.map
                (fun (label, snapshot) ->
                  Obj
                    [
                      ("label", String label);
                      ("metrics", Obs.Metrics.to_json snapshot);
                    ])
                snapshots) );
       ]);
  Fmt.pr "wrote %s@." path;
  (match parse_file path with
  | Error msg -> check (Printf.sprintf "%s re-parses (%s)" path msg) false
  | Ok v ->
    let fixtures =
      Option.value ~default:[] (Option.bind (member "fixtures" v) to_list)
    in
    check
      (Printf.sprintf "%s re-parses with %d fixtures" path (List.length fixtures))
      (List.length fixtures = 2);
    let parsed_blocks f =
      Option.bind (member "metrics" f) (member "counters")
      |> Fun.flip Option.bind (member "epp.batch.blocks")
      |> Fun.flip Option.bind to_number
    in
    check "parsed epp.batch.blocks > 0 in every fixture"
      (fixtures <> []
      && List.for_all
           (fun f -> match parsed_blocks f with Some b -> b > 0.0 | None -> false)
           fixtures));
  if !failures > 0 then begin
    Fmt.pr "batch smoke: %d check(s) FAILED@." !failures;
    exit 1
  end
  else Fmt.pr "batch smoke: all checks passed@."
