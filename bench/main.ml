(* Benchmark harness.

   Two parts, matching the paper's evaluation artifacts:

   1. Bechamel microbenchmarks — one Test.make per pipeline stage and per
      ablation: signal probability engines, the analytical per-site EPP
      (the SysT quantity), the random-simulation baseline per site (the
      SimT quantity), the polarity-blind ablation, and the whole-circuit
      (no path construction) ablation.

   2. The Table-2 harness — regenerates the paper's only results table on
      profile-matched synthetic circuits: SysT, SimT, %Dif, SPT, ISP, ESP
      per circuit, printed next to the published values, with the paper's
      two headline claims (average accuracy, speedup orders of magnitude)
      checked at the end.

   Also prints the Fig. 1 regeneration (the paper's only figure with
   numerical content).

   3. The kernel-vs-reference sweep — times the whole-circuit EPP pass
      through the boxed reference engine and through the allocation-free
      workspace kernel, checks 1e-12 agreement, and can record the perf
      trajectory in BENCH_epp_kernel.json.

   See the flag summary above the entry point at the bottom of this file. *)

open Bechamel
open Toolkit

(* --- fixtures ---------------------------------------------------------------- *)

let s27 = Circuit_gen.Embedded.s27 ()
let s953 = Circuit_gen.Random_dag.generate ~seed:1 Circuit_gen.Profiles.s953
let s1196 = Circuit_gen.Random_dag.generate ~seed:1 Circuit_gen.Profiles.s1196
let s344 = Circuit_gen.Random_dag.generate ~seed:4 Circuit_gen.Profiles.s344

let mid_gate_site circuit =
  (* A deterministic mid-depth gate: median node id among gates. *)
  let gates = ref [] in
  for v = Netlist.Circuit.node_count circuit - 1 downto 0 do
    if Netlist.Circuit.is_gate circuit v then gates := v :: !gates
  done;
  List.nth !gates (List.length !gates / 2)

let sp_of circuit = (Sigprob.Sp_sequential.compute circuit).Sigprob.Sp_sequential.result

let sp953 = sp_of s953
let sp1196 = sp_of s1196
let sp27 = sp_of s27

let engine circuit sp = Epp.Epp_engine.create ~sp circuit

let s953_text = Bench_format.Printer.circuit_to_string s953

(* --- microbenchmarks ---------------------------------------------------------- *)

let micro_tests () =
  let epp953 = engine s953 sp953 in
  let epp953_shared = epp953 in
  let epp1196 = engine s1196 sp1196 in
  let epp27 = engine s27 sp27 in
  let naive953 = Epp.Epp_engine.create ~mode:Epp.Epp_engine.Naive ~sp:sp953 s953 in
  let whole953 = Epp.Epp_engine.create ~restrict_to_cone:false ~sp:sp953 s953 in
  let site27 = mid_gate_site s27 in
  let site953 = mid_gate_site s953 in
  let site1196 = mid_gate_site s1196 in
  let input_sp v =
    if Netlist.Circuit.is_ff s953 v then sp953.Sigprob.Sp.values.(v) else 0.5
  in
  let fault953 =
    Fault_sim.Epp_sim.create ~config:{ Fault_sim.Epp_sim.vectors = 10_000; input_sp } s953
  in
  let rng = Rng.create ~seed:9 in
  [
    Test.make ~name:"sp/topological:s953" (Staged.stage (fun () ->
        Sigprob.Sp_topological.compute s953));
    Test.make ~name:"sp/sequential-fixpoint:s953" (Staged.stage (fun () ->
        Sigprob.Sp_sequential.compute s953));
    Test.make ~name:"sp/montecarlo-16k:s953" (Staged.stage (fun () ->
        Sigprob.Sp_montecarlo.compute ~rng:(Rng.copy rng) ~vectors:16_384 s953));
    Test.make ~name:"epp/site:s27" (Staged.stage (fun () ->
        Epp.Epp_engine.analyze_site epp27 site27));
    Test.make ~name:"epp/site:s953" (Staged.stage (fun () ->
        Epp.Epp_engine.analyze_site epp953 site953));
    Test.make ~name:"epp/site:s1196" (Staged.stage (fun () ->
        Epp.Epp_engine.analyze_site epp1196 site1196));
    Test.make ~name:"ablation/naive-rules:s953" (Staged.stage (fun () ->
        Epp.Epp_engine.analyze_site naive953 site953));
    Test.make ~name:"ablation/no-cone-restriction:s953" (Staged.stage (fun () ->
        Epp.Epp_engine.analyze_site whole953 site953));
    Test.make ~name:"baseline/fault-sim-10k:s953" (Staged.stage (fun () ->
        Fault_sim.Epp_sim.estimate_site fault953 ~rng:(Rng.copy rng) site953));
    Test.make ~name:"io/parse-bench:s953" (Staged.stage (fun () ->
        Bench_format.Parser.parse_string ~name:"s953" s953_text));
    Test.make ~name:"alternative/observability-all-sites:s953" (Staged.stage (fun () ->
        Sigprob.Observability.compute ~sp:sp953 s953));
    Test.make ~name:"oracle/bdd-build:s344" (Staged.stage (fun () ->
        Circuit_bdd.build ~node_limit:8_000_000 s344));
    Test.make ~name:"transform/optimize:s953" (Staged.stage (fun () ->
        Netlist.Transform.optimize s953));
    Test.make ~name:"epp/all-sites-sequential:s953" (Staged.stage (fun () ->
        Epp.Epp_engine.analyze_all epp953_shared));
    Test.make ~name:"epp/all-sites-collapsed:s953" (Staged.stage (fun () ->
        Epp.Collapse.analyze_all epp953_shared));
    (* The allocation-free workspace kernel against the boxed reference
       (epp/site:* above is the reference path). *)
    (let ws = Epp.Epp_engine.Workspace.create epp953 in
     Test.make ~name:"epp/site-kernel:s953" (Staged.stage (fun () ->
         Epp.Epp_engine.Workspace.analyze_site ws site953)));
    (let ws = Epp.Epp_engine.Workspace.create epp1196 in
     Test.make ~name:"epp/site-kernel:s1196" (Staged.stage (fun () ->
         Epp.Epp_engine.Workspace.analyze_site ws site1196)));
  ]

let run_micro () =
  let tests = Test.make_grouped ~name:"serprop" ~fmt:"%s %s" (micro_tests ()) in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~stabilize:true ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some [ x ] -> x
        | Some _ | None -> Float.nan
      in
      rows := (name, ns) :: !rows)
    results;
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) !rows in
  print_endline "== Microbenchmarks (per call, monotonic clock) ==";
  Report.Table.print
    ~align:Report.Table.[ Left; Right ]
    ~header:[ "benchmark"; "time" ]
    (List.map
       (fun (name, ns) ->
         let human =
           if Float.is_nan ns then "n/a"
           else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
           else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
           else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
           else Printf.sprintf "%.0f ns" ns
         in
         [ name; human ])
       rows);
  print_newline ()

(* --- Fig. 1 regeneration ------------------------------------------------------- *)

let run_fig1 () =
  print_endline "== Fig. 1 regeneration (the paper's worked example) ==";
  let a = Epp.Prob4.error_site in
  let e = Epp.Rules.propagate Netlist.Gate.Not [| a |] in
  let g = Epp.Rules.propagate Netlist.Gate.And [| e; Epp.Prob4.of_sp 0.7 |] in
  let d = Epp.Rules.propagate Netlist.Gate.And [| a; Epp.Prob4.of_sp 0.2 |] in
  let h = Epp.Rules.propagate Netlist.Gate.Or [| Epp.Prob4.of_sp 0.3; d; g |] in
  Fmt.pr "P(H) computed:  %a@." Epp.Prob4.pp h;
  Fmt.pr "P(H) published: 0.0420(a) + 0.3920(a\xCC\x84) + 0.3980(1) + 0.1680(0)@.";
  Fmt.pr "P_sensitized(A) = %.4f (= 0.042 + 0.392)@.@." (Epp.Prob4.p_error h)

(* --- Table 2 harness ------------------------------------------------------------ *)

(* Per-profile experiment budget: large circuits get smaller samples, like
   the paper ("a limited number of gates of the circuits are simulated"). *)
let config_for (p : Circuit_gen.Profiles.t) ~quick =
  let scale = if quick then 4 else 1 in
  let g = p.Circuit_gen.Profiles.gates in
  if g <= 1500 then
    { Report.Experiment.seed = 42; sim_vectors = 10_000 / scale;
      sp_mc_vectors = 1_048_576 / scale; max_sim_sites = 50 / scale;
      max_epp_sites = None;
      scalar_sim_sites = 4 }
  else if g <= 10_000 then
    { Report.Experiment.seed = 42; sim_vectors = 5_000 / scale;
      sp_mc_vectors = 262_144 / scale; max_sim_sites = 24 / scale;
      max_epp_sites = Some (2_000 / scale);
      scalar_sim_sites = 3 }
  else
    { Report.Experiment.seed = 42; sim_vectors = 3_000 / scale;
      sp_mc_vectors = 65_536 / scale; max_sim_sites = 12 / scale;
      max_epp_sites = Some (600 / scale);
      scalar_sim_sites = 2 }

let run_table2 ~quick () =
  print_endline "== Table 2 regeneration (profile-matched synthetic circuits) ==";
  let profiles =
    if quick then
      [ Circuit_gen.Profiles.s953; Circuit_gen.Profiles.s1196; Circuit_gen.Profiles.s1494 ]
    else Circuit_gen.Profiles.table2
  in
  let rows =
    List.map
      (fun p ->
        let config = config_for p ~quick in
        let row, elapsed =
          Report.Timer.time (fun () -> Report.Experiment.run_profile ~config ~seed:1 p)
        in
        Fmt.epr "  [%s done in %.1f s]@." p.Circuit_gen.Profiles.name elapsed;
        row)
      profiles
  in
  print_endline (Report.Experiment.render_rows rows);
  print_newline ();
  print_endline "== Paper vs measured ==";
  print_endline (Report.Experiment.render_comparison rows);
  print_newline ();
  (* The paper's two headline claims. *)
  let n = float_of_int (List.length rows) in
  let avg f = List.fold_left (fun acc r -> acc +. f r) 0.0 rows /. n in
  let avg_dif = avg (fun r -> r.Report.Experiment.dif_percent) in
  let log10 x = log x /. log 10.0 in
  let avg_esp_mag = avg (fun r -> log10 r.Report.Experiment.esp) in
  let avg_isp_mag = avg (fun r -> log10 r.Report.Experiment.isp) in
  Fmt.pr "claim 1 (accuracy): paper avg %%Dif 5.4%% -> measured avg %%Dif %.1f%% (accuracy %.1f%%)@."
    avg_dif (100.0 -. avg_dif);
  Fmt.pr
    "claim 2 (speedup): paper ESP 4-5 orders, ISP 2-3 orders -> measured ESP 10^%.1f, ISP 10^%.1f@."
    avg_esp_mag avg_isp_mag;
  Fmt.pr
    "(Speedup magnitudes scale with the baseline's vector budget and our bit-parallel@.";
  Fmt.pr " 64x-faster simulator; see EXPERIMENTS.md for the shape argument.)@."

(* --- kernel vs reference: the perf-trajectory benchmark -----------------------

   Times the whole-circuit EPP sweep (analyze_all) twice per fixture: once
   through the boxed reference engine (O(circuit) allocation and topo-order
   filtering per site) and once through the allocation-free workspace kernel
   (CSR cone DFS, epoch-stamped marks, SoA vectors, cone-local ordering).
   Verifies the results agree within 1e-12 site by site — the kernel's
   bit-compatibility contract — and optionally records sites/sec and the
   speedups in BENCH_epp_kernel.json so later PRs can track the trajectory.

   Two fixtures, two regimes:
   - a >= 5k-gate parity tree (cone-local regime: every cone is a root path,
     so the reference's O(circuit)-per-site overhead dominates and the
     kernel's O(cone log cone) bound shows as an order-of-magnitude win;
     real netlists sit between the regimes, nearer this one);
   - the s9234-profile random DAG (dense-reachability regime: the generator's
     long-range edges percolate, cones cover ~half the circuit, both engines
     are bound by the same rule arithmetic, and the kernel's win is the
     constant factor of allocation-freedom).  [min_speedup] is asserted only
     where the margin is structural, not timing noise. *)

type kernel_fixture = {
  kf_label : string;
  kf_build : unit -> Netlist.Circuit.t;
  kf_min_speedup : float option;  (* kernel vs reference *)
  kf_min_batch_speedup : float option;  (* batch vs reference, single domain *)
}

(* The speedup floors gate where the margin is structural: the parity tree's
   kernel win (cone-locality) and the dense fixtures' batch win (one level
   pass per 62 sites vs one graph walk per site) are orders of magnitude, so
   a conservative floor catches a real cliff without timing-noise flakes. *)
let kernel_fixtures ~smoke =
  if smoke then
    [
      { kf_label = "parity-1024 (tree, cone-local)";
        kf_build = (fun () -> Circuit_gen.Structured.parity_tree ~width:1024 ());
        kf_min_speedup = None;
        kf_min_batch_speedup = None };
      { kf_label = "s1196-profile (dense random DAG)";
        kf_build = (fun () -> Circuit_gen.Random_dag.generate ~seed:1 Circuit_gen.Profiles.s1196);
        kf_min_speedup = None;
        kf_min_batch_speedup = Some 3.0 };
    ]
  else
    [
      { kf_label = "parity-16384 (tree, cone-local)";
        kf_build = (fun () -> Circuit_gen.Structured.parity_tree ~width:16384 ());
        kf_min_speedup = Some 5.0;
        kf_min_batch_speedup = None };
      { kf_label = "s9234-profile (dense random DAG)";
        kf_build = (fun () -> Circuit_gen.Random_dag.generate ~seed:1 Circuit_gen.Profiles.s9234);
        kf_min_speedup = None;
        kf_min_batch_speedup = Some 10.0 };
      { kf_label = "s13207-profile (dense random DAG)";
        kf_build = (fun () -> Circuit_gen.Random_dag.generate ~seed:1 Circuit_gen.Profiles.s13207);
        kf_min_speedup = None;
        kf_min_batch_speedup = Some 10.0 };
    ]

let batch_scaling_domains = [ 1; 2; 4 ]

type kernel_row = {
  kr_label : string;
  kr_nodes : int;
  kr_gates : int;
  kr_reference_s : float;
  kr_kernel_s : float;
  kr_speedup : float;
  kr_max_diff : float;
  kr_batch_s : float;  (* single-domain level-synchronous block sweep *)
  kr_batch_bitwise : bool;  (* batch vs kernel: every float bit-identical *)
  kr_batch_max_diff : float;
  kr_batch_scaling : (int * float) list;  (* domains -> seconds *)
  kr_metrics : Obs.Json.t;  (* live-sink snapshot of one extra kernel sweep *)
}

let run_kernel_fixture f =
  let c = f.kf_build () in
  let engine = Epp.Epp_engine.create ~sp:(sp_of c) c in
  let n = Netlist.Circuit.node_count c in
  let sites = List.init n Fun.id in
  let sites_arr = Array.init n Fun.id in
  let reference, kr_reference_s =
    Report.Timer.time (fun () -> List.map (Epp.Epp_engine.analyze_site engine) sites)
  in
  let kernel, kr_kernel_s =
    Report.Timer.time (fun () -> Epp.Epp_engine.analyze_all engine)
  in
  let kr_max_diff =
    List.fold_left2
      (fun acc (a : Epp.Epp_engine.site_result) (b : Epp.Epp_engine.site_result) ->
        Float.max acc
          (Float.abs (a.Epp.Epp_engine.p_sensitized -. b.Epp.Epp_engine.p_sensitized)))
      0.0 reference kernel
  in
  (* Best of three: the batch sweep is cheap enough to repeat, and the
     shared container's run-to-run noise (~30% observed) would otherwise
     dominate the speedup ratio the floors gate on.  The minimum is the
     standard low-noise estimator for a deterministic computation. *)
  let batch, kr_batch_s =
    let best = ref None in
    for _ = 1 to 3 do
      let r, t =
        Report.Timer.time (fun () ->
            Epp.Epp_batch.analyze_site_array engine sites_arr)
      in
      match !best with
      | Some (_, t0) when t0 <= t -> ()
      | _ -> best := Some (r, t)
    done;
    Option.get !best
  in
  (* The batch contract is stronger than the kernel's 1e-12: bit-identical,
     including the per-observation entries. *)
  let bits = Int64.bits_of_float in
  let kr_batch_bitwise = ref true in
  let kr_batch_max_diff = ref 0.0 in
  List.iteri
    (fun i (k : Epp.Epp_engine.site_result) ->
      let b = batch.(i) in
      kr_batch_max_diff :=
        Float.max !kr_batch_max_diff
          (Float.abs (k.Epp.Epp_engine.p_sensitized -. b.Epp.Epp_engine.p_sensitized));
      if
        bits k.Epp.Epp_engine.p_sensitized <> bits b.Epp.Epp_engine.p_sensitized
        || not
             (List.for_all2
                (fun (o1, p1) (o2, p2) -> o1 = o2 && bits p1 = bits p2)
                k.Epp.Epp_engine.per_observation b.Epp.Epp_engine.per_observation)
      then kr_batch_bitwise := false)
    kernel;
  let kr_batch_scaling =
    List.map
      (fun domains ->
        let _, t =
          Report.Timer.time (fun () ->
              Epp.Parallel.analyze_sites_batched ~domains engine sites_arr)
        in
        (domains, t))
      batch_scaling_domains
  in
  (* One more sweep with live sinks so the trajectory records the phase
     breakdown (cone sizes, per-phase seconds).  Runs after the timed
     passes, so the recorded timings stay no-op-sink numbers. *)
  let live = Obs.Metrics.create () in
  Obs.Hooks.set_metrics live;
  ignore (Epp.Epp_engine.analyze_all engine);
  Obs.Hooks.reset ();
  {
    kr_label = f.kf_label;
    kr_nodes = n;
    kr_gates = Netlist.Circuit.gate_count c;
    kr_reference_s;
    kr_kernel_s;
    kr_speedup = kr_reference_s /. kr_kernel_s;
    kr_max_diff;
    kr_batch_s;
    kr_batch_bitwise = !kr_batch_bitwise;
    kr_batch_max_diff = !kr_batch_max_diff;
    kr_batch_scaling;
    kr_metrics = Obs.Metrics.to_json (Obs.Metrics.snapshot live);
  }

(* Instrumentation-overhead guard.  The hooks are compiled in
   unconditionally, so the question a perf trajectory must answer is: what
   does the default no-op sink cost on the hot path?  There is no
   hook-free build to diff against at runtime, so each round times the
   kernel sweep three times back to back on one deterministic fixture —
   live sinks, a discarded flush pass, then two no-op passes — and the
   guard statistic compares 20%-trimmed means of the interleaved no-op
   buckets:

   - the two no-op passes of a round run back to back under the same
     machine load; single-sweep timings carry a heavy right tail (GC
     slices, a shared box), which symmetric trimming removes, so the
     trimmed means differ only by a systematic offset.  Since the no-op
     path is a handful of immediate pattern matches per site, any real
     no-op overhead is below it.  @bench-smoke asserts the delta < 2%.
   - the no-op passes run with the full observability surface in its
     default shipping state: the flight recorder armed (it is always on)
     and a log sink installed but silent (Error-only threshold, discarding
     writer) — the guard covers the logging layer, not just metrics.
   - the live-pass delta is the real cost of turning metrics + tracing
     on, reported (not asserted — it is allowed to cost something). *)

type overhead = {
  oh_fixture : string;
  oh_reps : int;
  oh_noop_s : float;  (* trimmed mean, first no-op bucket *)
  oh_noop_check_s : float;  (* trimmed mean, second no-op bucket *)
  oh_live_s : float;  (* trimmed mean, live-sink bucket *)
  oh_noop_delta_percent : float;
  oh_live_overhead_percent : float;
}

(* Mean of the central 60% — drops the [n/5] smallest and largest samples. *)
let trimmed_mean a =
  let s = Array.copy a in
  Array.sort compare s;
  let n = Array.length s in
  let k = n / 5 in
  let sum = ref 0.0 in
  for i = k to n - 1 - k do
    sum := !sum +. s.(i)
  done;
  !sum /. float_of_int (n - (2 * k))

let measure_overhead ?(reps = 15) () =
  let c = Circuit_gen.Structured.parity_tree ~width:16384 () in
  let engine = Epp.Epp_engine.create ~sp:(sp_of c) c in
  let sweep () = ignore (Epp.Epp_engine.analyze_all engine) in
  let live_metrics = Obs.Metrics.create () in
  let live_tracer = Obs.Trace.create () in
  Obs.Hooks.reset ();
  sweep ();
  (* warm up caches / page in the engine *)
  let t_a = Array.make reps 0.0 in
  let t_b = Array.make reps 0.0 in
  let t_live = Array.make reps 0.0 in
  (* Every timed pass starts from a freshly collected heap: the sweep
     allocates its result list, so major-GC slices otherwise land
     quasi-periodically and can alias onto the bucket alternation,
     charging one bucket a GC slice the other never pays.  From a
     collected heap the sweep's own GC work is the same every time — and
     a no-op pass directly after a live one would otherwise measure the
     live pass's leftover GC debt, not the hook cost. *)
  let timed () =
    Gc.full_major ();
    snd (Report.Timer.time sweep)
  in
  (* "Silent" = the shipping default plus an installed-but-filtering log
     sink: every Debug/Info event still pays the level check (and the
     always-on flight recorder), but nothing is formatted or written. *)
  let silent_logger = Obs.Log.create ~min_level:Obs.Log.Error (fun _ -> ()) in
  for i = 0 to reps - 1 do
    Obs.Hooks.set_metrics live_metrics;
    Obs.Hooks.set_tracer live_tracer;
    t_live.(i) <- timed ();
    Obs.Hooks.reset ();
    Obs.Hooks.set_logger silent_logger;
    t_a.(i) <- timed ();
    t_b.(i) <- timed ()
  done;
  Obs.Hooks.reset ();
  let noop = trimmed_mean t_a in
  let noop_check = trimmed_mean t_b in
  let live = trimmed_mean t_live in
  {
    oh_fixture = "parity-16384 kernel sweep";
    oh_reps = reps;
    oh_noop_s = noop;
    oh_noop_check_s = noop_check;
    oh_live_s = live;
    oh_noop_delta_percent = Float.abs (noop_check -. noop) /. noop *. 100.0;
    oh_live_overhead_percent = (live -. noop) /. noop *. 100.0;
  }

(* Shared-analysis reuse check (smoke only).  The module-level fixtures
   above were analyzed under the null sink, so this builds a *fresh* s27 —
   its memo cells are empty — and runs the full pipeline (engine creation
   with the sequential-fixpoint SP default, the kernel sweep, COP
   observability) under a live registry.  The counters then prove the
   sharing contract: the topological sort ran exactly once for the whole
   pipeline, every later consumer was a cache hit, and no engine fell back
   to a direct [Circuit.topological_order] recomputation. *)
let run_analysis_reuse_check () =
  print_endline "== Shared-analysis reuse on a fresh embedded s27 (live counters) ==";
  let live = Obs.Metrics.create () in
  Obs.Hooks.set_metrics live;
  Fun.protect ~finally:Obs.Hooks.reset (fun () ->
      let c = Circuit_gen.Embedded.s27 () in
      let engine = Epp.Epp_engine.create c in
      ignore (Epp.Epp_engine.analyze_all engine);
      ignore (Sigprob.Observability.compute c));
  let s = Obs.Metrics.snapshot live in
  let v name = Obs.Metrics.counter_value s name in
  let failed = ref false in
  let expect what ok =
    if ok then Fmt.pr "ok: %s@." what
    else begin
      Fmt.epr "FAIL: %s@." what;
      failed := true
    end
  in
  expect
    (Printf.sprintf "analysis.topo.computed = 1 (got %d)" (v "analysis.topo.computed"))
    (v "analysis.topo.computed" = 1);
  expect
    (Printf.sprintf "analysis.context.computed = 1 (got %d)" (v "analysis.context.computed"))
    (v "analysis.context.computed" = 1);
  expect
    (Printf.sprintf "analysis.cache.hit > 0 (got %d)" (v "analysis.cache.hit"))
    (v "analysis.cache.hit" > 0);
  expect
    (Printf.sprintf "analysis.topo.direct_calls = 0 (got %d)"
       (v "analysis.topo.direct_calls"))
    (v "analysis.topo.direct_calls" = 0);
  if !failed then exit 1;
  print_newline ()

(* In-process load run against the serd request engine (--service): the
   protocol, cache, and deadline paths without subprocess plumbing — the
   scripted end-to-end session lives in @service-smoke.  Measures the
   cache-hit request path (one cold miss, then repeats) and prints the
   latency summary the smoke writes to BENCH_service.json. *)
let run_service_load () =
  print_endline "== serd request engine: in-process load (cache-hit path) ==";
  let live = Obs.Metrics.create () in
  Obs.Hooks.set_metrics live;
  Fun.protect ~finally:Obs.Hooks.reset @@ fun () ->
  let server = Service.Server.create Service.Server.default_config in
  let request =
    Obs.Json.to_string
      (Obs.Json.Obj
         [
           ("op", Obs.Json.String "analyze");
           ( "circuit",
             Obs.Json.Obj
               [
                 ("format", Obs.Json.String "embedded");
                 ("source", Obs.Json.String "s27");
               ] );
         ])
  in
  let iterations = 200 in
  let load = Service.Load.create () in
  let t0 = Obs.Clock.monotonic_seconds () in
  for _ = 1 to iterations do
    let q0 = Obs.Clock.monotonic_seconds () in
    (match Service.Server.handle_line server request with
    | `Reply _ -> ()
    | `Shutdown _ -> assert false);
    Service.Load.record load (Obs.Clock.monotonic_seconds () -. q0)
  done;
  let wall = Obs.Clock.monotonic_seconds () -. t0 in
  let s = Obs.Metrics.snapshot live in
  let v name = Obs.Metrics.counter_value s name in
  let pct p = Service.Load.percentile load p *. 1000.0 in
  Report.Table.print
    ~align:Report.Table.[ Left; Right ]
    ~header:[ "measure"; "value" ]
    [
      [ "requests"; string_of_int (Service.Load.count load) ];
      [ "qps"; Printf.sprintf "%.0f" (float_of_int iterations /. wall) ];
      [ "p50 latency"; Printf.sprintf "%.3f ms" (pct 50.0) ];
      [ "p99 latency"; Printf.sprintf "%.3f ms" (pct 99.0) ];
      [
        "engine cache";
        Printf.sprintf "%d hit / %d miss"
          (v "analysis.cache.engine.hit")
          (v "analysis.cache.engine.miss");
      ];
      [ "topo computed"; string_of_int (v "analysis.topo.computed") ];
    ];
  if v "analysis.cache.engine.hit" < iterations - 1 then begin
    Fmt.epr "FAIL: repeat requests were not served from the engine cache@.";
    exit 1
  end;
  print_newline ()

(* Perf-trajectory baseline comparison (--baseline FILE).  Reads a
   previously committed BENCH_epp_kernel.json and flags any fixture whose
   regenerated speedup regressed more than 5% against the recorded one.
   Labels that don't appear in the baseline (e.g. smoke fixtures against a
   full-run baseline) are skipped with a note.  One re-measure before
   failing: a single sweep's timing carries machine-load noise that a
   5% guard would otherwise convert into flakes. *)
let baseline_speedups path =
  match Obs.Json.parse_file path with
  | Error msg ->
    Fmt.epr "FAIL: baseline %s does not parse: %s@." path msg;
    exit 1
  | Ok v ->
    let fixtures =
      Option.value ~default:[]
        (Option.bind (Obs.Json.member "fixtures" v) Obs.Json.to_list)
    in
    List.filter_map
      (fun f ->
        match
          ( Option.bind (Obs.Json.member "label" f) Obs.Json.to_string_value,
            Option.bind (Obs.Json.member "speedup" f) Obs.Json.to_number )
        with
        | Some label, Some speedup -> Some (label, speedup)
        | _ -> None)
      fixtures

let check_against_baseline ~fixtures ~rows path =
  let recorded = baseline_speedups path in
  let tolerance = 0.05 in
  let failed = ref false in
  List.iter2
    (fun f r ->
      match List.assoc_opt r.kr_label recorded with
      | None -> Fmt.pr "baseline: %s not in %s — skipped@." r.kr_label path
      | Some old ->
        let regression r = (old -. r.kr_speedup) /. old in
        let r =
          if regression r > tolerance then begin
            Fmt.pr "baseline: %s speedup %.1fx vs recorded %.1fx — re-measuring once@."
              r.kr_label r.kr_speedup old;
            run_kernel_fixture f
          end
          else r
        in
        if regression r > tolerance then begin
          Fmt.epr "FAIL: %s: speedup %.1fx regressed >%.0f%% vs recorded %.1fx@."
            r.kr_label r.kr_speedup (tolerance *. 100.0) old;
          failed := true
        end
        else
          Fmt.pr "baseline: %s speedup %.1fx vs recorded %.1fx — within %.0f%%@."
            r.kr_label r.kr_speedup old (tolerance *. 100.0))
    fixtures rows;
  if !failed then exit 1

let run_kernel_bench ?(json = false) ?(smoke = false) ?baseline () =
  print_endline
    "== EPP kernel / batch vs reference engine (analyze_all, single domain) ==";
  let fixtures = kernel_fixtures ~smoke in
  let rows = List.map run_kernel_fixture fixtures in
  Report.Table.print
    ~align:Report.Table.[ Left; Right; Right; Right; Right; Right; Right; Right ]
    ~header:
      [ "fixture"; "gates"; "reference"; "kernel"; "batch"; "kern spd";
        "batch spd"; "max |dP|" ]
    (List.map
       (fun r ->
         [ r.kr_label; string_of_int r.kr_gates;
           Printf.sprintf "%.3f s" r.kr_reference_s;
           Printf.sprintf "%.3f s" r.kr_kernel_s;
           Printf.sprintf "%.3f s" r.kr_batch_s;
           Printf.sprintf "%.1fx" r.kr_speedup;
           Printf.sprintf "%.1fx" (r.kr_reference_s /. r.kr_batch_s);
           Printf.sprintf "%.1e" r.kr_max_diff ])
       rows);
  List.iter
    (fun r ->
      let base = List.assoc 1 r.kr_batch_scaling in
      Fmt.pr "batch scaling %s:%s@." r.kr_label
        (String.concat ","
           (List.map
              (fun (d, t) -> Printf.sprintf " %dd %.3f s (%.1fx)" d t (base /. t))
              r.kr_batch_scaling)))
    rows;
  let failed = ref false in
  List.iter2
    (fun f r ->
      if r.kr_max_diff > 1e-12 then begin
        Fmt.epr "FAIL: %s: kernel diverged from reference (max diff %.3g > 1e-12)@."
          r.kr_label r.kr_max_diff;
        failed := true
      end;
      if not (r.kr_batch_bitwise && r.kr_batch_max_diff = 0.0) then begin
        Fmt.epr "FAIL: %s: batch diverged from the kernel (max diff %.3g, must be bitwise)@."
          r.kr_label r.kr_batch_max_diff;
        failed := true
      end;
      (match f.kf_min_speedup with
      | Some min when r.kr_speedup < min ->
        Fmt.epr "FAIL: %s: kernel speedup %.1fx below the %.0fx floor@." r.kr_label
          r.kr_speedup min;
        failed := true
      | Some _ | None -> ());
      match f.kf_min_batch_speedup with
      | Some min when r.kr_reference_s /. r.kr_batch_s < min ->
        Fmt.epr "FAIL: %s: batch speedup %.1fx below the %.0fx floor@." r.kr_label
          (r.kr_reference_s /. r.kr_batch_s)
          min;
        failed := true
      | Some _ | None -> ())
    fixtures rows;
  if !failed then exit 1;
  print_endline
    "kernel within 1e-12 and batch bit-identical on every fixture: PASS";
  Option.iter (check_against_baseline ~fixtures ~rows) baseline;
  let print_overhead oh =
    Fmt.pr
      "instrumentation overhead (%s, %d rounds): no-op sinks %.4f s vs %.4f s \
       (trimmed-mean delta %.2f%%); live sinks %.4f s (+%.2f%%)@."
      oh.oh_fixture oh.oh_reps oh.oh_noop_s oh.oh_noop_check_s
      oh.oh_noop_delta_percent oh.oh_live_s oh.oh_live_overhead_percent
  in
  let oh = measure_overhead () in
  print_overhead oh;
  (* One re-measure before failing: the delta bounds measurement noise, and
     a burst of machine load during a single pass can push it past the
     guard without any code change. *)
  let oh =
    if smoke && oh.oh_noop_delta_percent >= 2.0 then begin
      Fmt.pr "delta above the guard — re-measuring once@.";
      let oh = measure_overhead () in
      print_overhead oh;
      oh
    end
    else oh
  in
  if smoke && oh.oh_noop_delta_percent >= 2.0 then begin
    Fmt.epr "FAIL: no-op-sink kernel delta %.2f%% exceeds the 2%% guard@."
      oh.oh_noop_delta_percent;
    exit 1
  end;
  print_newline ();
  if json then begin
    let open Obs.Json in
    let fixture_row r =
      let sps t = float_of_int r.kr_nodes /. t in
      Obj
        [
          ("label", String r.kr_label);
          ("nodes", int r.kr_nodes);
          ("gates", int r.kr_gates);
          ("sites", int r.kr_nodes);
          ("reference_s", Number r.kr_reference_s);
          ("kernel_s", Number r.kr_kernel_s);
          ("reference_sites_per_sec", Number (sps r.kr_reference_s));
          ("kernel_sites_per_sec", Number (sps r.kr_kernel_s));
          ("speedup", Number r.kr_speedup);
          ("max_abs_diff", Number r.kr_max_diff);
          ( "batch",
            Obj
              [
                ("batch_s", Number r.kr_batch_s);
                ("batch_sites_per_sec", Number (sps r.kr_batch_s));
                ("speedup_vs_reference", Number (r.kr_reference_s /. r.kr_batch_s));
                ("speedup_vs_kernel", Number (r.kr_kernel_s /. r.kr_batch_s));
                ("max_abs_diff", Number r.kr_batch_max_diff);
                ("bitwise", Bool r.kr_batch_bitwise);
                ( "scaling",
                  List
                    (List.map
                       (fun (d, t) ->
                         Obj
                           [
                             ("domains", int d);
                             ("seconds", Number t);
                             ("sites_per_sec", Number (sps t));
                           ])
                       r.kr_batch_scaling) );
              ] );
          ("metrics", r.kr_metrics);
        ]
    in
    to_file ~pretty:true "BENCH_epp_kernel.json"
      (Obj
         [
           ("benchmark", String "epp_kernel_vs_reference");
           ("domains", int 1);
           ("fixtures", List (List.map fixture_row rows));
           ( "instrumentation_overhead",
             Obj
               [
                 ("fixture", String oh.oh_fixture);
                 ("reps", int oh.oh_reps);
                 ("noop_s", Number oh.oh_noop_s);
                 ("noop_check_s", Number oh.oh_noop_check_s);
                 ("live_s", Number oh.oh_live_s);
                 ("noop_delta_percent", Number oh.oh_noop_delta_percent);
                 ("live_overhead_percent", Number oh.oh_live_overhead_percent);
               ] );
         ]);
    print_endline "wrote BENCH_epp_kernel.json";
    print_newline ()
  end

(* --- design-choice ablations ------------------------------------------------
   Accuracy of each estimator against the BDD-exact ground truth on a
   mid-size circuit, quantifying what each design ingredient buys:
   - the paper's polarity-tracked EPP (the contribution),
   - the polarity-blind three-state rules (drop the key idea),
   - COP observability (drop per-site path construction as well),
   - random simulation at two budgets (the baseline at different costs). *)
let run_ablation_on ~label c =
  Fmt.pr "-- %s --@." label;
  let sp = sp_of c in
  let cb = Circuit_bdd.build ~node_limit:8_000_000 c in
  let input_sp v = if Netlist.Circuit.is_ff c v then sp.Sigprob.Sp.values.(v) else 0.5 in
  let sites =
    List.init (Netlist.Circuit.node_count c) Fun.id
    |> List.filter (Netlist.Circuit.is_gate c)
  in
  let exact =
    List.map
      (fun s ->
        (Circuit_bdd.epp_exact ~input_sp ~node_limit:8_000_000 cb s).Circuit_bdd.p_sensitized)
      sites
  in
  let mae estimates =
    List.fold_left2 (fun acc e x -> acc +. Float.abs (e -. x)) 0.0 estimates exact
    /. float_of_int (List.length sites)
  in
  let timed name f =
    let estimates, t = Report.Timer.time f in
    (name, mae estimates, t)
  in
  let polarity = Epp.Epp_engine.create ~sp c in
  let naive = Epp.Epp_engine.create ~mode:Epp.Epp_engine.Naive ~sp c in
  let sim_at vectors =
    let ctx = Fault_sim.Epp_sim.create ~config:{ Fault_sim.Epp_sim.vectors; input_sp } c in
    let rng = Rng.create ~seed:77 in
    List.map (fun s -> (Fault_sim.Epp_sim.estimate_site ctx ~rng s).Fault_sim.Epp_sim.p_sensitized) sites
  in
  let rows =
    [
      timed "EPP (paper: polarity + cone)" (fun () ->
          List.map (fun s -> (Epp.Epp_engine.analyze_site polarity s).Epp.Epp_engine.p_sensitized) sites);
      timed "EPP, polarity-blind rules" (fun () ->
          List.map (fun s -> (Epp.Epp_engine.analyze_site naive s).Epp.Epp_engine.p_sensitized) sites);
      timed "COP observability (1 pass)" (fun () ->
          let ob = Sigprob.Observability.compute ~sp c in
          List.map (fun s -> Sigprob.Observability.get ob s) sites);
      timed "simulation, 1k vectors/site" (fun () -> sim_at 1_000);
      timed "simulation, 16k vectors/site" (fun () -> sim_at 16_384);
    ]
  in
  Report.Table.print
    ~align:Report.Table.[ Left; Right; Right ]
    ~header:[ "estimator"; "MAE vs exact"; "time (all sites)" ]
    (List.map
       (fun (name, mae, t) ->
         [ name; Printf.sprintf "%.4f" mae; Printf.sprintf "%.1f ms" (t *. 1000.0) ])
       rows);
  print_newline ()

let run_ablation () =
  print_endline "== Ablation: accuracy vs the BDD-exact oracle (all gate sites) ==";
  run_ablation_on ~label:"s344 profile (default mix: 6% XOR)"
    (Circuit_gen.Random_dag.generate ~seed:4 Circuit_gen.Profiles.s344);
  (* Parity-style logic is where the polarity split earns its keep: same
     size, but half the multi-input gates are XOR/XNOR. *)
  let xor_rich =
    { Circuit_gen.Random_dag.default_config with Circuit_gen.Random_dag.xor_fraction = 0.5 }
  in
  run_ablation_on ~label:"s298 profile, XOR-rich variant (50% XOR)"
    (Circuit_gen.Random_dag.generate ~config:xor_rich ~seed:4 Circuit_gen.Profiles.s298)

(* Usage: dune exec bench/main.exe --
     (no flag)       full run: micro + fig1 + kernel + ablations + Table 2
     --quick         3-circuit Table-2 smoke version
     --micro-only    Bechamel microbenchmarks only
     --table-only    Table-2 harness only
     --kernel-only   kernel-vs-reference sweep only (>= 5k-gate fixtures)
     --service       in-process load run against the serd request engine
     --json          with the kernel bench: also write BENCH_epp_kernel.json
     --baseline F    with the kernel bench: fail if any fixture's speedup
                     regressed >5% against the recorded BENCH_epp_kernel.json
     --smoke         fast CI check: kernel equivalence on a small profile plus
                     the shared-analysis reuse counters on the embedded s27
                     (also available as `dune build @bench-smoke`) *)
let () =
  let args = Array.to_list Sys.argv in
  let quick = List.mem "--quick" args in
  let micro_only = List.mem "--micro-only" args in
  let table_only = List.mem "--table-only" args in
  let kernel_only = List.mem "--kernel-only" args in
  let json = List.mem "--json" args in
  let rec baseline_of = function
    | "--baseline" :: file :: _ -> Some file
    | _ :: rest -> baseline_of rest
    | [] -> None
  in
  let baseline = baseline_of args in
  if List.mem "--smoke" args then begin
    run_kernel_bench ~smoke:true ?baseline ();
    run_analysis_reuse_check ()
  end
  else if List.mem "--service" args then run_service_load ()
  else if kernel_only then run_kernel_bench ~json ?baseline ()
  else begin
    if not table_only then run_micro ();
    if not micro_only then begin
      run_fig1 ();
      run_kernel_bench ~json ?baseline ();
      run_ablation ();
      run_table2 ~quick ()
    end
  end
