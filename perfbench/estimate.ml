(* dense-estimate and cone-local-estimate: the ser_estimate pipeline on
   .bench text, cold (a fresh parse, analysis context and engine each
   time), one estimate at a time in a closed loop.  A pass at 1 domain,
   the production default, times whole rounds of the circuit suite; a pass
   at 2 domains then does the same. *)

module E = Epp

let now = Obs.Clock.monotonic_seconds

type run = {
  engine : E.Epp_engine.t;
  results : E.Epp_engine.site_result array;
  report : E.Ser_estimator.report;
  top : E.Ranking.entry list;
  seconds : float;
}

(* Ser_estimator.estimate's body (create, analyze_all, of_site_results)
   between the parse and the ranking, with the site results kept for the
   output checks. *)
let estimate ~domains (p : Inputs.payload) =
  let t0 = now () in
  let c = Bench_format.Parser.parse_string ~name:p.label p.text in
  let engine = E.Epp_engine.create c in
  let results = E.Ser_estimator.analyze_all ~domains engine in
  let report = E.Ser_estimator.of_site_results c results in
  let top = E.Ranking.top_k report 10 in
  let seconds = now () -. t0 in
  { engine; results = Array.of_list results; report; top; seconds }

(* --- output checks ------------------------------------------------------ *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_result (a : E.Epp_engine.site_result) (b : E.Epp_engine.site_result) =
  a.site = b.site
  && same_bits a.p_sensitized b.p_sensitized
  && List.length a.per_observation = List.length b.per_observation
  && List.for_all2
       (fun (o, p) (o', p') -> o = o' && same_bits p p')
       a.per_observation b.per_observation

(* Sampled sites must be bit-identical to the boxed reference. *)
let reference_ok run sample =
  List.for_all (fun s -> same_result run.results.(s) (E.Epp_engine.analyze_site run.engine s)) sample

(* A digest of every bit of an estimate's output: the per-site results,
   the total FIT and the ranking.  The 2-domain estimate's digest must equal
   the 1-domain one's. *)
let digest run =
  let b = Buffer.create (1 lsl 20) in
  let bits x = Buffer.add_int64_le b (Int64.bits_of_float x) in
  Array.iter
    (fun (r : E.Epp_engine.site_result) ->
      Buffer.add_int32_le b (Int32.of_int r.site);
      bits r.p_sensitized;
      List.iter (fun (o, p) ->
          (match o with
          | Netlist.Circuit.Po v -> Buffer.add_char b 'p'; Buffer.add_int32_le b (Int32.of_int v)
          | Netlist.Circuit.Ff_data v -> Buffer.add_char b 'f'; Buffer.add_int32_le b (Int32.of_int v));
          bits p)
        r.per_observation)
    run.results;
  bits run.report.total_fit;
  List.iter (fun (e : E.Ranking.entry) -> Buffer.add_int32_le b (Int32.of_int e.report.node)) run.top;
  Digest.string (Buffer.contents b)

let checked_sites = 8

(* The paper's %Dif against random fault simulation, on the first circuit:
   24 sampled sites, 5,000 vectors, all drawn from the workload seed. *)
let dif_pct ~seed (p : Inputs.payload) =
  let c = Bench_format.Parser.parse_string ~name:p.label p.text in
  let engine = E.Epp_engine.create c in
  let sim =
    Fault_sim.Epp_sim.create
      ~config:{ Fault_sim.Epp_sim.default_config with vectors = 5000 }
      c
  in
  let sites = Inputs.sample ~seed ~purpose:5 ~count:24 (Netlist.Circuit.node_count c) in
  let pairs = E.Accuracy.compare_sites engine sim ~rng:(Inputs.stream ~seed 4) sites in
  (E.Accuracy.summarize pairs).E.Accuracy.dif_percent

(* --- the timed passes ---------------------------------------------------- *)

(* A pass estimates every circuit of the suite in turn, a round, and starts
   another round while its time lasts, so every pass times whole rounds. *)
type sample = { round : int; circuit : int; seconds : float; sites : int }

type pass = {
  samples : sample list;
  gc : Sysinfo.gc_delta list;  (** per estimate *)
  attempted : int;
  failed : int;
  problems : string list;
}

(* [digests] holds each circuit's first digest: every later estimate of
   that circuit, at either domain count, must match it bit for bit. *)
let timed_pass ~seed ~seconds ~domains ~digests payloads =
  let samples = ref [] and gc = ref [] in
  let attempted = ref 0 and failed = ref 0 and problems = ref [] in
  let fail msg =
    incr failed;
    problems := msg :: !problems
  in
  let start = now () in
  let round = ref 0 in
  while !round = 0 || now () -. start < seconds do
    List.iteri
      (fun k (p : Inputs.payload) ->
        incr attempted;
        (* Each estimate starts from a collected heap holding only the
           inputs and the digests, as a fresh ser_estimate process would. *)
        Gc.full_major ();
        let g0 = Gc.quick_stat () in
        match estimate ~domains p with
        | exception exn -> fail (Printf.sprintf "%s: %s" p.label (Printexc.to_string exn))
        | r ->
          let g1 = Gc.quick_stat () in
          samples := { round = !round; circuit = k; seconds = r.seconds; sites = p.nodes } :: !samples;
          gc := Sysinfo.gc_delta g0 g1 :: !gc;
          let purpose = 100 + (1000 * domains) + (10 * !round) + k in
          let d = digest r in
          if not (reference_ok r (Inputs.sample ~seed ~purpose ~count:checked_sites p.nodes)) then
            fail (Printf.sprintf "%s: %d-domain sites differ from the reference" p.label domains)
          else
            match Hashtbl.find_opt digests k with
            | None -> Hashtbl.add digests k d
            | Some d0 when Digest.equal d d0 -> ()
            | Some _ ->
              fail (Printf.sprintf "%s: %d-domain estimate differs from the first one" p.label domains))
      payloads;
    incr round
  done;
  {
    samples = List.rev !samples;
    gc = List.rev !gc;
    attempted = !attempted;
    failed = !failed;
    problems = List.rev !problems;
  }

(* Median over rounds of a round's mean estimate time: every round
   estimates the whole suite once, so rounds are comparable samples. *)
let median_estimate samples =
  let rounds = List.sort_uniq compare (List.map (fun s -> s.round) samples) in
  Stats.median
    (List.map
       (fun r -> Stats.mean (List.filter_map (fun s -> if s.round = r then Some s.seconds else None) samples))
       rounds)

let sites_per_s samples =
  Stats.ratio
    (float_of_int (List.fold_left (fun a s -> a + s.sites) 0 samples))
    (Stats.sum (List.map (fun s -> s.seconds) samples))

(* --- the traced pass ---------------------------------------------------- *)

(* The same pipeline split at each public call, one span per layer. *)
let traced_estimate ~domains (p : Inputs.payload) =
  Layers.span "bench.estimate" @@ fun () ->
  let c =
    Layers.span "bench.parse" (fun () -> Bench_format.Parser.parse_string ~name:p.label p.text)
  in
  Layers.span "bench.analysis" (fun () -> Layers.build_analysis c);
  let sp, converged =
    Layers.span "bench.sp" (fun () ->
        if Netlist.Circuit.ff_count c > 0 then
          let o = Sigprob.Sp_sequential.compute c in
          (o.Sigprob.Sp_sequential.result, o.converged)
        else (Sigprob.Sp_topological.compute c, true))
  in
  let engine = Layers.span "bench.engine" (fun () -> E.Epp_engine.create ~sp c) in
  let results =
    Layers.span "bench.sweep" (fun () -> E.Ser_estimator.analyze_all ~domains engine)
  in
  let report = Layers.span "bench.compose" (fun () -> E.Ser_estimator.of_site_results c results) in
  let top = Layers.span "bench.top_k" (fun () -> E.Ranking.top_k report 10) in
  ({ engine; results = Array.of_list results; report; top; seconds = 0.0 }, converged)

(* Every circuit of the suite, traced once at each domain count.  At 1
   domain each traced estimate follows an untraced one of the same circuit,
   so the trace overhead compares the same minute of the machine. *)
let traced ~seed ~d2 ~(one : pass) payloads =
  let chosen = List.mapi (fun k p -> (k, p)) payloads in
  let n = float_of_int (List.length chosen) in
  let problems = ref [] and untraced = ref [] in
  let traced_pass domains =
    let p = Layers.create () in
    let converged =
      List.map
        (fun (k, payload) ->
          if domains = 1 then begin
            Gc.full_major ();
            untraced := (estimate ~domains payload).seconds :: !untraced
          end;
          Gc.full_major ();
          let run, converged = Layers.within p (fun () -> traced_estimate ~domains payload) in
          let sample = Inputs.sample ~seed ~purpose:(200 + k) ~count:checked_sites payload.Inputs.nodes in
          if not (reference_ok run sample) then
            problems := Printf.sprintf "%s: traced estimate differs from the reference" payload.label :: !problems;
          converged)
        chosen
    in
    (Obs.Metrics.snapshot p.Layers.registry, Layers.account p.Layers.tracer, converged)
  in
  let snap1, acc1, converged = traced_pass 1 in
  let snap2, acc2, _ = traced_pass d2 in
  let per x = Stats.ratio x n in
  let e2e = per (Layers.total_s acc1 "bench.estimate") in
  let untraced = Stats.mean !untraced in
  let bytes =
    float_of_int (List.fold_left (fun a (_, p) -> a + String.length p.Inputs.text) 0 chosen)
  in
  let batched = Layers.counter snap1 "epp.batch.dispatch.batched" > 0.0 in
  let sp_computes = float_of_int (Layers.count acc1 "bench.sp") in
  let busy = Layers.hist_sum snap2 "parallel.worker_busy_seconds" in
  let idle = Layers.hist_sum snap2 "parallel.worker_idle_seconds" in
  let gc_mean f = Stats.mean (List.map f one.gc) in
  let metrics =
    [
      ("bench_format.parse_s", per (Layers.total_s acc1 "bench.parse"), "s");
      ("bench_format.mb_per_s", Stats.ratio (bytes /. 1e6) (Layers.total_s acc1 "bench.parse"), "MB/s");
      ("netlist.analysis_s", per (Layers.total_s acc1 "bench.analysis"), "s");
      ("sigprob.sp_s", per (Layers.total_s acc1 "bench.sp"), "s");
      ( "sigprob.fixpoint_iterations",
        Stats.ratio (Layers.counter snap1 "sp.fixpoint_iterations") sp_computes,
        "count" );
      ("sigprob.unconverged", float_of_int (List.length (List.filter not converged)), "count");
      ("sigprob.node_evals", Stats.ratio (Layers.counter snap1 "sp.node_evaluations") sp_computes, "count");
      ( "parallel.speedup_2d",
        Stats.ratio (Layers.total_s acc1 "bench.sweep") (Layers.total_s acc2 "bench.sweep"),
        "ratio" );
      ("parallel.busy_ratio", Stats.ratio busy (busy +. idle), "ratio");
      ("parallel.tasks_stolen", per (Layers.counter snap2 "parallel.tasks_stolen"), "count");
      ("ser_estimator.compose_s", per (Layers.total_s acc1 "bench.compose"), "s");
      ("ranking.top_k_s", per (Layers.total_s acc1 "bench.top_k"), "s");
      ("gc.minor_collections", gc_mean (fun g -> float_of_int g.Sysinfo.minor), "count");
      ("gc.major_collections", gc_mean (fun g -> float_of_int g.Sysinfo.major), "count");
      ("gc.allocated_mb", gc_mean (fun g -> g.Sysinfo.allocated_mb), "MB");
      ("obs.trace_overhead_pct", 100.0 *. Stats.ratio (e2e -. untraced) untraced, "%");
      ( "obs.unattributed_pct",
        100.0 *. Stats.ratio (Layers.self_s acc1 "bench.estimate") (Layers.total_s acc1 "bench.estimate"),
        "%" );
    ]
    @ Layers.kernel_metrics snap1 ~ops:n
    @ Layers.batch_metrics snap1 ~ops:n
  in
  (* The sweep's own self time is the per-site kernel when the density
     dispatch kept it, and dispatch overhead around the blocks otherwise. *)
  let sweep_self = per (Layers.self_s acc1 "bench.sweep") in
  Layers.print_table ~title:"traced 1-domain estimate" ~e2e
    [
      ("bench_format (parse)", per (Layers.self_s acc1 "bench.parse"));
      ("netlist (analysis)", per (Layers.self_s acc1 "bench.analysis"));
      ("sigprob (sp)", per (Layers.sum_self acc1 [ "bench.sp"; "sp.sequential"; "sp.topological" ]));
      ( "epp (engine, kernel sweep)",
        per (Layers.sum_self acc1 [ "bench.engine"; "epp.create"; "epp.levelize" ])
        +. if batched then 0.0 else sweep_self );
      ("epp_batch (blocks)", per (Layers.self_s acc1 "epp.batch.block"));
      ("parallel (workers)", per (Layers.self_s acc1 "parallel.worker"));
      ("ser_estimator (dispatch)", if batched then sweep_self else 0.0);
      ("ser_estimator (compose)", per (Layers.self_s acc1 "bench.compose"));
      ("ranking (top_k)", per (Layers.self_s acc1 "bench.top_k"));
    ];
  Printf.printf "untraced 1-domain estimate, same circuits, paired: %.3f ms; trace overhead %.2f%%\n"
    (untraced *. 1e3) (100.0 *. Stats.ratio (e2e -. untraced) untraced);
  Printf.printf "density dispatch: %s (epp.batch.dispatch.batched=%.0f per_site=%.0f)\n"
    (if batched then "batched (Epp_batch)" else "per-site kernel")
    (Layers.counter snap1 "epp.batch.dispatch.batched")
    (Layers.counter snap1 "epp.batch.dispatch.per_site");
  (metrics, List.rev !problems)

(* --- the workload ------------------------------------------------------- *)

let setup_reps = 5

let run ~name ~make ~seed ~seconds ~trace ~accuracy =
  (* Set-up: generate the circuits and print their .bench payloads,
     several times; the median is the set-up time. *)
  let times, payloads =
    List.fold_left
      (fun (times, _) _ ->
        let t0 = now () in
        let p = make () in
        (now () -. t0 :: times, p))
      ([], []) (List.init setup_reps Fun.id)
  in
  let setup_s = Stats.median times in
  Printf.printf "set-ups (s): %s\n" (String.concat " " (List.rev_map (Printf.sprintf "%.4f") times));
  let d2 = max 1 (min 2 (Sysinfo.nproc ())) in
  Printf.printf "workload %s: %d circuits (%s)\n" name (List.length payloads)
    (String.concat ", "
       (List.map (fun (p : Inputs.payload) -> Printf.sprintf "%s %d nodes" p.label p.nodes) payloads));
  List.iter
    (fun (p : Inputs.payload) ->
      if p.renamed > 0 then
        Printf.printf
          "note: %s: %d nets renamed to plain identifiers (Bench_format.Printer writes '#' names, which the parser reads as comments)\n"
          p.label p.renamed)
    payloads;
  Printf.printf "domains: a 1-domain pass, then a %d-domain pass, %g s each\n" d2 (seconds /. 2.0);
  (* Each pass follows an untimed warm-up estimate at its domain count.
     The peak RSS is read before any 2-domain work: two domains' collectors
     interleave differently on every run, which moved the peak by a tenth
     from run to run, while the 1-domain peak repeats within 2%. *)
  let first = List.hd payloads in
  let warm_up domains =
    let t0 = now () in
    ignore (estimate ~domains first);
    Printf.printf "warmup_s %.3f s (domains=%d)\n" (now () -. t0) domains
  in
  let digests = Hashtbl.create 4 in
  warm_up 1;
  let one = timed_pass ~seed ~seconds:(seconds /. 2.0) ~domains:1 ~digests payloads in
  let peak_rss_mb = Sysinfo.peak_rss_mb ~pid:"self" in
  warm_up d2;
  let two = timed_pass ~seed ~seconds:(seconds /. 2.0) ~domains:d2 ~digests payloads in
  let peak_rss_mb_2d = Sysinfo.peak_rss_mb ~pid:"self" in
  let show (pass : pass) =
    let rounds = 1 + List.fold_left (fun a s -> max a s.round) 0 pass.samples in
    Printf.sprintf "%d rounds (round.circuit:ms) %s" rounds
      (String.concat " "
         (List.map (fun s -> Printf.sprintf "%d.%d:%.0f" s.round s.circuit (s.seconds *. 1e3)) pass.samples))
  in
  Printf.printf "1-domain estimates: %s\n%d-domain estimates: %s\n" (show one) d2 (show two);
  let dif =
    if accuracy then begin
      let t0 = now () in
      let d = dif_pct ~seed first in
      Printf.printf "dif_pct computed in %.2f s (24 sites x 5000 vectors)\n" (now () -. t0);
      [ ("dif_pct", d, "%") ]
    end
    else []
  in
  let attempted = one.attempted + two.attempted and failed = one.failed + two.failed in
  let end_to_end =
    [
      ("estimate_s", median_estimate one.samples, "s");
      ("sites_per_s", sites_per_s one.samples, "sites/s");
      ("sites_per_s_2d", sites_per_s two.samples, "sites/s");
    ]
    @ dif
    @ [
        ("setup_s", setup_s, "s");
        ("peak_rss_mb", peak_rss_mb, "MB");
        ("peak_rss_mb_2d", peak_rss_mb_2d, "MB");
        ("fail_ratio", Stats.ratio (float_of_int failed) (float_of_int attempted), "ratio");
      ]
  in
  let per_layer, traced_problems = if trace then traced ~seed ~d2 ~one payloads else ([], []) in
  let problems = one.problems @ two.problems @ traced_problems in
  List.iter (Printf.printf "FAILED: %s\n") problems;
  {
    Outcome.correct = problems = [];
    attempted;
    failed = failed + List.length traced_problems;
    end_to_end;
    per_layer;
  }
