(* obs_smoke: CI gate for the telemetry surface (dune build @obs-smoke).

   The alias first runs the real CLI —

     ser_estimate embedded:s27 --by-output --metrics M --trace T

   — then runs this validator on the two files it wrote.  The checks pin
   the acceptance contract of the telemetry layer:

   - both artifacts parse under the strict Obs.Json parser;
   - the metrics snapshot has nonzero epp.batch.sites and
     parallel.tasks_executed counters (the pipeline was actually observed,
     not just the registry created);
   - the shared-analysis contract held for the whole run:
     analysis.topo.computed is exactly 1 (one topological sort served every
     engine) and analysis.cache.hit is nonzero (the context was actually
     reused);
   - the trace is Perfetto-loadable in shape: a traceEvents list whose
     B/E events balance per name, with >= 3 distinct phase names, numeric
     pid/tid on every event, and a thread_name metadata record for every
     tid that appears;
   - the run built one engine: exactly one epp.create and one
     sp.sequential span, --by-output included.

   It then exercises the flight-recorder / correlation contract in-process:
   a supervised sweep with an injected all-rung fault (one quarantine) and
   one with a zero budget (deadline expiry), each under its own Obs.Ctx —
   the recorder dump must re-parse and contain the quarantine and expiry
   events under their respective request ids, and the Prometheus exposition
   of the live registry must pass the OCaml-side lint.

   Usage: obs_smoke.exe METRICS.json TRACE.json *)

let failures = ref 0

let check what ok =
  if ok then Fmt.pr "ok: %s@." what
  else begin
    incr failures;
    Fmt.pr "FAIL: %s@." what
  end

let parse_or_die label path =
  match Obs.Json.parse_file path with
  | Ok v ->
    Fmt.pr "ok: %s parses as JSON (%s)@." label path;
    v
  | Error msg ->
    Fmt.pr "FAIL: %s does not parse (%s): %s@." label path msg;
    exit 1

let counter_value metrics name =
  match Option.bind (Obs.Json.member "counters" metrics) (Obs.Json.member name) with
  | Some v -> Option.value ~default:0.0 (Obs.Json.to_number v)
  | None -> 0.0

let () =
  let metrics_path, trace_path =
    match Sys.argv with
    | [| _; m; t |] -> (m, t)
    | _ ->
      prerr_endline "usage: obs_smoke METRICS.json TRACE.json";
      exit 2
  in
  let metrics = parse_or_die "metrics snapshot" metrics_path in
  let trace = parse_or_die "trace" trace_path in

  let sites = counter_value metrics "epp.batch.sites" in
  let tasks = counter_value metrics "parallel.tasks_executed" in
  check
    (Printf.sprintf "epp.batch.sites > 0 (got %.0f)" sites)
    (sites > 0.0);
  check
    (Printf.sprintf "parallel.tasks_executed > 0 (got %.0f)" tasks)
    (tasks > 0.0);

  (* The shared-analysis acceptance criterion: the whole supervised run cost
     one topological sort, everything after it hit the memoized context. *)
  let topo = counter_value metrics "analysis.topo.computed" in
  let hits = counter_value metrics "analysis.cache.hit" in
  check
    (Printf.sprintf "analysis.topo.computed = 1 (got %.0f)" topo)
    (topo = 1.0);
  check
    (Printf.sprintf "analysis.cache.hit > 0 (got %.0f)" hits)
    (hits > 0.0);

  let events =
    match Option.bind (Obs.Json.member "traceEvents" trace) Obs.Json.to_list with
    | Some l -> l
    | None ->
      check "trace has a traceEvents list" false;
      []
  in
  let field name e = Obs.Json.member name e in
  let str name e = Option.bind (field name e) Obs.Json.to_string_value in
  let num name e = Option.bind (field name e) Obs.Json.to_number in
  let ph e = Option.value ~default:"?" (str "ph" e) in
  (* Per-name B/E balance: a Perfetto duration stack never goes negative
     and ends empty. *)
  let opens = Hashtbl.create 16 in
  let balanced = ref true in
  List.iter
    (fun e ->
      let name = Option.value ~default:"?" (str "name" e) in
      match ph e with
      | "B" ->
        Hashtbl.replace opens name
          (1 + Option.value ~default:0 (Hashtbl.find_opt opens name))
      | "E" ->
        let d = Option.value ~default:0 (Hashtbl.find_opt opens name) - 1 in
        if d < 0 then balanced := false else Hashtbl.replace opens name d
      | _ -> ())
    events;
  Hashtbl.iter (fun _ d -> if d <> 0 then balanced := false) opens;
  check "B/E events balance per phase name" !balanced;

  let phase_names =
    List.sort_uniq compare
      (List.filter_map
         (fun e -> if ph e = "B" then str "name" e else None)
         events)
  in
  check
    (Printf.sprintf ">= 3 distinct phase names (got %d: %s)"
       (List.length phase_names)
       (String.concat ", " phase_names))
    (List.length phase_names >= 3);

  (* The report, the plan and --by-output's attribution all compose from
     one sweep: one engine, so one signal-probability fixpoint. *)
  List.iter
    (fun name ->
      let spans =
        List.length
          (List.filter (fun e -> ph e = "B" && str "name" e = Some name) events)
      in
      check (Printf.sprintf "exactly one %s span (got %d)" name spans) (spans = 1))
    [ "epp.create"; "sp.sequential" ];

  check "every event has numeric pid/tid/ts"
    (List.for_all
       (fun e -> num "pid" e <> None && num "tid" e <> None && num "ts" e <> None)
       events);

  let tids = List.sort_uniq compare (List.filter_map (num "tid") events) in
  let named_tids =
    List.sort_uniq compare
      (List.filter_map
         (fun e ->
           if ph e = "M" && str "name" e = Some "thread_name" then num "tid" e
           else None)
         events)
  in
  check
    (Printf.sprintf "every tid has thread_name metadata (%d tid(s))"
       (List.length tids))
    (List.for_all (fun t -> List.mem t named_tids) tids);

  (* --- in-process: correlation ids, flight recorder, Prometheus ---------- *)
  Obs.Hooks.reset ();
  Obs.Recorder.clear ();
  let registry = Obs.Metrics.create () in
  Obs.Hooks.set_metrics registry;
  let circuit =
    match Circuit_gen.Embedded.find "s27" with
    | Some f -> f ()
    | None ->
      prerr_endline "embedded s27 missing";
      exit 2
  in
  let engine = Epp.Epp_engine.create circuit in
  (* Request 1: site 0 fails every rung -> exactly one quarantine. *)
  let ctx_q = Obs.Ctx.create ~baggage:[ ("tool", "obs_smoke") ] () in
  let fail_site0 site = if site = 0 then failwith "injected fault" in
  let outcome_q =
    Epp.Supervisor.sweep ~ctx:ctx_q ~domains:1
      ~batch_run:(fun block sites ->
        Array.mapi
          (fun l r -> if sites.(l) = 0 then Error (Failure "injected fault") else r)
          (Epp.Epp_batch.Block.run block sites))
      ~reference:(fun engine site ->
        fail_site0 site;
        Epp.Epp_engine.analyze_site engine site)
      engine [ 0; 1; 2 ]
  in
  check
    (Printf.sprintf "injected sweep quarantined exactly site 0 (got %d)"
       outcome_q.Epp.Supervisor.stats.Epp.Diag.quarantined)
    (outcome_q.Epp.Supervisor.stats.Epp.Diag.quarantined = 1);
  (* Request 2: zero budget -> deadline expiry before any site starts. *)
  let ctx_d = Obs.Ctx.create ~baggage:[ ("tool", "obs_smoke") ] () in
  let outcome_d =
    Epp.Supervisor.sweep ~ctx:ctx_d ~domains:1
      ~deadline:(Obs.Deadline.of_budget_ms 0.0) engine [ 0; 1; 2 ]
  in
  check "zero-budget sweep reports Deadline_expired"
    (match outcome_d.Epp.Supervisor.completion with
    | Epp.Diag.Deadline_expired _ -> true
    | Epp.Diag.Complete -> false);

  (* The flight recorder must hold both incidents, each under its own
     request id, and the dump must survive a write + strict re-parse. *)
  let dump_path = "obs_smoke_recorder.json" in
  Obs.Recorder.dump_to_file dump_path;
  let dump = parse_or_die "flight-recorder dump" dump_path in
  let dump_events =
    Option.value ~default:[]
      (Option.bind (Obs.Json.member "events" dump) Obs.Json.to_list)
  in
  let has_event ~name ~rid =
    List.exists
      (fun e ->
        Option.bind (Obs.Json.member "event" e) Obs.Json.to_string_value
          = Some name
        && Option.bind (Obs.Json.member "request_id" e)
             Obs.Json.to_string_value
           = Some rid)
      dump_events
  in
  check
    (Printf.sprintf "recorder holds supervisor.quarantine under %s"
       (Obs.Ctx.id ctx_q))
    (has_event ~name:"supervisor.quarantine" ~rid:(Obs.Ctx.id ctx_q));
  check
    (Printf.sprintf "recorder holds supervisor.deadline_expired under %s"
       (Obs.Ctx.id ctx_d))
    (has_event ~name:"supervisor.deadline_expired" ~rid:(Obs.Ctx.id ctx_d));
  check "recorder dump events carry ts/level/domain"
    (dump_events <> []
    && List.for_all
         (fun e ->
           Obs.Json.member "ts" e <> None
           && Obs.Json.member "level" e <> None
           && Obs.Json.member "domain" e <> None)
         dump_events);

  (* The Prometheus exposition of the live registry (counters + the sweep's
     histograms) must pass the exposition lint, from memory and from disk. *)
  let snap = Obs.Metrics.snapshot registry in
  let exposition = Obs.Prom.of_snapshot snap in
  (match Obs.Prom.lint exposition with
  | Ok () -> check "Prometheus exposition lints clean" true
  | Error msgs ->
    check
      (Printf.sprintf "Prometheus exposition lints clean (%s)"
         (String.concat "; " msgs))
      false);
  let prom_path = "obs_smoke_prom.txt" in
  Obs.Prom.write_file prom_path snap;
  let reread =
    let ic = open_in_bin prom_path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  check "written exposition re-lints clean" (Obs.Prom.lint reread = Ok ());
  check "exposition carries the supervisor counters"
    (let contains needle =
       let nh = String.length reread and nn = String.length needle in
       let rec at i =
         i + nn <= nh && (String.sub reread i nn = needle || at (i + 1))
       in
       at 0
     in
     contains "supervisor_quarantined" && contains "supervisor_deadline_expired");

  if !failures > 0 then begin
    Fmt.pr "obs smoke: %d check(s) FAILED@." !failures;
    exit 1
  end
  else Fmt.pr "obs smoke: all checks passed@."
