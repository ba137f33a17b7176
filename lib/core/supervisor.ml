(* The degradation ladder: batch -> reference -> quarantine.

   A sweep runs whole blocks of sites on the Epp_batch engine.  A lane that
   fails — an exception out of the engine, NaN components, a four-state sum
   that drifted beyond tolerance, a probability outside [0, 1] — becomes a
   typed Diag.fault and that site alone is retried on the boxed reference,
   result-checked; a site that fails there too is quarantined, and the
   sweep continues.  An engine in [Naive] mode has no batch rung: its sites
   start on the reference.  The per-site wrapper [reference_entry] never
   raises, which is what makes the parallel fan-out safe: a worker domain
   can always finish its claim.

   The sentinels are deliberately layered: the batch rung checks the raw
   four-state vectors (Block.lane_vector_defect) *and* the published
   result; the reference rung re-checks the result only (the boxed path
   validates its vectors internally via Prob4).  A defect that only a
   sentinel sees — e.g. an sp value mutated to something that still feeds
   finite arithmetic — degrades exactly like a crash does. *)

open Netlist

type entry =
  | Analyzed of { result : Epp_engine.site_result; step : Diag.step }
  | Quarantined of Diag.quarantine

type outcome = {
  entries : (int * entry) list;
  stats : Diag.stats;
  completion : Diag.completion;
}

(* Matches Prob4.normalize's drift bound: anything larger is a rule bug or a
   poisoned input, not rounding dust. *)
let default_tolerance = 1e-6

(* First NaN / out-of-range component of a published result, if any. *)
let result_fault circuit (r : Epp_engine.site_result) =
  let check where value =
    if Float.is_nan value then Some (Diag.Nan { where })
    else if not (value >= 0.0 && value <= 1.0) then
      Some (Diag.Out_of_range { where; value })
    else None
  in
  match check "p_sensitized" r.Epp_engine.p_sensitized with
  | Some f -> Some f
  | None ->
    List.find_map
      (fun (obs, p) ->
        check ("P(" ^ Circuit.observation_name circuit obs ^ ")") p)
      r.Epp_engine.per_observation

let vector_fault ~tolerance defect =
  if Float.is_nan defect then Some (Diag.Nan { where = "four-state vector" })
  else if defect > tolerance then
    Some (Diag.Sum_defect { defect; tolerance })
  else None

let exception_fault e = Diag.Exception { exn = Printexc.to_string e }

(* Cone size for the quarantine record: the pure graph traversal (no float
   arithmetic), so it normally survives whatever poisoned the analysis; when
   even it fails (out-of-range site), record None.  Served from the shared
   cone cache — the quarantined site was just analyzed, so its cone is
   usually still resident. *)
let safe_cone_size circuit site =
  match Analysis.cone (Analysis.get circuit) site with
  | reach -> Some (Reach.count reach)
  | exception _ -> None

let quarantine ?ctx circuit site faults =
  let name =
    match Circuit.node_name circuit site with
    | name -> name
    | exception _ -> Printf.sprintf "#%d" site
  in
  let q = { Diag.site; name; cone_size = safe_cone_size circuit site; faults } in
  Obs.Log.emit ?ctx
    ~fields:
      [
        ("site", Obs.Json.int site);
        ("name", Obs.Json.String name);
        ( "cone_size",
          match q.Diag.cone_size with
          | Some c -> Obs.Json.int c
          | None -> Obs.Json.Null );
        ( "faults",
          Obs.Json.List
            (List.map
               (fun (step, fault) ->
                 Obs.Json.String
                   (Diag.step_to_string step ^ ": " ^ Diag.fault_to_string fault))
               q.Diag.faults) );
      ]
    Obs.Log.Warn "supervisor.quarantine";
  Quarantined q

(* One site on the reference rung, quarantined if that fails too; never
   raises.  [batch_fault] is what sent the site down from the batch rung
   (logged as [supervisor.degrade]); it heads the quarantine record so the
   faults read in ladder order. *)
let reference_entry ?ctx ?batch_fault ?reference engine site =
  let circuit = Epp_engine.circuit engine in
  let prior =
    match batch_fault with
    | None -> []
    | Some fault ->
      Obs.Log.emit ?ctx
        ~fields:
          [
            ("site", Obs.Json.int site);
            ("from", Obs.Json.String (Diag.step_to_string Diag.Batch));
            ("fault", Obs.Json.String (Diag.fault_to_string fault));
          ]
        Obs.Log.Debug "supervisor.degrade";
      [ (Diag.Batch, fault) ]
  in
  let analyzed =
    match
      match reference with
      | Some f -> f engine site
      | None -> Epp_engine.analyze_site engine site
    with
    | exception e -> Error (exception_fault e)
    | r -> (
      match result_fault circuit r with Some f -> Error f | None -> Ok r)
  in
  match analyzed with
  | Ok result -> Analyzed { result; step = Diag.Reference }
  | Error fault -> quarantine ?ctx circuit site (prior @ [ (Diag.Reference, fault) ])

(* One block on the batch rung.  A lane that faults, or whose vectors or
   published result trip a sentinel, drops to [reference_entry] alone with
   its batch fault; a whole-block failure (e.g. a bad site id) drops every
   lane.  The vector-sum sentinel only runs for the real engine: a
   [batch_run] stub leaves no vectors in the planes. *)
let analyze_block ?ctx ~tolerance ?reference ?batch_run block sites =
  let engine = Epp_batch.Block.engine block in
  let circuit = Epp_engine.circuit engine in
  let degrade site fault =
    (site, reference_entry ?ctx ~batch_fault:fault ?reference engine site)
  in
  let real_batch, run =
    match batch_run with
    | Some f -> (false, f)
    | None -> (true, Epp_batch.Block.run)
  in
  match run block sites with
  | exception e -> Array.map (fun site -> degrade site (exception_fault e)) sites
  | results ->
    Array.mapi
      (fun l result ->
        let site = sites.(l) in
        match result with
        | Error e -> degrade site (exception_fault e)
        | Ok r -> (
          let fault =
            match
              if real_batch then
                vector_fault ~tolerance (Epp_batch.Block.lane_vector_defect block l)
              else None
            with
            | Some f -> Some f
            | None -> result_fault circuit r
          in
          match fault with
          | Some f -> degrade site f
          | None -> (site, Analyzed { result = r; step = Diag.Batch })))
      results

let stats_of_entries ?(resumed = 0) entries =
  let batch_ok = ref 0 and degraded = ref 0 and quarantined = ref 0 in
  List.iter
    (fun (_, entry) ->
      match entry with
      | Analyzed { step = Diag.Batch; _ } -> incr batch_ok
      | Analyzed { step = Diag.Reference; _ } -> incr degraded
      | Quarantined _ -> incr quarantined)
    entries;
  {
    Diag.total = List.length entries;
    batch_ok = !batch_ok;
    degraded = !degraded;
    quarantined = !quarantined;
    resumed;
  }

let sweep ?ctx ?domains ?(tolerance = default_tolerance) ?(chunk_size = 1024)
    ?on_chunk ?batch_run ?reference ?(deadline = Obs.Deadline.never) engine
    sites =
  if chunk_size < 1 then invalid_arg "Supervisor.sweep: chunk_size must be >= 1";
  let m = Obs.Hooks.metrics () in
  let tracer = Obs.Hooks.tracer () in
  let c_batch_ok = Obs.Metrics.counter m "supervisor.batch_ok" in
  let c_degraded = Obs.Metrics.counter m "supervisor.degraded_to_reference" in
  let c_quarantined = Obs.Metrics.counter m "supervisor.quarantined" in
  let c_chunks = Obs.Metrics.counter m "supervisor.chunks" in
  Obs.Trace.span tracer ~cat:"supervisor" ~args:(Obs.Ctx.args_of ctx)
    "supervisor.sweep"
  @@ fun () ->
  let arr = Array.of_list sites in
  let n = Array.length arr in
  let acc = ref [] in
  let analyzed = ref 0 in
  let pos = ref 0 in
  let expired = ref false in
  (* The deadline is checked at the two dispatch boundaries the sweep owns:
     before starting a chunk (here), and — via [map_array_until] — before
     each task claim inside one.  Either way, entries already finished are
     kept; the sweep never tears a site mid-analysis and never raises on
     expiry. *)
  while !pos < n && not !expired do
    if Obs.Deadline.expired deadline then expired := true
    else begin
      let len = min chunk_size (n - !pos) in
      let chunk = Array.sub arr !pos len in
      let entries =
        Obs.Trace.span tracer ~cat:"supervisor" ~args:(Obs.Ctx.args_of ctx)
          "supervisor.chunk"
        @@ fun () ->
        match Epp_engine.mode engine with
        | Epp_engine.Polarity ->
          (* blocks per domain: each work item is a whole block, so a domain
             claims union-cone walks, not per-site crumbs *)
          Parallel.map_array_until ?ctx ?domains ~deadline
            ~workspace:(fun () -> Epp_batch.Block.create ?ctx engine)
            ~release:Epp_batch.Block.release
            ~f:(analyze_block ?ctx ~tolerance ?reference ?batch_run)
            (Epp_batch.blocks chunk)
          |> Array.to_list
          |> List.concat_map (function
               | Some block_entries -> Array.to_list block_entries
               | None -> [])
        | Epp_engine.Naive ->
          Parallel.map_array_until ?ctx ?domains ~deadline ~workspace:ignore
            ~f:(fun () site -> (site, reference_entry ?ctx ?reference engine site))
            chunk
          |> Array.to_list |> List.filter_map Fun.id
      in
      let completed = List.length entries in
      if completed < len then expired := true;
      (* Ladder-step accounting happens here, on the calling domain, instead
         of inside the per-site wrapper: one scan per chunk versus a registry
         lookup per site. *)
      Obs.Metrics.incr c_chunks;
      List.iter
        (fun (_, entry) ->
          match entry with
          | Analyzed { step = Diag.Batch; _ } -> Obs.Metrics.incr c_batch_ok
          | Analyzed { step = Diag.Reference; _ } -> Obs.Metrics.incr c_degraded
          | Quarantined _ -> Obs.Metrics.incr c_quarantined)
        entries;
      acc := entries :: !acc;
      analyzed := !analyzed + completed;
      pos := !pos + len;
      match on_chunk with
      | Some f -> f ~done_count:!analyzed ~total:n entries
      | None -> ()
    end
  done;
  let entries = List.concat (List.rev !acc) in
  let completion =
    if !expired then begin
      Obs.Metrics.incr (Obs.Metrics.counter m "supervisor.deadline_expired");
      let budget_seconds = Obs.Deadline.budget_seconds deadline in
      Obs.Log.emit ?ctx
        ~fields:
          [
            ("analyzed", Obs.Json.int !analyzed);
            ("remaining", Obs.Json.int (n - !analyzed));
            ("budget_seconds", Obs.Json.Number budget_seconds);
          ]
        Obs.Log.Warn "supervisor.deadline_expired";
      Diag.Deadline_expired
        { analyzed = !analyzed; remaining = n - !analyzed; budget_seconds }
    end
    else Diag.Complete
  in
  { entries; stats = stats_of_entries entries; completion }

let sweep_all ?ctx ?domains ?tolerance ?chunk_size ?on_chunk ?batch_run
    ?reference ?deadline engine =
  let n = Circuit.node_count (Epp_engine.circuit engine) in
  sweep ?ctx ?domains ?tolerance ?chunk_size ?on_chunk ?batch_run ?reference
    ?deadline engine (List.init n Fun.id)

let results outcome =
  List.filter_map
    (fun (_, entry) ->
      match entry with
      | Analyzed { result; _ } -> Some result
      | Quarantined _ -> None)
    outcome.entries

let quarantines outcome =
  List.filter_map
    (fun (_, entry) ->
      match entry with
      | Quarantined q -> Some q
      | Analyzed _ -> None)
    outcome.entries
