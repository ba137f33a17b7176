(* The degradation ladder: batch -> kernel -> reference -> quarantine.

   The per-site wrapper [analyze_entry] converts every failure mode —
   exceptions out of either engine, NaN components, four-state sums that
   drifted beyond tolerance, probabilities outside [0, 1] — into a typed
   Diag.fault and either a degraded retry or a quarantine record.  It never
   raises, which is what makes the parallel fan-out safe: a worker domain
   can always finish its claim.

   The sentinels are deliberately layered: the kernel rung checks the raw
   four-state vectors (Workspace.last_vector_defect) *and* the published
   result; the reference rung re-checks the result only (the boxed path
   validates its vectors internally via Prob4).  A defect that only a
   sentinel sees — e.g. an sp value mutated to something that still feeds
   finite arithmetic — degrades exactly like a crash does. *)

open Netlist

type entry =
  | Analyzed of { result : Epp_engine.site_result; step : Diag.step }
  | Quarantined of Diag.quarantine

type batch_mode =
  | Auto
  | Always
  | Never

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

(* Cone size for the quarantine record: the pure graph traversal (no float
   arithmetic), so it normally survives whatever poisoned the analysis; when
   even it fails (out-of-range site), record None.  Served from the shared
   cone cache — the quarantined site was just analyzed, so its cone is
   usually still resident. *)
let safe_cone_size circuit site =
  match Analysis.cone (Analysis.get circuit) site with
  | reach -> Some (Reach.count reach)
  | exception _ -> None

let analyze_entry ?ctx ?(tolerance = default_tolerance) ?(prior_faults = [])
    ?kernel ?reference ws site =
  let engine = Epp_engine.Workspace.engine ws in
  let circuit = Epp_engine.circuit engine in
  (* [faults] accumulates newest-first; earlier rungs' faults (the batch
     rung hands its lane fault down here) seed the list so the final
     quarantine record reads in ladder order. *)
  let faults = ref (List.rev prior_faults) in
  let fail step fault =
    faults := (step, fault) :: !faults;
    None
  in
  (* Rung 1: the fast kernel, sentinel-checked. *)
  let kernel_result =
    match
      match kernel with
      | Some f -> (f ws site, None)
      | None ->
        let r = Epp_engine.Workspace.analyze_site ws site in
        (r, Some (Epp_engine.Workspace.last_vector_defect ws))
    with
    | exception e ->
      fail Diag.Kernel (Diag.Exception { exn = Printexc.to_string e })
    | r, defect -> (
      match
        match Option.bind defect (fun d -> vector_fault ~tolerance d) with
        | Some f -> Some f
        | None -> result_fault circuit r
      with
      | Some f -> fail Diag.Kernel f
      | None -> Some r)
  in
  match kernel_result with
  | Some result -> Analyzed { result; step = Diag.Kernel }
  | None -> (
    (match !faults with
    | (step, fault) :: _ ->
      Obs.Log.emit ?ctx
        ~fields:
          [
            ("site", Obs.Json.int site);
            ("from", Obs.Json.String (Diag.step_to_string step));
            ("fault", Obs.Json.String (Diag.fault_to_string fault));
          ]
        Obs.Log.Debug "supervisor.degrade"
    | [] -> ());
    (* Rung 2: the boxed reference path, result-checked. *)
    let reference_result =
      match
        match reference with
        | Some f -> f engine site
        | None -> Epp_engine.analyze_site engine site
      with
      | exception e ->
        fail Diag.Reference (Diag.Exception { exn = Printexc.to_string e })
      | r -> (
        match result_fault circuit r with
        | Some f -> fail Diag.Reference f
        | None -> Some r)
    in
    match reference_result with
    | Some result -> Analyzed { result; step = Diag.Reference }
    | None ->
      (* Rung 3: quarantine and keep sweeping. *)
      let name =
        match Circuit.node_name circuit site with
        | name -> name
        | exception _ -> Printf.sprintf "#%d" site
      in
      let q =
        {
          Diag.site;
          name;
          cone_size = safe_cone_size circuit site;
          faults = List.rev !faults;
        }
      in
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
                       (Diag.step_to_string step ^ ": "
                      ^ Diag.fault_to_string fault))
                   q.Diag.faults) );
          ]
        Obs.Log.Warn "supervisor.quarantine";
      Quarantined q)

let stats_of_entries ?(resumed = 0) entries =
  let batch_ok = ref 0
  and kernel_ok = ref 0
  and degraded = ref 0
  and quarantined = ref 0 in
  List.iter
    (fun (_, entry) ->
      match entry with
      | Analyzed { step = Diag.Batch; _ } -> incr batch_ok
      | Analyzed { step = Diag.Kernel; _ } -> incr kernel_ok
      | Analyzed { step = Diag.Reference; _ } -> incr degraded
      | Quarantined _ -> incr quarantined)
    entries;
  {
    Diag.total = List.length entries;
    batch_ok = !batch_ok;
    kernel_ok = !kernel_ok;
    degraded = !degraded;
    quarantined = !quarantined;
    resumed;
  }

(* --- the batch rung -------------------------------------------------------

   A batched sweep analyzes whole blocks of sites on the Epp_batch engine;
   a lane that faults (or whose published result trips a sentinel) drops
   down to the per-site ladder [analyze_entry] with its batch fault carried
   along, so one bad site degrades alone instead of sinking its block.  The
   per-site kernel workspace is built lazily per domain — a healthy batched
   sweep never constructs it. *)

let can_batch engine =
  match Epp_engine.mode engine with
  | Epp_engine.Polarity -> true
  | Epp_engine.Naive -> false

type batch_ws = {
  block : Epp_batch.Block.ws;
  kernel_ws : Epp_engine.Workspace.ws Lazy.t;
      (* domain-local, so the lazy cell is single-owner *)
}

let analyze_block ?ctx ?tolerance ?kernel ?reference ?batch_run bw sites =
  let engine = Epp_batch.Block.engine bw.block in
  let circuit = Epp_engine.circuit engine in
  let degrade site fault =
    ( site,
      analyze_entry ?ctx ?tolerance ~prior_faults:[ (Diag.Batch, fault) ]
        ?kernel ?reference (Lazy.force bw.kernel_ws) site )
  in
  let real_batch, run =
    match batch_run with
    | Some f -> (false, f)
    | None -> (true, Epp_batch.Block.run)
  in
  match run bw.block sites with
  | exception e ->
    (* a whole-block failure (e.g. a bad site id) degrades every lane *)
    let fault = Diag.Exception { exn = Printexc.to_string e } in
    Array.map (fun site -> degrade site fault) sites
  | results ->
    Array.mapi
      (fun l result ->
        let site = sites.(l) in
        match result with
        | Error e ->
          degrade site (Diag.Exception { exn = Printexc.to_string e })
        | Ok r -> (
          let tolerance =
            Option.value tolerance ~default:default_tolerance
          in
          let fault =
            (* the vector-sum sentinel only runs for the real engine: a
               [batch_run] stub leaves no vectors in the planes *)
            match
              if real_batch then
                vector_fault ~tolerance
                  (Epp_batch.Block.lane_vector_defect bw.block l)
              else None
            with
            | Some f -> Some f
            | None -> result_fault circuit r
          in
          match fault with
          | Some f -> degrade site f
          | None -> (site, Analyzed { result = r; step = Diag.Batch })))
      results

let sweep ?ctx ?domains ?tolerance ?(chunk_size = 1024) ?on_chunk
    ?(batch = Auto) ?batch_run ?kernel ?reference
    ?(deadline = Obs.Deadline.never) engine sites =
  if chunk_size < 1 then invalid_arg "Supervisor.sweep: chunk_size must be >= 1";
  let m = Obs.Hooks.metrics () in
  let tracer = Obs.Hooks.tracer () in
  let c_batch_ok = Obs.Metrics.counter m "supervisor.batch_ok" in
  let c_kernel_ok = Obs.Metrics.counter m "supervisor.kernel_ok" in
  let c_degraded = Obs.Metrics.counter m "supervisor.degraded_to_reference" in
  let c_quarantined = Obs.Metrics.counter m "supervisor.quarantined" in
  let c_chunks = Obs.Metrics.counter m "supervisor.chunks" in
  Obs.Trace.span tracer ~cat:"supervisor" ~args:(Obs.Ctx.args_of ctx)
    "supervisor.sweep"
  @@ fun () ->
  let arr = Array.of_list sites in
  let n = Array.length arr in
  let use_batch =
    match batch with
    | Never -> false
    | Always -> can_batch engine
    | Auto -> can_batch engine && Epp_batch.should_batch engine ~sites:n
  in
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
        if use_batch then begin
          (* blocks per domain: each work item is a whole block, so a domain
             claims union-cone walks, not per-site crumbs *)
          let lanes = Epp_batch.max_lanes in
          let nblocks = (len + lanes - 1) / lanes in
          let blocks =
            Array.init nblocks (fun i ->
                let off = i * lanes in
                Array.sub chunk off (min lanes (len - off)))
          in
          Parallel.map_array_until ?ctx ?domains ~deadline
            ~workspace:(fun () ->
              {
                block = Epp_batch.Block.create ?ctx engine;
                kernel_ws = lazy (Epp_engine.Workspace.create engine);
              })
            ~release:(fun bw -> Epp_batch.Block.release bw.block)
            ~f:(fun bw block ->
              analyze_block ?ctx ?tolerance ?kernel ?reference ?batch_run bw
                block)
            blocks
          |> Array.to_list
          |> List.concat_map (function
               | Some block_entries -> Array.to_list block_entries
               | None -> [])
        end
        else
          Parallel.map_array_until ?ctx ?domains ~deadline
            ~workspace:(fun () -> Epp_engine.Workspace.create engine)
            ~f:(fun ws site ->
              (site, analyze_entry ?ctx ?tolerance ?kernel ?reference ws site))
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
          | Analyzed { step = Diag.Kernel; _ } -> Obs.Metrics.incr c_kernel_ok
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

let sweep_all ?ctx ?domains ?tolerance ?chunk_size ?on_chunk ?batch ?batch_run
    ?kernel ?reference ?deadline engine =
  let n = Circuit.node_count (Epp_engine.circuit engine) in
  sweep ?ctx ?domains ?tolerance ?chunk_size ?on_chunk ?batch ?batch_run
    ?kernel ?reference ?deadline engine
    (List.init n Fun.id)

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
