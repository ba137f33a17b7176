(* The degradation ladder: batch -> reference -> quarantine.

   A sweep runs whole blocks of sites on the Epp_batch engine.  A lane that
   fails — an exception out of the engine, NaN components, a four-state sum
   that drifted beyond tolerance, a probability outside [0, 1] — becomes a
   typed Diag.fault and that site alone is retried on the boxed reference,
   result-checked; a site that fails there too is quarantined, and the
   sweep continues.  The per-site wrapper [reference_entry] never raises,
   which is what makes the parallel fan-out safe: a worker domain can
   always finish its claim.

   The sentinels are deliberately layered: the batch rung checks the raw
   four-state vectors (Block.lane_vector_defect) *and* the published
   result; the reference rung re-checks the result only (the boxed path
   validates its vectors internally via Prob4).  A defect that only a
   sentinel sees — e.g. an sp value mutated to something that still feeds
   finite arithmetic — degrades exactly like a crash does.

   A whole-circuit sweep may start from entries its caller already holds
   (a replayed checkpoint, the clean sites of an edit).  It sweeps only the
   other sites and does the merge itself, so input order, [stats.resumed],
   [on_chunk]'s coverage and a deadline's analyzed/remaining count the held
   entries the same way for every caller. *)

open Netlist

type entry =
  | Analyzed of { row : Site_row.t; step : Diag.step }
  | Quarantined of Diag.quarantine

type outcome = {
  entries : (int * entry) list;
  stats : Diag.stats;
  completion : Diag.completion;
}

(* Matches Prob4.normalize's drift bound: anything larger is a rule bug or a
   poisoned input, not rounding dust. *)
let tolerance = 1e-6

(* NaN fails both comparisons, so it counts as out of range too. *)
let out_of_unit value = not (value >= 0.0 && value <= 1.0)

let fault_at where value =
  if Float.is_nan value then Diag.Nan { where }
  else Diag.Out_of_range { where; value }

(* First NaN / out-of-range component of a published row, if any.  The
   values are tested before any location string is built, so a clean
   row — nearly every one — allocates nothing here. *)
let row_fault engine (r : Site_row.t) =
  if out_of_unit r.Site_row.p_sensitized then
    Some (fault_at "p_sensitized" r.Site_row.p_sensitized)
  else begin
    let ps = r.Site_row.probabilities in
    let i = ref 0 in
    while !i < Array.length ps && ps.(!i) >= 0.0 && ps.(!i) <= 1.0 do
      incr i
    done;
    if !i = Array.length ps then None
    else
      let circuit = Epp_engine.circuit engine in
      let obs, _ =
        (Analysis.observations (Epp_engine.analysis engine)).(r.Site_row.positions.(!i))
      in
      Some (fault_at ("P(" ^ Circuit.observation_name circuit obs ^ ")") ps.(!i))
  end

let vector_fault defect =
  if Float.is_nan defect then Some (Diag.Nan { where = "four-state vector" })
  else if defect > tolerance then
    Some (Diag.Sum_defect { defect; tolerance })
  else None

let exception_fault e = Diag.Exception { exn = Printexc.to_string e }

(* Cone size for the quarantine record: the pure graph search (no float
   arithmetic), so it normally survives whatever poisoned the analysis; when
   even it fails (out-of-range site), record None.  One search, which costs
   the cone, not the circuit. *)
let safe_cone_size circuit site =
  match Analysis.cone (Analysis.get circuit) site with
  | members -> Some (Array.length members)
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
   raises.  The reference's result becomes a row, so an observation the
   circuit does not have is a fault like an exception.  [batch_fault] is
   what sent the site down from the batch rung (logged as
   [supervisor.degrade]); it heads the quarantine record so the faults
   read in ladder order. *)
let reference_entry ?ctx ?reference ~batch_fault engine site =
  let circuit = Epp_engine.circuit engine in
  Obs.Log.emit ?ctx
    ~fields:
      [
        ("site", Obs.Json.int site);
        ("from", Obs.Json.String (Diag.step_to_string Diag.Batch));
        ("fault", Obs.Json.String (Diag.fault_to_string batch_fault));
      ]
    Obs.Log.Debug "supervisor.degrade";
  let analyzed =
    match
      match reference with
      | Some f -> f engine site
      | None -> Epp_engine.analyze_site engine site
    with
    | exception e -> Error (exception_fault e)
    | r -> (
      match
        Site_row.of_site_result (Analysis.observations (Epp_engine.analysis engine)) r
      with
      | exception e -> Error (exception_fault e)
      | row -> (
        match row_fault engine row with Some f -> Error f | None -> Ok row))
  in
  match analyzed with
  | Ok row -> Analyzed { row; step = Diag.Reference }
  | Error fault ->
    quarantine ?ctx circuit site
      [ (Diag.Batch, batch_fault); (Diag.Reference, fault) ]

(* One block on the batch rung.  A lane that faults, or whose vectors or
   published result trip a sentinel, drops to [reference_entry] alone with
   its batch fault; a whole-block failure (e.g. a bad site id) drops every
   lane.  The vector-sum sentinel only runs for the real engine: a
   [batch_run] stub leaves no vectors in the planes. *)
let analyze_block ?ctx ?reference ?batch_run block sites =
  let engine = Epp_batch.Block.engine block in
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
                vector_fault (Epp_batch.Block.lane_vector_defect block l)
              else None
            with
            | Some f -> Some f
            | None -> row_fault engine r
          in
          match fault with
          | Some f -> degrade site f
          | None -> (site, Analyzed { row = r; step = Diag.Batch })))
      results

let stats_of_entries ~resumed entries =
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

(* The one sweep behind [sweep] and [sweep_all].  Input position [i] is site
   [sites.(i)]; [held.(i)] is its entry when the caller already holds one.
   Every other position is swept in input order, [chunk_size] sites at a
   time, and its entry lands in [held], so [held] is always the merge of
   the caller's entries and the finished ones. *)
let drive ?ctx ?domains ?(chunk_size = 16 * Epp_batch.max_lanes) ?on_chunk
    ?batch_run ?reference ?(deadline = Obs.Deadline.never) engine sites held =
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
  let total = Array.length held in
  (* the first [ntodo] slots: the positions to sweep, in input order *)
  let todo = Array.make total 0 and ntodo = ref 0 in
  Array.iteri
    (fun i h ->
      if Option.is_none h then begin
        todo.(!ntodo) <- i;
        incr ntodo
      end)
    held;
  let resumed = total - !ntodo in
  let analyzed = ref resumed in
  let pos = ref 0 in
  let expired = ref false in
  (* The deadline is checked at the two dispatch boundaries the sweep owns:
     before starting a chunk (here), and — via [map_array_until] — before
     each task claim inside one.  Either way, entries already finished are
     kept; the sweep never tears a site mid-analysis and never raises on
     expiry. *)
  while !pos < !ntodo && not !expired do
    if Obs.Deadline.expired deadline then expired := true
    else begin
      let start = !pos in
      let len = min chunk_size (!ntodo - start) in
      (* blocks per domain: each work item is a whole block, so a domain
         claims union-cone walks, not per-site crumbs *)
      let blocks =
        Obs.Trace.span tracer ~cat:"supervisor" ~args:(Obs.Ctx.args_of ctx)
          "supervisor.chunk"
        @@ fun () ->
        Parallel.map_array_until ?ctx ?domains ~deadline
          ~workspace:(fun () -> Epp_batch.Block.create ?ctx engine)
          ~release:Epp_batch.Block.release
          ~f:(analyze_block ?ctx ?reference ?batch_run)
          (Epp_batch.blocks
             (Array.init len (fun k -> sites.(todo.(start + k)))))
      in
      (* Ladder-step accounting happens here, on the calling domain, instead
         of inside the per-site wrapper: one scan per chunk versus a registry
         lookup per site. *)
      Obs.Metrics.incr c_chunks;
      let completed = ref 0 and fresh = ref [] in
      Array.iteri
        (fun b block ->
          Option.iter
            (Array.iteri (fun l ((_, entry) as e) ->
                 held.(todo.(start + (b * Epp_batch.max_lanes) + l)) <- Some e;
                 if Option.is_some on_chunk then fresh := e :: !fresh;
                 incr completed;
                 Obs.Metrics.incr
                   (match entry with
                   | Analyzed { step = Diag.Batch; _ } -> c_batch_ok
                   | Analyzed { step = Diag.Reference; _ } -> c_degraded
                   | Quarantined _ -> c_quarantined)))
            block)
        blocks;
      if !completed < len then expired := true;
      analyzed := !analyzed + !completed;
      pos := start + len;
      (* only the chunk's own entries, in input order *)
      Option.iter (fun f -> f ~done_count:!analyzed ~total (List.rev !fresh)) on_chunk
    end
  done;
  let entries =
    Array.fold_right
      (fun e acc -> match e with Some e -> e :: acc | None -> acc)
      held []
  in
  let completion =
    if !expired then begin
      Obs.Metrics.incr (Obs.Metrics.counter m "supervisor.deadline_expired");
      let budget_seconds = Obs.Deadline.budget_seconds deadline in
      Obs.Log.emit ?ctx
        ~fields:
          [
            ("analyzed", Obs.Json.int !analyzed);
            ("remaining", Obs.Json.int (total - !analyzed));
            ("budget_seconds", Obs.Json.Number budget_seconds);
          ]
        Obs.Log.Warn "supervisor.deadline_expired";
      Diag.Deadline_expired
        { analyzed = !analyzed; remaining = total - !analyzed; budget_seconds }
    end
    else Diag.Complete
  in
  { entries; stats = stats_of_entries ~resumed entries; completion }

let sweep ?ctx ?domains ?chunk_size ?on_chunk ?batch_run ?reference ?deadline
    engine sites =
  let sites = Array.of_list sites in
  drive ?ctx ?domains ?chunk_size ?on_chunk ?batch_run ?reference ?deadline
    engine sites
    (Array.make (Array.length sites) None)

let sweep_all ?ctx ?domains ?chunk_size ?on_chunk ?batch_run ?reference
    ?deadline ?(prior = []) engine =
  let n = Circuit.node_count (Epp_engine.circuit engine) in
  let held = Array.make n None in
  List.iter
    (fun ((site, _) as e) ->
      if site < 0 || site >= n then
        invalid_arg
          (Printf.sprintf "Supervisor.sweep_all: prior entry for site %d of %d"
             site n);
      held.(site) <- Some e)
    prior;
  drive ?ctx ?domains ?chunk_size ?on_chunk ?batch_run ?reference ?deadline
    engine (Array.init n Fun.id) held

let quarantines outcome =
  List.filter_map
    (fun (_, entry) ->
      match entry with
      | Quarantined q -> Some q
      | Analyzed _ -> None)
    outcome.entries
