(* Multicore site analysis (OCaml 5 domains).

   An engine is immutable once created, so the per-site loop is
   embarrassingly parallel — but cone sizes vary by orders of magnitude
   across a netlist, so the old static contiguous chunking left domains
   idle behind whichever chunk drew the deep cones.  Work items are instead
   claimed one at a time from a shared Atomic counter (work stealing by
   index); each domain owns one workspace, so the whole sweep allocates
   per-domain scratch once and per-item results only.  Results land in a
   shared array at their input index, so output order is the input order
   regardless of which domain analyzed what.

   Exception safety: spawned helper domains are always joined — the calling
   domain participates as a worker under [Fun.protect], and workers never
   let an exception escape their domain.  A failing item records its
   exception in a shared slot (lowest input index wins, so the propagated
   exception is deterministic regardless of domain scheduling); the
   remaining workers stop claiming new items, every started item still
   finishes, and the recorded exception is re-raised with its backtrace
   after all domains are joined.

   This is a wall-clock optimization only: SysT in the Table-2 sense is
   single-threaded by definition (and the paper's machine was), so the
   experiment driver does not use this module. *)

let default_domains () = max 1 (Domain.recommended_domain_count () - 1)

(* [shorter_than l n] walks at most [n] cons cells — the small-batch check
   must not pay O(length sites) just to learn the batch is large. *)
let rec shorter_than l n =
  n > 0
  &&
  match l with
  | [] -> true
  | _ :: tl -> shorter_than tl (n - 1)

let resolve_domains ~who = function
  | Some d ->
    if d < 1 then invalid_arg (who ^ ": domains must be >= 1");
    d
  | None -> default_domains ()

(* Record (index, exn, backtrace) keeping the lowest index.  Indexes are
   claimed in increasing order from the shared counter and every claimed item
   runs to completion (success or record), so after the join the slot holds
   the exception of the lowest failing input index — deterministically. *)
let record_failure failure i exn bt =
  let rec loop () =
    let cur = Atomic.get failure in
    match cur with
    | Some (j, _, _) when j <= i -> ()
    | _ -> if not (Atomic.compare_and_set failure cur (Some (i, exn, bt))) then loop ()
  in
  loop ()

(* Telemetry handles for one map_array call.  [tasks] counts every executed
   item (including the sequential small-batch path — the CLI acceptance
   check reads it on tiny embedded circuits); [stolen] counts items executed
   by spawned helper domains, i.e. work that migrated off the calling
   domain.  Worker wall/busy times only get sampled when a live metrics
   sink is installed. *)
type instruments = {
  timed : bool;
  tasks : Obs.Metrics.counter;  (* parallel.tasks_executed *)
  stolen : Obs.Metrics.counter;  (* parallel.tasks_stolen *)
  batches : Obs.Metrics.counter;  (* parallel.batches *)
  spawned : Obs.Metrics.counter;  (* parallel.workers_spawned *)
  idle : Obs.Metrics.histogram;  (* parallel.worker_idle_seconds *)
  busy : Obs.Metrics.histogram;  (* parallel.worker_busy_seconds *)
}

let instruments () =
  let m = Obs.Hooks.metrics () in
  {
    timed = not (Obs.Metrics.is_null m);
    tasks = Obs.Metrics.counter m "parallel.tasks_executed";
    stolen = Obs.Metrics.counter m "parallel.tasks_stolen";
    batches = Obs.Metrics.counter m "parallel.batches";
    spawned = Obs.Metrics.counter m "parallel.workers_spawned";
    idle = Obs.Metrics.histogram m "parallel.worker_idle_seconds";
    busy = Obs.Metrics.histogram m "parallel.worker_busy_seconds";
  }

(* The shared work-stealing core.  [deadline] is checked at task dispatch:
   a worker that finds the budget expired stops claiming — every item
   already claimed still runs to completion, so the option array holds
   exactly the finished prefix of claims and [None] for items never
   started.  With [Obs.Deadline.never] every index is handed out and every
   slot is [Some]. *)
let run_stealing ?ctx ~domains ~deadline ~workspace ~release ~f items =
  let n = Array.length items in
  let m = instruments () in
  Obs.Metrics.incr m.batches;
  if n = 0 then [||]
  else if domains = 1 || n < 2 * domains then begin
    let ws = workspace () in
    Fun.protect ~finally:(fun () -> release ws) @@ fun () ->
    let results = Array.make n None in
    let executed = ref 0 in
    (try
       for i = 0 to n - 1 do
         if Obs.Deadline.expired deadline then raise Exit;
         results.(i) <- Some (f ws items.(i));
         incr executed
       done
     with Exit -> ());
    Obs.Metrics.add m.tasks !executed;
    results
  end
  else begin
    let tracer = Obs.Hooks.tracer () in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let worker ~helper () =
      (* The ctx args on the worker span are what let a request's spans
         from every domain join into one tree in the trace viewer. *)
      Obs.Trace.span tracer ~cat:"parallel" ~args:(Obs.Ctx.args_of ctx)
        "parallel.worker"
      @@ fun () ->
      let started = if m.timed then Obs.Clock.wall_seconds () else 0.0 in
      let busy = ref 0.0 in
      let executed = ref 0 in
      let ws = workspace () in
      Fun.protect ~finally:(fun () -> release ws) @@ fun () ->
      let continue = ref true in
      while !continue do
        if Obs.Deadline.expired deadline then continue := false
        else begin
          let i = Atomic.fetch_and_add next 1 in
          if i >= n || Atomic.get failure <> None then continue := false
          else begin
            let item_t0 = if m.timed then Obs.Clock.wall_seconds () else 0.0 in
            (match f ws items.(i) with
            | r -> results.(i) <- Some r
            | exception e ->
              record_failure failure i e (Printexc.get_raw_backtrace ()));
            if m.timed then
              busy := !busy +. (Obs.Clock.wall_seconds () -. item_t0);
            incr executed
          end
        end
      done;
      Obs.Metrics.add m.tasks !executed;
      if helper then Obs.Metrics.add m.stolen !executed;
      if m.timed then begin
        let elapsed = Obs.Clock.wall_seconds () -. started in
        Obs.Metrics.observe m.busy !busy;
        Obs.Metrics.observe m.idle (Float.max 0.0 (elapsed -. !busy))
      end
    in
    let helpers =
      List.init (domains - 1) (fun _ -> Domain.spawn (worker ~helper:true))
    in
    Obs.Metrics.add m.spawned (domains - 1);
    (* The calling domain participates instead of blocking in join; the
       [protect] guarantees the joins even if this worker's own [workspace]
       call raises. *)
    Fun.protect
      ~finally:(fun () -> List.iter Domain.join helpers)
      (worker ~helper:false);
    match Atomic.get failure with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> results
  end

let map_array ?ctx ?domains ?(release = ignore) ~workspace ~f items =
  let domains = resolve_domains ~who:"Parallel.map_array" domains in
  run_stealing ?ctx ~domains ~deadline:Obs.Deadline.never ~workspace ~release ~f
    items
  |> Array.map (function
       | Some r -> r
       | None -> assert false (* no deadline: counter handed out every index *))

let map_array_until ?ctx ?domains ?(deadline = Obs.Deadline.never)
    ?(release = ignore) ~workspace ~f items =
  let domains = resolve_domains ~who:"Parallel.map_array_until" domains in
  run_stealing ?ctx ~domains ~deadline ~workspace ~release ~f items

let analyze_sites ?domains engine sites =
  let domains = resolve_domains ~who:"Parallel.analyze_sites" domains in
  match sites with
  | [] -> []
  | _ :: _ when domains = 1 || shorter_than sites (2 * domains) ->
    Epp_engine.analyze_sites engine sites
  | _ :: _ ->
    map_array ~domains
      ~workspace:(fun () -> Epp_engine.Workspace.create engine)
      ~f:Epp_engine.Workspace.analyze_site (Array.of_list sites)
    |> Array.to_list

(* Array-native per-site sweep: the whole-circuit driver used to build a
   [List.init n] just to turn it back into an array here — on a
   million-node netlist that is a million cons cells on the hot path for
   nothing.  The array goes straight to the work-stealing loop. *)
let analyze_site_array ?domains engine sites =
  let domains = resolve_domains ~who:"Parallel.analyze_site_array" domains in
  let n = Array.length sites in
  if n = 0 then [||]
  else if domains = 1 || n < 2 * domains then begin
    let ws = Epp_engine.Workspace.create engine in
    Array.map (Epp_engine.Workspace.analyze_site ws) sites
  end
  else
    map_array ~domains
      ~workspace:(fun () -> Epp_engine.Workspace.create engine)
      ~f:Epp_engine.Workspace.analyze_site sites

(* Batched sweep: each work item is a whole block (one walk over the union
   cone of up to [lanes] sites), so the small-batch spawn decision counts
   *blocks*, not sites — the per-site threshold would spawn domains for
   sweeps the block engine finishes in a handful of passes. *)
let analyze_sites_batched ?domains ?lanes engine sites =
  let domains = resolve_domains ~who:"Parallel.analyze_sites_batched" domains in
  let lanes =
    match lanes with
    | None -> Epp_batch.max_lanes
    | Some l ->
      if l < 1 || l > Epp_batch.max_lanes then
        invalid_arg
          (Printf.sprintf
             "Parallel.analyze_sites_batched: lanes must be in [1, %d]"
             Epp_batch.max_lanes);
      l
  in
  let total = Array.length sites in
  if total = 0 then [||]
  else begin
    let nblocks = (total + lanes - 1) / lanes in
    if domains = 1 || nblocks < 2 * domains then
      Epp_batch.analyze_site_array ~lanes engine sites
    else begin
      let blocks =
        Array.init nblocks (fun i ->
            let off = i * lanes in
            Array.sub sites off (min lanes (total - off)))
      in
      let per_block =
        map_array ~domains
          ~workspace:(fun () -> Epp_batch.Block.create ~lanes engine)
          ~release:Epp_batch.Block.release ~f:Epp_batch.Block.run blocks
      in
      (* The earliest failing site's exception propagates, matching the
         sequential drivers: blocks and lanes are scanned in input order. *)
      let out = Array.make total None in
      Array.iteri
        (fun bi results ->
          Array.iteri
            (fun l r ->
              match r with
              | Ok r -> out.((bi * lanes) + l) <- Some r
              | Error e -> raise e)
            results)
        per_block;
      Array.map
        (function Some r -> r | None -> assert false (* every lane filled *))
        out
    end
  end

let analyze_all ?domains engine =
  let n = Netlist.Circuit.node_count (Epp_engine.circuit engine) in
  Array.to_list (analyze_site_array ?domains engine (Array.init n Fun.id))
