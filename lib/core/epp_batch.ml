(* Level-synchronous batched EPP sweep.

   The per-site kernel (Epp_engine.Workspace) is cone-local: per site it
   DFS-extracts the forward cone, sorts it, and walks it.  On cone-local
   circuits (parity trees) that is a huge win, but on dense DAGs — where
   every site's cone is most of the circuit — the extraction itself is the
   cost, and a whole-circuit sweep degenerates to O(sites · E).

   This engine inverts the loop: it propagates the four-state vectors for a
   *block* of up to {!max_lanes} sites simultaneously, in one level-order
   pass over the shared forward CSR.

   - The vectors live in four flat float planes, node-major with a lane
     stride: [plane.(node * stride + lane)].  Node-major keeps one gate's
     whole block contiguous, so the lane loops in {!Rules.Lanes} run over
     adjacent unboxed floats.
   - A per-node bitmask ([mask.(v)] bit [l] set iff node [v] is in lane
     [l]'s forward cone) replaces the per-site cone: one O(V + E) forward
     pass seeds and propagates all lanes' cones at once, and a gate whose
     evaluation mask is zero costs one branch for the whole block.
   - Gates are scheduled by ASAP level ({!Netlist.Analysis.level_gates}),
     each level a straight array walk — no per-site DFS, no per-site sort.
   - Lane compaction: {!Rules.Lanes} compacts the live lanes of each gate
     into a dense index list before its inner loops, so blocks that drain
     unevenly (faulted lanes, disjoint cones) don't pay for dead lanes.

   Per lane, the arithmetic is the {!Rules.Lanes} mirror of the per-site
   kernel — results are bit-identical to [Workspace.analyze_site], which
   stays on as the conformance oracle.  A lane whose site would make the
   per-site kernel raise faults individually ([Error] in the block result);
   the rest of the block completes. *)

open Netlist

let max_lanes = 62
(* One OCaml int per node holds the block's cone membership; 63-bit ints
   leave 62 usable lanes with the sign bit untouched. *)

let popcount x =
  let c = ref 0 in
  let m = ref x in
  while !m <> 0 do
    incr c;
    m := !m land (!m - 1)
  done;
  !c

type engine = Epp_engine.t

(* --- plane buffers ---------------------------------------------------------

   A workspace's four node-major planes are its one O(n · lanes) cost: 11 MB
   on a 5.6k-node design, 17 MB on s13207.  The sweep drivers hand a
   workspace's planes back when the sweep ends (Block.release), and the
   next workspace borrows them instead of allocating and zero-filling new
   ones.  The engine never reads a plane slot it did not write in the same
   block — a lane's site is seeded and every gate on its cone is evaluated
   before any read — so a borrowed buffer's stale contents are never
   observed: the property that already lets one workspace run block after
   block on the same planes.

   A borrow takes the smallest spare that is large enough.  When none is, it
   drops the largest spare and allocates, so spares plus borrowed buffers
   never outnumber the workspaces that were ever live at once.  New buffers
   get 1/16 headroom, so a circuit that grows by a few gates per edit keeps
   reusing its buffer. *)

type planes = {
  pa : float array;
  pa_bar : float array;
  p1 : float array;
  p0 : float array;
}

let capacity p = Array.length p.pa
let pool_lock = Mutex.create ()
let spares : planes list ref = ref []

let borrow_planes size =
  let by_capacity a b = compare (capacity a) (capacity b) in
  let reused =
    Mutex.protect pool_lock @@ fun () ->
    let fits, small = List.partition (fun p -> capacity p >= size) !spares in
    match List.sort by_capacity fits with
    | best :: rest ->
      spares := rest @ small;
      Some best
    | [] ->
      (* the new buffer replaces the largest spare *)
      (match List.rev (List.sort by_capacity small) with
      | _ :: rest -> spares := rest
      | [] -> ());
      None
  in
  match reused with
  | Some p -> p
  | None ->
    Obs.Metrics.incr
      (Obs.Metrics.counter (Obs.Hooks.metrics ()) "epp.batch.plane_allocations");
    let cap = size + (size / 16) in
    {
      pa = Array.make cap 0.0;
      pa_bar = Array.make cap 0.0;
      p1 = Array.make cap 0.0;
      p0 = Array.make cap 0.0;
    }

let return_planes p = Mutex.protect pool_lock (fun () -> spares := p :: !spares)
let spare_planes () = Mutex.protect pool_lock (fun () -> List.length !spares)
let drop_spare_planes () = Mutex.protect pool_lock (fun () -> spares := [])

module Block = struct
  type instruments = {
    timed : bool;
    blocks : Obs.Metrics.counter;  (* epp.batch.blocks *)
    sites : Obs.Metrics.counter;  (* epp.batch.sites *)
    lane_faults : Obs.Metrics.counter;  (* epp.batch.lane_faults *)
    nodes_skipped : Obs.Metrics.counter;  (* epp.batch.nodes_skipped *)
    lane_evals : Obs.Metrics.counter;  (* epp.batch.gate_lane_evals *)
    lanes_hist : Obs.Metrics.histogram;  (* epp.batch.lanes_filled *)
    width_hist : Obs.Metrics.histogram;  (* epp.batch.level_width *)
    t_mask : Obs.Metrics.histogram;  (* epp.batch.phase.mask_seconds *)
    t_propagate : Obs.Metrics.histogram;  (* epp.batch.phase.propagate_seconds *)
    t_collect : Obs.Metrics.histogram;  (* epp.batch.phase.collect_seconds *)
  }

  let instruments () =
    let m = Obs.Hooks.metrics () in
    {
      timed = not (Obs.Metrics.is_null m);
      blocks = Obs.Metrics.counter m "epp.batch.blocks";
      sites = Obs.Metrics.counter m "epp.batch.sites";
      lane_faults = Obs.Metrics.counter m "epp.batch.lane_faults";
      nodes_skipped = Obs.Metrics.counter m "epp.batch.nodes_skipped";
      lane_evals = Obs.Metrics.counter m "epp.batch.gate_lane_evals";
      lanes_hist =
        Obs.Metrics.histogram ~buckets:Obs.Metrics.size_buckets m
          "epp.batch.lanes_filled";
      width_hist =
        Obs.Metrics.histogram ~buckets:Obs.Metrics.size_buckets m
          "epp.batch.level_width";
      t_mask = Obs.Metrics.histogram m "epp.batch.phase.mask_seconds";
      t_propagate = Obs.Metrics.histogram m "epp.batch.phase.propagate_seconds";
      t_collect = Obs.Metrics.histogram m "epp.batch.phase.collect_seconds";
    }

  type ws = {
    engine : engine;
    n : int;  (* node count *)
    stride : int;  (* lane capacity of this block workspace *)
    order : int array;  (* shared topological order (mask pass schedule) *)
    offsets : int array;  (* forward CSR *)
    targets : int array;
    level_gates : int array array;  (* shared level buckets (gate schedule) *)
    kinds : Gate.kind array;  (* per-gate kind, prefetched once *)
    fanin_arrays : int array array;  (* per-gate fanins, shared instances *)
    sp : float array;  (* signal probabilities, shared instance *)
    observations : (Circuit.observation * int) array;
    mask : int array;  (* mask.(v) bit l  <=>  v in lane l's cone *)
    seed : int array;  (* seed.(v) bit l  <=>  v is lane l's site *)
    cone_count : int array;  (* per-lane cone sizes of the current block *)
    faults : exn option array;  (* per-lane first fault of the current block *)
    mutable planes : planes option;
        (* node-major lane-stride planes, plane.(v * stride + l); borrowed
           at creation, [None] once handed back *)
    scratch : Rules.Lanes.scratch;
    obs_i : instruments;
    tracer : Obs.Trace.t;
    req_ctx : Obs.Ctx.t option;  (* correlation context for block spans *)
  }

  let engine b = b.engine
  let lanes b = b.stride

  let planes b =
    match b.planes with
    | Some p -> p
    | None -> invalid_arg "Epp_batch.Block: workspace used after release"

  let release b =
    match b.planes with
    | Some p ->
      b.planes <- None;
      return_planes p
    | None -> ()

  let create ?ctx:req_ctx ?(lanes = max_lanes) engine =
    (match Epp_engine.mode engine with
    | Epp_engine.Polarity -> ()
    | Epp_engine.Naive ->
      invalid_arg "Epp_batch.Block.create: polarity mode only");
    if lanes < 1 || lanes > max_lanes then
      invalid_arg
        (Printf.sprintf "Epp_batch.Block.create: lanes must be in [1, %d]"
           max_lanes);
    let circuit = Epp_engine.circuit engine in
    let ctx = Epp_engine.analysis engine in
    let n = Circuit.node_count circuit in
    let csr = Analysis.csr ctx in
    (* Prefetch gate metadata once: the level loop then never touches the
       boxed node representation. *)
    let kinds = Array.make n Gate.Buf in
    let fanin_arrays = Array.make n [||] in
    Array.iter
      (fun g ->
        match Circuit.node circuit g with
        | Circuit.Gate { kind; fanins } ->
          kinds.(g) <- kind;
          fanin_arrays.(g) <- fanins
        | Circuit.Input | Circuit.Ff _ -> assert false)
      (Analysis.gate_order ctx);
    {
      engine;
      n;
      stride = lanes;
      order = Analysis.order ctx;
      offsets = Csr.offsets csr;
      targets = Csr.targets csr;
      level_gates = Analysis.level_gates ctx;
      kinds;
      fanin_arrays;
      sp = (Epp_engine.signal_probabilities engine).Sigprob.Sp.values;
      observations = Analysis.observations ctx;
      mask = Array.make n 0;
      seed = Array.make n 0;
      cone_count = Array.make lanes 0;
      faults = Array.make lanes None;
      planes = Some (borrow_planes (n * lanes));
      scratch = Rules.Lanes.create ~lanes;
      obs_i = instruments ();
      tracer = Obs.Hooks.tracer ();
      req_ctx;
    }

  (* Seed the block's sites and run the one forward cone pass: in
     topological order, every node ORs its lane set into its successors.
     After the pass [mask.(v)] holds exactly the lanes whose site reaches
     [v] — the union of all per-site DFS cones, computed in O(V + E) for
     the whole block.  Per-lane cone sizes fall out of the same walk. *)
  let build_masks b { pa; pa_bar; p1; p0 } sites =
    let n = b.n in
    Array.fill b.mask 0 n 0;
    Array.fill b.seed 0 n 0;
    let k = Array.length sites in
    Array.fill b.cone_count 0 b.stride 0;
    Array.fill b.faults 0 b.stride None;
    let stride = b.stride in
    for l = 0 to k - 1 do
      let s = sites.(l) in
      let bit = 1 lsl l in
      b.mask.(s) <- b.mask.(s) lor bit;
      b.seed.(s) <- b.seed.(s) lor bit;
      (* the injected error: a certain error, even polarity *)
      let idx = (s * stride) + l in
      pa.(idx) <- 1.0;
      pa_bar.(idx) <- 0.0;
      p1.(idx) <- 0.0;
      p0.(idx) <- 0.0
    done;
    let order = b.order and mask = b.mask in
    let offsets = b.offsets and targets = b.targets in
    let cone_count = b.cone_count in
    for i = 0 to n - 1 do
      let v = Array.unsafe_get order i in
      let mv = Array.unsafe_get mask v in
      if mv <> 0 then begin
        for j = Array.unsafe_get offsets v to Array.unsafe_get offsets (v + 1) - 1 do
          let t = Array.unsafe_get targets j in
          Array.unsafe_set mask t (Array.unsafe_get mask t lor mv)
        done;
        if mv land (mv + 1) = 0 then begin
          (* contiguous lane set (the dense common case): count without
             the per-bit ntz walk *)
          let l = ref 0 in
          let m = ref mv in
          while !m <> 0 do
            Array.unsafe_set cone_count !l (Array.unsafe_get cone_count !l + 1);
            incr l;
            m := !m lsr 1
          done
        end
        else begin
          let m = ref mv in
          while !m <> 0 do
            let l = Rules.Lanes.ntz !m in
            Array.unsafe_set cone_count l (Array.unsafe_get cone_count l + 1);
            m := !m land (!m - 1)
          done
        end
      end
    done

  (* Per-lane result assembly, mirroring the per-site kernel's [collect] +
     result construction: observation order, P = Pa + Pā at the observed
     net, P_sensitized = clamp(1 - Π(1 - P)) with the same left fold. *)
  let collect_lane b { pa; pa_bar; _ } l site =
    let stride = b.stride in
    let obs = b.observations in
    let bit = 1 lsl l in
    let acc = ref [] in
    for i = Array.length obs - 1 downto 0 do
      let o, net = obs.(i) in
      if b.mask.(net) land bit <> 0 then begin
        let idx = (net * stride) + l in
        let p = pa.(idx) +. pa_bar.(idx) in
        acc := (o, p) :: !acc
      end
    done;
    let per_observation = !acc in
    let p_sensitized =
      Sigprob.Sp_rules.clamp
        (1.0
        -. List.fold_left
             (fun acc (_, p) -> acc *. (1.0 -. p))
             1.0 per_observation)
    in
    {
      Epp_engine.site;
      p_sensitized;
      per_observation;
      cone_size = b.cone_count.(l);
      reached_outputs = List.length per_observation;
    }

  let run b sites =
    let k = Array.length sites in
    if k > b.stride then
      invalid_arg
        (Printf.sprintf "Epp_batch.Block.run: %d sites exceed block capacity %d"
           k b.stride);
    Array.iter
      (fun s ->
        if s < 0 || s >= b.n then invalid_arg "Epp_batch.Block.run: bad site")
      sites;
    if k = 0 then [||]
    else
      Obs.Trace.span b.tracer ~cat:"epp" ~args:(Obs.Ctx.args_of b.req_ctx)
        "epp.batch.block"
      @@ fun () ->
      let m = b.obs_i in
      let timed = m.timed in
      let t0 = if timed then Obs.Clock.wall_seconds () else 0.0 in
      let planes = planes b in
      build_masks b planes sites;
      let t1 = if timed then Obs.Clock.wall_seconds () else 0.0 in
      let full = (1 lsl k) - 1 in
      let alive = ref full in
      let skipped = ref 0 in
      let evals = ref 0 in
      let sp = b.sp
      and mask = b.mask
      and seed = b.seed
      and stride = b.stride in
      let { pa; pa_bar; p1; p0 } = planes in
      let nlevels = Array.length b.level_gates in
      let lv = ref 0 in
      while !lv < nlevels && !alive <> 0 do
        let bucket = Array.unsafe_get b.level_gates !lv in
        let width = ref 0 in
        for i = 0 to Array.length bucket - 1 do
          let g = Array.unsafe_get bucket i in
          let em =
            Array.unsafe_get mask g land !alive
            land lnot (Array.unsafe_get seed g)
          in
          if em = 0 then incr skipped
          else begin
            incr width;
            let fm =
              Rules.Lanes.propagate b.scratch
                (Array.unsafe_get b.kinds g)
                ~fanins:(Array.unsafe_get b.fanin_arrays g)
                ~mask ~sp ~em ~stride ~pa ~pa_bar ~p1 ~p0 g
            in
            evals := !evals + Rules.Lanes.last_live b.scratch;
            if fm <> 0 then begin
              List.iter
                (fun (l, e) ->
                  if b.faults.(l) = None then b.faults.(l) <- Some e)
                (Rules.Lanes.faults b.scratch);
              alive := !alive land lnot fm;
              Obs.Metrics.add m.lane_faults (popcount fm)
            end
          end
        done;
        Obs.Metrics.observe m.width_hist (float_of_int !width);
        incr lv
      done;
      let t2 = if timed then Obs.Clock.wall_seconds () else 0.0 in
      let results =
        Array.init k (fun l ->
            match b.faults.(l) with
            | Some e -> Error e
            | None -> Ok (collect_lane b planes l sites.(l)))
      in
      Obs.Metrics.incr m.blocks;
      Obs.Metrics.add m.sites k;
      Obs.Metrics.add m.nodes_skipped !skipped;
      Obs.Metrics.add m.lane_evals !evals;
      Obs.Metrics.observe m.lanes_hist (float_of_int k);
      if timed then begin
        let t3 = Obs.Clock.wall_seconds () in
        Obs.Metrics.observe m.t_mask (t1 -. t0);
        Obs.Metrics.observe m.t_propagate (t2 -. t1);
        Obs.Metrics.observe m.t_collect (t3 -. t2)
      end;
      results

  (* Numeric sentinel for the supervised sweep, the block twin of
     [Workspace.last_vector_defect]: worst four-state sum drift at the
     observation nets lane [l] reached in the last [run], NaN-propagating.
     Reads the vectors still sitting in the planes — no recomputation. *)
  let lane_vector_defect b l =
    let { pa; pa_bar; p1; p0 } = planes b in
    let bit = 1 lsl l in
    let stride = b.stride in
    let worst = ref 0.0 in
    let saw_nan = ref false in
    Array.iter
      (fun (_, net) ->
        if b.mask.(net) land bit <> 0 then begin
          let idx = (net * stride) + l in
          let sum = pa.(idx) +. pa_bar.(idx) +. p1.(idx) +. p0.(idx) in
          let d = Float.abs (sum -. 1.0) in
          if Float.is_nan d then saw_nan := true
          else if d > !worst then worst := d
        end)
      b.observations;
    if !saw_nan then Float.nan else !worst
end

(* --- whole-sweep drivers -------------------------------------------------- *)

let raise_first_fault results =
  Array.iter
    (fun r -> match r with Error e -> raise e | Ok _ -> ())
    results

(* Chunk [sites] into blocks and run them in order on one reusable block
   workspace.  Exception semantics mirror the per-site list API: the fault
   of the earliest failing site (input order) is raised.  These drivers
   return whole arrays, so a [deadline] cannot express a partial result —
   expiry between blocks raises {!Obs.Deadline.Expired} instead (callers
   that want partials use {!Supervisor.sweep}). *)
let analyze_site_array ?lanes ?(deadline = Obs.Deadline.never) engine sites =
  let b = Block.create ?lanes engine in
  Fun.protect ~finally:(fun () -> Block.release b) @@ fun () ->
  let total = Array.length sites in
  let w = Block.lanes b in
  let out = Array.make total None in
  let off = ref 0 in
  while !off < total do
    Obs.Deadline.raise_if_expired deadline;
    let k = min w (total - !off) in
    let chunk = Array.sub sites !off k in
    let results = Block.run b chunk in
    raise_first_fault results;
    Array.iteri
      (fun l r ->
        match r with Ok r -> out.(!off + l) <- Some r | Error _ -> ())
      results;
    off := !off + k
  done;
  Array.map (function Some r -> r | None -> assert false) out

let analyze_sites ?lanes ?deadline engine sites =
  let results =
    analyze_site_array ?lanes ?deadline engine (Array.of_list sites)
  in
  Array.to_list results

let analyze_all ?lanes ?deadline engine =
  let n = Circuit.node_count (Epp_engine.circuit engine) in
  Array.to_list
    (analyze_site_array ?lanes ?deadline engine (Array.init n Fun.id))

(* --- density heuristic ----------------------------------------------------

   Batch pays O(V + E) per block no matter how small the cones are; the
   per-site kernel pays O(cone log cone) per site.  The crossover is cone
   density: when the mean cone covers a few percent of the circuit, a block
   of 62 sites re-walks the graph 62 times under the per-site kernel but
   once under batch.  Density is estimated from a few evenly-spaced sample
   cones served by the shared analysis LRU, so the estimate itself reuses
   (and warms) the cache. *)

let density_samples = 8

let density engine =
  let ctx = Epp_engine.analysis engine in
  let n = Circuit.node_count (Epp_engine.circuit engine) in
  if n = 0 then 0.0
  else begin
    let samples = min density_samples n in
    let total = ref 0 in
    for i = 0 to samples - 1 do
      let site = i * n / samples in
      total := !total + Reach.count (Analysis.cone ctx site)
    done;
    let d = float_of_int !total /. float_of_int (samples * n) in
    Obs.Metrics.set_gauge
      (Obs.Metrics.gauge (Obs.Hooks.metrics ()) "epp.batch.density")
      d;
    d
  end

let default_density_threshold = 0.02
let default_min_nodes = 256
let default_min_sites = 8

let should_batch ?(density_threshold = default_density_threshold)
    ?(min_nodes = default_min_nodes) ?(min_sites = default_min_sites) engine
    ~sites =
  (match Epp_engine.mode engine with
  | Epp_engine.Polarity -> true
  | Epp_engine.Naive -> false)
  && Epp_engine.restrict_to_cone engine
  && Circuit.node_count (Epp_engine.circuit engine) >= min_nodes
  && sites >= min_sites
  && density engine >= density_threshold
