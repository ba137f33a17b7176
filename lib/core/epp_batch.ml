(* Level-synchronous batched EPP sweep: the production engine.

   The paper's per-site pass walks one site's forward cone.  This engine
   propagates the four-state vectors of a *block* of up to {!max_lanes}
   sites simultaneously, in one level-order walk over the union of their
   forward cones, so the part of the cones the sites share is walked once.

   - Mask phase: the block's sites are seeded, then their union cone is
     discovered level by level over the forward CSR — a node is bucketed by
     its ASAP level ({!Netlist.Analysis.levels}) when it is first reached,
     and ORs its lane set ([mask.(v)] bit [l] set iff node [v] is in lane
     [l]'s forward cone) into its successors when its level comes up.  The
     work is O(union cone), and the next block resets only what this one
     touched.
   - Split: the mask phase also yields the block's peak live frontier and
     its lanes' cone sizes.  A block whose planes would hold more floats
     per component than the vectors it writes (the sum of its cone sizes)
     plus one per-site array of n is halved, each half running its own mask
     phase, down to single lanes if need be.  The planes of a leaf are
     strided by the leaf's own site count.
   - Plane rows: the vectors live in four flat float planes, one row of
     [stride] lanes per node that holds a row ([plane.(row.(v) * stride +
     lane)]), so the lane loops in {!Rules.Lanes} run over adjacent unboxed
     floats.  A node gets a row when it is born (a site when the block is
     seeded, any other node when its level is evaluated) and gives it back
     once the highest level among its fanouts
     ({!Netlist.Analysis.max_fanout_level}) has been evaluated; sites and
     observation nets keep theirs until the block's results are read.  The
     planes therefore hold the block's live frontier, not the circuit.
   - Propagate phase: the union's gates are evaluated level by level, in
     discovery order within a level (gates of one ASAP level never read
     each other); a gate whose evaluation mask is empty costs one branch.
   - Lane compaction: {!Rules.Lanes} compacts the live lanes of each gate
     into a dense index list before its inner loops, so blocks that drain
     unevenly (faulted lanes, disjoint cones) don't pay for dead lanes.

   Per lane, the arithmetic is the {!Rules.Lanes} mirror of the boxed
   Table-1 rules, in the same fanin order — results are bit-identical to
   [Epp_engine.analyze_site], the reference oracle.  A lane whose site
   would make the reference raise faults individually ([Error] in the block
   result); the rest of the block completes. *)

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

   A workspace's four planes hold [rows × sites] floats each, where
   [rows × sites] is the largest a leaf block on it has needed so far
   ([rows] its peak live frontier, [sites] its lane count and stride).
   The sweep drivers hand a workspace's planes back when the sweep ends
   (Block.release), and the next workspace borrows them instead of
   allocating its own.  The engine never reads a plane slot it did not
   write in the same leaf — a lane's site is seeded, and every gate on its
   cone is evaluated into a row that stays its own until its last reader
   has run — so a borrowed buffer's stale contents are never observed.

   A borrow takes the largest spare, or an empty buffer when there is none;
   a leaf that needs more floats than its buffer holds replaces it with a
   new one of 17/16 its need (the old one is dropped), so spares plus
   borrowed buffers never outnumber the workspaces that were ever live at
   once.  The split rule bounds a leaf's need by the sum of its cone sizes
   plus n, so a buffer never exceeds [(max_lanes + 1) · n · 17/16] floats. *)

type planes = {
  pa : float array;
  pa_bar : float array;
  p1 : float array;
  p0 : float array;
}

let capacity p = Array.length p.pa
let bytes p = 4 * 8 * capacity p
let no_planes = { pa = [||]; pa_bar = [||]; p1 = [||]; p0 = [||] }
let pool_lock = Mutex.create ()
let spares : planes list ref = ref []

let pool_bytes = ref 0
(* bytes in borrowed plus spare buffers, published as epp.batch.plane_bytes *)

(* Under [pool_lock]. *)
let publish_bytes () =
  Obs.Metrics.set_gauge
    (Obs.Metrics.gauge (Obs.Hooks.metrics ()) "epp.batch.plane_bytes")
    (float_of_int !pool_bytes)

let borrow_planes () =
  Mutex.protect pool_lock @@ fun () ->
  publish_bytes ();
  match List.sort (fun a b -> compare (capacity b) (capacity a)) !spares with
  | largest :: rest ->
    spares := rest;
    largest
  | [] -> no_planes

(* A buffer of at least [floats] floats per plane, replacing [old].  The new
   planes are not zero-filled: no slot is read before it is written. *)
let grow_planes old floats =
  Obs.Metrics.incr
    (Obs.Metrics.counter (Obs.Hooks.metrics ()) "epp.batch.plane_allocations");
  let cap = floats + (floats / 16) in
  let p =
    {
      pa = Array.create_float cap;
      pa_bar = Array.create_float cap;
      p1 = Array.create_float cap;
      p0 = Array.create_float cap;
    }
  in
  Mutex.protect pool_lock (fun () ->
      pool_bytes := !pool_bytes + bytes p - bytes old;
      publish_bytes ());
  p

let return_planes p =
  if capacity p > 0 then
    Mutex.protect pool_lock (fun () ->
        spares := p :: !spares;
        publish_bytes ())

let spare_planes () = Mutex.protect pool_lock (fun () -> List.length !spares)

let drop_spare_planes () =
  Mutex.protect pool_lock (fun () ->
      List.iter (fun p -> pool_bytes := !pool_bytes - bytes p) !spares;
      spares := [];
      publish_bytes ())

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
    rows_hist : Obs.Metrics.histogram;  (* epp.batch.plane_rows *)
    t_mask : Obs.Metrics.histogram;  (* epp.batch.phase.mask_seconds *)
    t_propagate : Obs.Metrics.histogram;  (* epp.batch.phase.propagate_seconds *)
    t_collect : Obs.Metrics.histogram;  (* epp.batch.phase.collect_seconds *)
  }

  let instruments () =
    let m = Obs.Hooks.metrics () in
    let sizes name =
      Obs.Metrics.histogram ~buckets:Obs.Metrics.size_buckets m name
    in
    {
      timed = not (Obs.Metrics.is_null m);
      blocks = Obs.Metrics.counter m "epp.batch.blocks";
      sites = Obs.Metrics.counter m "epp.batch.sites";
      lane_faults = Obs.Metrics.counter m "epp.batch.lane_faults";
      nodes_skipped = Obs.Metrics.counter m "epp.batch.nodes_skipped";
      lane_evals = Obs.Metrics.counter m "epp.batch.gate_lane_evals";
      lanes_hist = sizes "epp.batch.lanes_filled";
      width_hist = sizes "epp.batch.level_width";
      rows_hist = sizes "epp.batch.plane_rows";
      t_mask = Obs.Metrics.histogram m "epp.batch.phase.mask_seconds";
      t_propagate = Obs.Metrics.histogram m "epp.batch.phase.propagate_seconds";
      t_collect = Obs.Metrics.histogram m "epp.batch.phase.collect_seconds";
    }

  type ws = {
    engine : engine;
    circuit : Circuit.t;
    n : int;  (* node count *)
    lanes : int;  (* lane capacity of this block workspace *)
    offsets : int array;  (* forward CSR *)
    targets : int array;
    levels : int array;  (* ASAP level per node, shared instance *)
    last_read : int array;  (* Analysis.max_fanout_level, shared instance *)
    kinds : Gate.kind array;  (* per-gate kind, prefetched once *)
    fanin_arrays : int array array;  (* per-gate fanins, shared instances *)
    observed : Bytes.t;
        (* observation nets ('\001'), their rows outlive the walk; shared
           instance *)
    sp : float array;  (* signal probabilities, shared instance *)
    observations : (Circuit.observation * int) array;
    (* Per-leaf state; [reset] clears what the last mask phase touched. *)
    mask : int array;  (* mask.(v) bit l  <=>  v in lane l's cone *)
    seed : int array;  (* seed.(v) bit l  <=>  v is lane l's site *)
    row : int array;  (* plane row of a union node, -1 for any other *)
    sched : int array;
        (* the union, bucketed by level: level [l]'s nodes sit in
           [sched.(base.(l) .. base.(l) + len.(l) - 1)] in discovery order *)
    base : int array;
        (* per level: first slot, room for all its nodes (Analysis.level_offsets,
           shared instance) *)
    len : int array;  (* per level: union nodes bucketed *)
    die_head : int array;  (* per level: first node whose row is freed after it *)
    die_next : int array;  (* per node: the next one in its level's list *)
    mutable lo : int;  (* level span of the union; empty when lo > hi *)
    mutable hi : int;
    free_rows : int array;  (* stack of rows given back this leaf *)
    mutable free_top : int;
    mutable next_row : int;  (* rows handed out this leaf, high-water mark *)
    cone_bits : int array;
        (* per-lane cone sizes, bit-sliced: bit [l] of [cone_bits.(j)] is
           bit [j] of lane [l]'s count *)
    faults : exn option array;  (* per-lane first fault of the current leaf *)
    defects : float array;
        (* per block lane: four-state sum drift of the last run, taken at
           collect time, since a later leaf reuses the planes *)
    reached : int array;
    reached_p : float array;
        (* the collect buffer: the lane being collected's reached
           observation positions and their Pa + Pā, in its first
           [nreached] slots *)
    mutable nreached : int;
    p_sensitized : float array;
        (* one slot: the collected lane's P_sensitized (a float array, so
           storing it boxes nothing) *)
    mutable planes : planes option;
        (* row-major lane-stride planes, plane.(row * stride + l); borrowed
           at creation, [None] once handed back *)
    scratch : Rules.Lanes.scratch;
    obs_i : instruments;
    tracer : Obs.Trace.t;
    req_ctx : Obs.Ctx.t option;  (* correlation context for block spans *)
  }

  let engine b = b.engine
  let lanes b = b.lanes

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
    if lanes < 1 || lanes > max_lanes then
      invalid_arg
        (Printf.sprintf "Epp_batch.Block.create: lanes must be in [1, %d]"
           max_lanes);
    let circuit = Epp_engine.circuit engine in
    let ctx = Epp_engine.analysis engine in
    let n = Circuit.node_count circuit in
    let graph = Circuit.graph circuit in
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
    (* Level [l]'s bucket has room for every node at that level. *)
    let base = Analysis.level_offsets ctx in
    let nlevels = Array.length base - 1 in
    {
      engine;
      circuit;
      n;
      lanes;
      offsets = Digraph.offsets graph;
      targets = Digraph.targets graph;
      levels = Analysis.levels ctx;
      last_read = Analysis.max_fanout_level ctx;
      kinds;
      fanin_arrays;
      observed = Analysis.observed ctx;
      sp = (Epp_engine.signal_probabilities engine).Sigprob.Sp.values;
      observations = Analysis.observations ctx;
      mask = Array.make n 0;
      seed = Array.make n 0;
      row = Array.make n (-1);
      sched = Array.make n 0;
      base;
      len = Array.make nlevels 0;
      die_head = Array.make nlevels (-1);
      die_next = Array.make n (-1);
      lo = 0;
      hi = -1;
      free_rows = Array.make n 0;
      free_top = 0;
      next_row = 0;
      cone_bits = Array.make Sys.int_size 0;
      faults = Array.make lanes None;
      defects = Array.make lanes Float.nan;
      reached = Array.make (Array.length (Analysis.observations ctx)) 0;
      reached_p = Array.create_float (Array.length (Analysis.observations ctx));
      nreached = 0;
      p_sensitized = Array.make 1 0.0;
      planes = Some (borrow_planes ());
      scratch = Rules.Lanes.create ~lanes;
      obs_i = instruments ();
      tracer = Obs.Hooks.tracer ();
      req_ctx;
    }

  (* Forget the last mask phase's union: O(union), not O(n). *)
  let reset b =
    for l = b.lo to b.hi do
      let first = b.base.(l) in
      for i = first to first + b.len.(l) - 1 do
        let v = b.sched.(i) in
        b.mask.(v) <- 0;
        b.seed.(v) <- 0;
        b.row.(v) <- -1
      done;
      b.len.(l) <- 0;
      b.die_head.(l) <- -1
    done;
    b.lo <- 0;
    b.hi <- -1;
    b.free_top <- 0;
    b.next_row <- 0

  let bucket b v =
    let l = b.levels.(v) in
    b.sched.(b.base.(l) + b.len.(l)) <- v;
    b.len.(l) <- b.len.(l) + 1;
    if b.lo > b.hi then begin
      b.lo <- l;
      b.hi <- l
    end
    else begin
      if l < b.lo then b.lo <- l;
      if l > b.hi then b.hi <- l
    end

  let alloc_row b =
    if b.free_top > 0 then begin
      b.free_top <- b.free_top - 1;
      b.free_rows.(b.free_top)
    end
    else begin
      let r = b.next_row in
      b.next_row <- r + 1;
      r
    end

  let free_row b r =
    b.free_rows.(b.free_top) <- r;
    b.free_top <- b.free_top + 1

  (* Mask phase over the [k] sites [sites.(off .. off + k - 1)], lane [l]
     holding [sites.(off + l)].  Seed the sites, then discover their union
     cone level by level: when a level comes up, each of its nodes — whose
     lane set is complete, since all its fanins sit at lower levels — ORs
     its lanes into its successors, bucketing each successor it reaches
     first.  After the walk [mask.(v)] holds exactly the lanes whose site
     reaches [v] — the union of all per-site DFS cones — and the per-lane
     cone sizes fall out of the same walk, counted in bit-sliced form:
     adding a node's lane set costs a short carry chain, not one step per
     lane.

     The walk also plans the rows.  A site is born at seeding, any other
     node when its level is evaluated; every node but a site or an
     observation net dies after the highest level among its fanouts, and
     all of those fanouts are in the union (it is forward-closed), so the
     row count after each level is known here.  Returns its maximum: the
     rows the propagate phase needs, since it hands freed rows out again
     before minting new ones. *)
  let build_masks b sites off k =
    reset b;
    Array.fill b.faults 0 k None;
    let mask = b.mask and seed = b.seed in
    let live = ref 0 in
    for l = 0 to k - 1 do
      let s = sites.(off + l) in
      let bit = 1 lsl l in
      if mask.(s) = 0 then begin
        bucket b s;
        incr live
      end;
      mask.(s) <- mask.(s) lor bit;
      seed.(s) <- seed.(s) lor bit
    done;
    let peak = ref !live in
    let offsets = b.offsets and targets = b.targets in
    let sched = b.sched in
    let cone_bits = b.cone_bits in
    Array.fill cone_bits 0 (Array.length cone_bits) 0;
    let lv = ref b.lo in
    while !lv <= b.hi do
      let l = !lv in
      let first = b.base.(l) in
      (* the bucket only grows at higher levels while this one is walked *)
      for i = first to first + b.len.(l) - 1 do
        let v = Array.unsafe_get sched i in
        let mv = Array.unsafe_get mask v in
        for j = Array.unsafe_get offsets v to Array.unsafe_get offsets (v + 1) - 1 do
          let t = Array.unsafe_get targets j in
          let mt = Array.unsafe_get mask t in
          if mt = 0 then bucket b t;
          Array.unsafe_set mask t (mt lor mv)
        done;
        (* one increment of every lane in [mv]: a ripple-carry add into
           the bit-sliced counters, about two steps on average *)
        let carry = ref mv and j = ref 0 in
        while !carry <> 0 do
          let c = Array.unsafe_get cone_bits !j in
          Array.unsafe_set cone_bits !j (c lxor !carry);
          carry := c land !carry;
          incr j
        done;
        if Array.unsafe_get seed v = 0 then begin
          incr live;
          if Bytes.unsafe_get b.observed v = '\000' then begin
            let d = Array.unsafe_get b.last_read v in
            Array.unsafe_set b.die_next v b.die_head.(d);
            b.die_head.(d) <- v
          end
        end
      done;
      if !live > !peak then peak := !live;
      let v = ref b.die_head.(l) in
      while !v >= 0 do
        decr live;
        v := Array.unsafe_get b.die_next !v
      done;
      incr lv
    done;
    !peak

  let cone_size b l =
    let c = ref 0 in
    for j = Array.length b.cone_bits - 1 downto 0 do
      c := (!c lsl 1) lor ((b.cone_bits.(j) lsr l) land 1)
    done;
    !c

  (* The sum of the lanes' cone sizes: bit [j] of every count weighs 2^j. *)
  let cone_total b =
    let c = ref 0 in
    for j = Array.length b.cone_bits - 1 downto 0 do
      c := (!c lsl 1) + popcount b.cone_bits.(j)
    done;
    !c

  (* The collect loop, one per lane: the positions of the observation
     points lane [l] reached and their P = Pa + Pā go into the collect
     buffer in observation order, P_sensitized = clamp(1 - Π(1 - P)) is
     taken by the reference's left-to-right product, and the lane's
     four-state drift for {!lane_vector_defect} lands in [defects.(slot)].
     [emit] then builds the lane's result from the buffer. *)
  let collect_lane b { pa; pa_bar; p1; p0 } ~stride l ~slot =
    let obs = b.observations in
    let bit = 1 lsl l in
    let k = ref 0 in
    let miss = ref 1.0 in
    let worst = ref 0.0 and saw_nan = ref false in
    for i = 0 to Array.length obs - 1 do
      let net = snd (Array.unsafe_get obs i) in
      if b.mask.(net) land bit <> 0 then begin
        let idx = (b.row.(net) * stride) + l in
        let p = pa.(idx) +. pa_bar.(idx) in
        let d = Float.abs (p +. p1.(idx) +. p0.(idx) -. 1.0) in
        if Float.is_nan d then saw_nan := true
        else if d > !worst then worst := d;
        b.reached.(!k) <- i;
        b.reached_p.(!k) <- p;
        incr k;
        miss := !miss *. (1.0 -. p)
      end
    done;
    b.nreached <- !k;
    b.p_sensitized.(0) <- Sigprob.Sp_rules.clamp (1.0 -. !miss);
    b.defects.(slot) <- (if !saw_nan then Float.nan else !worst)

  (* The two views the collect buffer feeds: a row (the supervised sweep's
     entries) and the list-shaped site result (the unsupervised driver). *)
  let emit_row b ~site:_ ~cone_size =
    Site_row.make ~p_sensitized:b.p_sensitized.(0) ~cone_size
      ~positions:(Array.sub b.reached 0 b.nreached)
      ~probabilities:(Array.sub b.reached_p 0 b.nreached)

  let emit_site_result b ~site ~cone_size =
    Site_row.site_result b.observations ~site ~p_sensitized:b.p_sensitized.(0)
      ~cone_size b.reached b.reached_p b.nreached

  (* Propagate and collect one leaf whose mask phase just ran: [k] sites
     from [off], [rows] live rows at the peak, the planes strided by [k]. *)
  let run_leaf b ~emit sites off k rows =
    let m = b.obs_i in
    let timed = m.timed in
    let t1 = if timed then Obs.Clock.wall_seconds () else 0.0 in
    let stride = k in
    if capacity (planes b) < rows * stride then
      b.planes <- Some (grow_planes (planes b) (rows * stride));
    let ({ pa; pa_bar; p1; p0 } as planes) = planes b in
    let row = b.row in
    (* the injected error: a certain error, even polarity *)
    for l = 0 to k - 1 do
      let s = sites.(off + l) in
      if row.(s) < 0 then row.(s) <- alloc_row b;
      let idx = (row.(s) * stride) + l in
      pa.(idx) <- 1.0;
      pa_bar.(idx) <- 0.0;
      p1.(idx) <- 0.0;
      p0.(idx) <- 0.0
    done;
    let alive = ref ((1 lsl k) - 1) in
    let skipped = ref 0 in
    let evals = ref 0 in
    let sp = b.sp and mask = b.mask and seed = b.seed and sched = b.sched in
    let lv = ref b.lo in
    while !lv <= b.hi && !alive <> 0 do
      let l = !lv in
      let first = b.base.(l) in
      let width = ref 0 in
      for i = first to first + b.len.(l) - 1 do
        let g = Array.unsafe_get sched i in
        let sg = Array.unsafe_get seed g in
        if sg = 0 then Array.unsafe_set row g (alloc_row b);
        let em = Array.unsafe_get mask g land !alive land lnot sg in
        if em = 0 then begin
          if Circuit.is_gate b.circuit g then incr skipped
        end
        else begin
          incr width;
          let fm =
            Rules.Lanes.propagate b.scratch
              (Array.unsafe_get b.kinds g)
              ~fanins:(Array.unsafe_get b.fanin_arrays g)
              ~mask ~rows:row ~sp ~em ~stride ~pa ~pa_bar ~p1 ~p0 g
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
      (* this level was the last reader of these nodes *)
      let v = ref b.die_head.(l) in
      while !v >= 0 do
        free_row b (Array.unsafe_get row !v);
        v := Array.unsafe_get b.die_next !v
      done;
      Obs.Metrics.observe m.width_hist (float_of_int !width);
      incr lv
    done;
    let t2 = if timed then Obs.Clock.wall_seconds () else 0.0 in
    let results =
      Array.init k (fun l ->
          let slot = off + l in
          match b.faults.(l) with
          | Some e ->
            b.defects.(slot) <- Float.nan;
            Error e
          | None ->
            collect_lane b planes ~stride l ~slot;
            Ok (emit b ~site:sites.(slot) ~cone_size:(cone_size b l)))
    in
    Obs.Metrics.incr m.blocks;
    Obs.Metrics.add m.sites k;
    Obs.Metrics.add m.nodes_skipped !skipped;
    Obs.Metrics.add m.lane_evals !evals;
    Obs.Metrics.observe m.lanes_hist (float_of_int k);
    Obs.Metrics.observe m.rows_hist (float_of_int rows);
    if timed then begin
      Obs.Metrics.observe m.t_propagate (t2 -. t1);
      Obs.Metrics.observe m.t_collect (Obs.Clock.wall_seconds () -. t2)
    end;
    results

  (* The split rule.  After its mask phase a block knows the floats per
     component its planes need, [rows × k], and the vectors it will write,
     the sum of its lanes' cone sizes.  A block whose planes would exceed
     that sum by more than n — one per-site array — is halved, each half
     running its own mask phase; a single lane never splits, since its
     rows are at most its cone. *)
  let rec run_span b ~emit sites off k =
    let m = b.obs_i in
    let t0 = if m.timed then Obs.Clock.wall_seconds () else 0.0 in
    let rows = build_masks b sites off k in
    if m.timed then Obs.Metrics.observe m.t_mask (Obs.Clock.wall_seconds () -. t0);
    if k > 1 && rows * k > cone_total b + b.n then begin
      let half = k / 2 in
      let first = run_span b ~emit sites off half in
      Array.append first (run_span b ~emit sites (off + half) (k - half))
    end
    else run_leaf b ~emit sites off k rows

  let run_with ~emit b sites =
    let k = Array.length sites in
    if k > b.lanes then
      invalid_arg
        (Printf.sprintf "Epp_batch.Block.run: %d sites exceed block capacity %d"
           k b.lanes);
    Array.iter
      (fun s ->
        if s < 0 || s >= b.n then invalid_arg "Epp_batch.Block.run: bad site")
      sites;
    if k = 0 then [||]
    else
      Obs.Trace.span b.tracer ~cat:"epp" ~args:(Obs.Ctx.args_of b.req_ctx)
        "epp.batch.block"
      @@ fun () -> run_span b ~emit sites 0 k

  let run b sites = run_with ~emit:emit_row b sites
  let run_site_results b sites = run_with ~emit:emit_site_result b sites

  (* Numeric sentinel for the supervised sweep: worst four-state sum drift
     at the observation nets lane [l] reached in the last [run],
     NaN-propagating, as its leaf's collect pass took it. *)
  let lane_vector_defect b l =
    ignore (planes b);
    b.defects.(l)
end

let blocks sites =
  let total = Array.length sites in
  Array.init ((total + max_lanes - 1) / max_lanes) (fun i ->
      let off = i * max_lanes in
      Array.sub sites off (min max_lanes (total - off)))
