(** Level-synchronous batched EPP sweep: the four-state vectors of a block
    of up to {!max_lanes} error sites propagate together in one level-order
    walk over the union of their forward cones.

    Where the per-site kernel ({!Epp_engine.Workspace}) extracts and walks
    each site's cone — O(sites · E) when cones are dense — the batch engine
    pays one walk over a block's union cone: a per-node lane bitmask in
    place of per-site cones, union nodes bucketed by ASAP level
    ({!Netlist.Analysis.levels}) as they are reached, lane-stride float
    planes with one row per live node (a row is freed once the highest
    level among the node's fanouts has run), and lane compaction inside
    {!Rules.Lanes} so drained lanes cost nothing.  Per lane the arithmetic
    mirrors the kernel operation-for-operation, so results are
    bit-identical; the per-site kernel remains the conformance oracle.

    Polarity mode only; an engine in [Naive] mode is rejected at block
    creation. *)

val max_lanes : int
(** Sites per block, 62: one OCaml int per node carries the block's cone
    membership bitmask. *)

(** One block workspace: the reusable planes, masks and scratch for blocks
    of up to [lanes] sites.  Single-owner mutable state — one per domain,
    reusable across any number of blocks, each of which resets only the
    state the previous one touched.

    The four planes hold [rows × lanes] floats each, [rows] being the
    largest live frontier a block on the workspace has needed, never more
    than the node count.  They are borrowed from a process-wide pool of
    buffers that released workspaces handed back, so consecutive sweeps —
    the chunks of a supervised sweep, the edits of a [serd] session — reuse
    one buffer instead of allocating their own.  A buffer belongs to one
    live workspace at a time. *)
module Block : sig
  type ws

  val create : ?ctx:Obs.Ctx.t -> ?lanes:int -> Epp_engine.t -> ws
  (** Workspace for blocks of up to [lanes] (default {!max_lanes}) sites.
      Its planes are the largest spare buffer, or none when the pool is
      empty; a block that needs more rows than they hold replaces them with
      a new buffer of 1/16 headroom (counted by
      [epp.batch.plane_allocations]), dropping the old one.  [ctx] labels
      every block span run on this workspace with the request id (the
      workspace, not {!run}, carries it — [run] stays a first-class
      [ws -> int array -> _] value for the schedulers).
      @raise Invalid_argument if the engine is in [Naive] mode or [lanes]
      is outside [1, max_lanes]. *)

  val release : ws -> unit
  (** Hand the workspace's planes back to the pool, for the next
      {!create} to borrow.  The driver that created the workspace calls
      this when its sweep ends; the workspace is unusable afterwards
      ({!run} and {!lane_vector_defect} raise [Invalid_argument]).
      Idempotent.  A workspace that is never released simply keeps its
      buffer until the GC reclaims it. *)

  val engine : ws -> Epp_engine.t

  val lanes : ws -> int
  (** The block capacity this workspace was created with. *)

  val run : ws -> int array -> (Epp_engine.site_result, exn) result array
  (** [run b sites] analyzes every site of the block in one shared pass and
      returns per-lane results aligned with [sites].  A lane whose site
      would make the per-site kernel raise (invalid off-path probability,
      rule defect, arity violation) yields [Error] with that exception —
      the exception the kernel would have raised — while the other lanes
      complete normally.  Duplicate sites are allowed.
      @raise Invalid_argument on a bad site id, more than [lanes b] sites,
      or a released workspace. *)

  val lane_vector_defect : ws -> int -> float
  (** Block twin of {!Epp_engine.Workspace.last_vector_defect}: the worst
      four-state sum drift from 1 at the observation nets lane [l] reached
      in the last {!run} (NaN if any component is NaN).  Only meaningful
      between a [run] and the next one, for a lane whose result was [Ok]:
      the observation nets keep their plane rows until the next [run]. *)
end

val spare_planes : unit -> int
(** Plane buffers currently spare in the pool.  Never more than the number
    of workspaces that were ever live at once. *)

val drop_spare_planes : unit -> unit
(** Forget every spare buffer (the GC reclaims them); later workspaces
    allocate afresh.  Buffers held by live workspaces are unaffected. *)

(** {2 Whole-sweep drivers}

    Sequential block-at-a-time drivers with the same signatures and
    exception behaviour as {!Epp_engine.analyze_sites} /
    {!Epp_engine.analyze_all} (the earliest failing site's exception is
    raised).  {!Epp.Parallel} schedules blocks across domains on top of
    {!Block.run}.  Each driver releases the workspace it created when it
    returns or raises.

    [deadline] (default {!Obs.Deadline.never}) is polled at block
    boundaries; since these drivers return whole arrays, expiry raises
    {!Obs.Deadline.Expired} rather than returning partial results — use
    {!Supervisor.sweep} when partial coverage should be kept. *)

val analyze_site_array :
  ?lanes:int ->
  ?deadline:Obs.Deadline.t ->
  Epp_engine.t ->
  int array ->
  Epp_engine.site_result array

val analyze_sites :
  ?lanes:int ->
  ?deadline:Obs.Deadline.t ->
  Epp_engine.t ->
  int list ->
  Epp_engine.site_result list

val analyze_all :
  ?lanes:int ->
  ?deadline:Obs.Deadline.t ->
  Epp_engine.t ->
  Epp_engine.site_result list

(** {2 Density heuristic} *)

val density : Epp_engine.t -> float
(** Estimated mean cone size over circuit size, from {!density_samples}
    evenly-spaced sample cones served by the shared analysis cache.
    Exposed as the [epp.batch.density] gauge. *)

val density_samples : int

val should_batch :
  ?density_threshold:float ->
  ?min_nodes:int ->
  ?min_sites:int ->
  Epp_engine.t ->
  sites:int ->
  bool
(** The batch-vs-per-site dispatch decision.  True iff the engine is
    polarity-mode with the cone restriction on, the circuit has at least
    [min_nodes] (default 256) nodes, the sweep covers at least [min_sites]
    (default 8) sites, and {!density} is at least [density_threshold]
    (default 0.02).  Tiny or cone-local circuits keep the per-site kernel. *)

val default_density_threshold : float
val default_min_nodes : int
val default_min_sites : int
