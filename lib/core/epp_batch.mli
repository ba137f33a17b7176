(** Level-synchronous batched EPP sweep, the production engine: the
    four-state vectors of a block of up to {!max_lanes} error sites
    propagate together in one level-order walk over the union of their
    forward cones.

    A block pays one walk over its union cone: a per-node lane bitmask in
    place of per-site cones, union nodes bucketed by ASAP level
    ({!Netlist.Analysis.levels}) as they are reached, lane-stride float
    planes with one row per live node (a row is freed once the highest
    level among the node's fanouts has run), and lane compaction inside
    {!Rules.Lanes} so drained lanes cost nothing.  A block whose planes
    would hold more floats per component than the sum of its lanes' cone
    sizes plus the node count is split in halves (recursively, down to
    single lanes), so unused plane slots never exceed one per-site array.
    Per lane the arithmetic mirrors the boxed Table-1 rules
    operation-for-operation, so results are bit-identical to
    {!Epp_engine.analyze_site}, the reference oracle.

    {!Ser_estimator.analyze_sites} is the unsupervised sweep driver and
    {!Supervisor.sweep} the supervised one. *)

val max_lanes : int
(** Sites per block, 62: one OCaml int per node carries the block's cone
    membership bitmask. *)

(** One block workspace: the reusable planes, masks and scratch for blocks
    of up to [lanes] sites.  Single-owner mutable state — one per domain,
    reusable across any number of blocks, each of which resets only the
    state the previous one touched.

    The four planes hold [rows × sites] floats each: the most a leaf
    block on the workspace has needed, [rows] being its live frontier and
    [sites] its lane count.  They are borrowed from a process-wide pool of
    buffers that released workspaces handed back, so consecutive sweeps —
    the chunks of a supervised sweep, the edits of a [serd] session — reuse
    one buffer instead of allocating their own.  A buffer belongs to one
    live workspace at a time. *)
module Block : sig
  type ws

  val create : ?ctx:Obs.Ctx.t -> ?lanes:int -> Epp_engine.t -> ws
  (** Workspace for blocks of up to [lanes] (default {!max_lanes}) sites.
      Its planes are the largest spare buffer, or none when the pool is
      empty; a leaf block that needs more floats than they hold replaces
      them with a new buffer of 1/16 headroom (counted by
      [epp.batch.plane_allocations]), dropping the old one.  [ctx] labels
      every block span run on this workspace with the request id (the
      workspace, not {!run}, carries it — [run] stays a first-class
      [ws -> int array -> _] value for the schedulers).
      @raise Invalid_argument if [lanes] is outside [1, max_lanes]. *)

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

  val run : ws -> int array -> (Site_row.t, exn) result array
  (** [run b sites] analyzes every site of the block in one shared pass —
      or, after a split, one pass per leaf — and returns per-lane rows
      aligned with [sites].  [epp.batch.blocks] counts leaves.  A lane
      whose site would make the reference raise (invalid off-path
      probability, rule defect, arity violation) yields [Error] with that
      exception while the other lanes complete normally.  Duplicate sites
      are allowed.
      @raise Invalid_argument on a bad site id, more than [lanes b] sites,
      or a released workspace. *)

  val run_site_results :
    ws -> int array -> (Epp_engine.site_result, exn) result array
  (** {!run} with each lane's result built as the list-shaped
      {!Epp_engine.site_result} view, straight from the same collect
      buffer (no intermediate row) — the unsupervised driver's form. *)

  val lane_vector_defect : ws -> int -> float
  (** Numeric sentinel: the worst four-state sum drift
      [|pa + pā + p1 + p0 − 1|] at the observation nets lane [l] reached in
      the last {!run} (NaN if any component is NaN), taken as the lane's
      leaf collected it.  Only meaningful between a [run] and the next
      one, for a lane whose result was [Ok]. *)
end

val spare_planes : unit -> int
(** Plane buffers currently spare in the pool.  Never more than the number
    of workspaces that were ever live at once. *)

val drop_spare_planes : unit -> unit
(** Forget every spare buffer (the GC reclaims them); later workspaces
    allocate afresh.  Buffers held by live workspaces are unaffected. *)

val blocks : int array -> int array array
(** [sites] cut into consecutive blocks of {!max_lanes}, the work items the
    sweep drivers hand {!Parallel.map_array}. *)
