(** Supervised per-site analysis: the degradation ladder that lets a sweep
    survive poisoned sites instead of dying on the first one.

    Every site is tried on a (up to) three-rung ladder:

    + the level-synchronous {!Epp_batch} block engine, post-checked per
      lane by the numeric sentinels (NaN components,
      {!Epp_batch.Block.lane_vector_defect} beyond tolerance, row
      probabilities outside [0, 1]) — a faulted lane degrades {e alone},
      carrying its batch fault, while the rest of its block completes;
    + on any batch fault or sentinel trip, the boxed
      {!Epp_engine.analyze_site} reference path, whose result becomes a
      row and is checked the same way;
    + if that also fails, the site is {e quarantined} into a typed
      {!Diag.quarantine} record and the sweep continues.

    Fan-out uses {!Parallel.map_array_until}, handing each domain whole
    blocks (one union-cone walk each).  Because the per-site wrapper never
    raises, one bad site can neither kill nor deadlock the sweep.  Sites are
    processed in chunks so a checkpoint callback ({!Report.Checkpoint} wires
    one) receives each chunk's completed entries as the chunk ends.

    A whole-circuit sweep ({!sweep_all}) takes the entries its caller
    already holds — a replayed checkpoint, the clean sites an edit spliced —
    as [prior], sweeps only the other sites, and merges both: every caller
    gets the same input order, [stats.resumed], [on_chunk] coverage and
    deadline accounting. *)

type entry =
  | Analyzed of { row : Site_row.t; step : Diag.step }
      (** the site's row and the rung that produced it; the row carries no
          site id, so an edit can keep the entry as it is *)
  | Quarantined of Diag.quarantine

type outcome = {
  entries : (int * entry) list;  (** (site, entry), in input order *)
  stats : Diag.stats;
  completion : Diag.completion;
      (** whether every requested site was covered, or the sweep's
          {!Obs.Deadline} budget expired first (entries then hold the
          finished subset — nothing finished is ever dropped) *)
}

val sweep :
  ?ctx:Obs.Ctx.t ->
  ?domains:int ->
  ?chunk_size:int ->
  ?on_chunk:(done_count:int -> total:int -> (int * entry) list -> unit) ->
  ?batch_run:
    (Epp_batch.Block.ws ->
    int array ->
    (Site_row.t, exn) result array) ->
  ?reference:(Epp_engine.t -> int -> Epp_engine.site_result) ->
  ?deadline:Obs.Deadline.t ->
  Epp_engine.t ->
  int list ->
  outcome
(** Supervised parallel sweep over the given sites.  [on_chunk] fires after
    each completed chunk ([chunk_size] sites, default 992 = 16 blocks of
    {!Epp_batch.max_lanes}, so no chunk ends on a short block) on the
    calling domain with that chunk's own entries, in input order — the
    checkpoint hook, which appends them.  [done_count] counts every entry
    finished so far and [total] the sweep's sites.  An exception from
    [on_chunk] itself aborts the sweep (all domains already joined) and
    propagates.

    The vector sentinel's tolerance is [1e-6], {!Prob4.normalize}'s drift
    bound: a larger defect is a rule bug or poisoned input, not rounding.

    [batch_run] and [reference] replace the rung implementations — the
    deterministic fault-injection seam used by the resilience tests, the
    daemon's [inject_faults] and the conformance shrinker.  A [batch_run]
    stub's per-lane [Error]s degrade those lanes and a raise degrades the
    whole block; the lane vector sentinel only runs for the real engine,
    since a stub leaves no vectors in the planes.  A [reference] stub that
    raises, returns a defective result or names an observation point the
    circuit does not have (out of order) sends the site to quarantine.
    Ladder transitions log through {!Obs.Log}: a batch-rung failure emits
    [supervisor.degrade] (Debug), a quarantine [supervisor.quarantine]
    (Warn), both carrying [ctx]'s request id.

    [deadline] (default {!Obs.Deadline.never}) is polled cooperatively at
    chunk boundaries and at each task claim inside a chunk: on expiry the
    sweep stops starting new sites, keeps every finished entry, reports the
    partial coverage in [outcome.completion] ({!Diag.Deadline_expired}),
    and returns normally — it never raises on expiry, and [on_chunk] has
    already seen every finished entry, so a checkpoint written from it
    holds exactly the completed work.

    [ctx] is threaded to every rung, span, and log event the sweep emits —
    the [supervisor.sweep] / [supervisor.chunk] / [parallel.worker] /
    [epp.batch.block] spans all carry its request id as span args, expiry
    logs [supervisor.deadline_expired] (Warn) — so one request's work is
    one correlated tree even across domains.
    @raise Invalid_argument if [domains < 1] or [chunk_size < 1]. *)

val sweep_all :
  ?ctx:Obs.Ctx.t ->
  ?domains:int ->
  ?chunk_size:int ->
  ?on_chunk:(done_count:int -> total:int -> (int * entry) list -> unit) ->
  ?batch_run:
    (Epp_batch.Block.ws ->
    int array ->
    (Site_row.t, exn) result array) ->
  ?reference:(Epp_engine.t -> int -> Epp_engine.site_result) ->
  ?deadline:Obs.Deadline.t ->
  ?prior:(int * entry) list ->
  Epp_engine.t ->
  outcome
(** {!sweep} over every node of the engine's circuit, in node-id order,
    starting from the [prior] entries the caller already holds (default
    none; a later entry for the same site replaces an earlier one).  Only
    the other sites are swept, and only their entries reach [on_chunk].
    The outcome's entries are the held and the fresh ones merged in
    site-id order, [stats.resumed] counts the held ones, and they count as
    covered in [on_chunk]'s [done_count] and in a deadline's [analyzed] —
    so [analyzed + remaining] is always the node count.
    @raise Invalid_argument if a [prior] site is not a node id. *)

val quarantines : outcome -> Diag.quarantine list
