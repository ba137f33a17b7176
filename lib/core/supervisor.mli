(** Supervised per-site analysis: the degradation ladder that lets a sweep
    survive poisoned sites instead of dying on the first one.

    Every site is tried on a (up to) four-rung ladder:

    + when batching is on ({!batch_mode}), the level-synchronous
      {!Epp_batch} block engine, post-checked per lane by the numeric
      sentinels (NaN components, {!Epp_batch.Block.lane_vector_defect}
      beyond tolerance, result probabilities outside [0, 1]) — a faulted
      lane degrades {e alone}, carrying its batch fault, while the rest of
      its block completes;
    + the allocation-free {!Epp_engine.Workspace} kernel, post-checked the
      same way ({!Epp_engine.Workspace.last_vector_defect});
    + on any kernel exception or sentinel trip, the boxed
      {!Epp_engine.analyze_site} reference path, result-checked;
    + if that also fails, the site is {e quarantined} into a typed
      {!Diag.quarantine} record and the sweep continues.

    Fan-out uses {!Parallel.map_array}; batched sweeps hand each domain
    whole blocks (one union-cone walk each) instead of per-site crumbs.
    Because the per-site wrapper never raises, one bad site can neither
    kill nor deadlock the sweep.  Sites are processed in chunks so a
    checkpoint callback ({!Report.Checkpoint} wires one) sees completed
    results periodically. *)

type entry =
  | Analyzed of { result : Epp_engine.site_result; step : Diag.step }
      (** the rung that produced the result *)
  | Quarantined of Diag.quarantine

(** Whether the sweep starts on the batch rung.  [Auto] (the default)
    consults {!Epp_batch.should_batch} — dense circuits batch, tiny or
    cone-local ones keep the per-site kernel; [Always] forces the batch
    rung whenever the engine supports it (polarity mode); [Never] is the
    pre-batch ladder. *)
type batch_mode =
  | Auto
  | Always
  | Never

type outcome = {
  entries : (int * entry) list;  (** (site, entry), in input order *)
  stats : Diag.stats;
  completion : Diag.completion;
      (** whether every requested site was covered, or the sweep's
          {!Obs.Deadline} budget expired first (entries then hold the
          finished subset — nothing finished is ever dropped) *)
}

val default_tolerance : float
(** [1e-6] — matches {!Prob4.normalize}'s drift bound: a larger defect is a
    rule bug or poisoned input, not rounding. *)

val analyze_entry :
  ?ctx:Obs.Ctx.t ->
  ?tolerance:float ->
  ?prior_faults:(Diag.step * Diag.fault) list ->
  ?kernel:(Epp_engine.Workspace.ws -> int -> Epp_engine.site_result) ->
  ?reference:(Epp_engine.t -> int -> Epp_engine.site_result) ->
  Epp_engine.Workspace.ws ->
  int ->
  entry
(** One site through the per-site rungs (kernel -> reference ->
    quarantine); never raises.  [prior_faults] carries faults from earlier
    rungs (the batch rung's per-lane fault) into the quarantine record.
    [kernel] / [reference] replace the rung implementations — the
    deterministic fault-injection seam used by the resilience tests (a stub
    that raises or returns a defective result exercises each rung; the
    vector-sum sentinel only runs for the real kernel, since a stub leaves
    no vectors in the workspace).  Ladder transitions log through
    {!Obs.Log}: a kernel-rung failure emits [supervisor.degrade] (Debug), a
    quarantine emits [supervisor.quarantine] (Warn) — both carrying [ctx]'s
    request id. *)

val sweep :
  ?ctx:Obs.Ctx.t ->
  ?domains:int ->
  ?tolerance:float ->
  ?chunk_size:int ->
  ?on_chunk:(done_count:int -> total:int -> (int * entry) list -> unit) ->
  ?batch:batch_mode ->
  ?batch_run:
    (Epp_batch.Block.ws ->
    int array ->
    (Epp_engine.site_result, exn) result array) ->
  ?kernel:(Epp_engine.Workspace.ws -> int -> Epp_engine.site_result) ->
  ?reference:(Epp_engine.t -> int -> Epp_engine.site_result) ->
  ?deadline:Obs.Deadline.t ->
  Epp_engine.t ->
  int list ->
  outcome
(** Supervised parallel sweep over the given sites.  [on_chunk] fires after
    each completed chunk ([chunk_size] sites, default 1024) with that
    chunk's entries, on the calling domain — the checkpoint hook.  An
    exception from [on_chunk] itself aborts the sweep (all domains already
    joined) and propagates.  [batch] selects the batch rung (default
    {!Auto}); [batch_run] replaces the block engine — the fault-injection
    seam for the batch rung (per-lane [Error]s degrade those lanes, a raise
    degrades the whole block; the lane vector sentinel only runs for the
    real engine).

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
  ?tolerance:float ->
  ?chunk_size:int ->
  ?on_chunk:(done_count:int -> total:int -> (int * entry) list -> unit) ->
  ?batch:batch_mode ->
  ?batch_run:
    (Epp_batch.Block.ws ->
    int array ->
    (Epp_engine.site_result, exn) result array) ->
  ?kernel:(Epp_engine.Workspace.ws -> int -> Epp_engine.site_result) ->
  ?reference:(Epp_engine.t -> int -> Epp_engine.site_result) ->
  ?deadline:Obs.Deadline.t ->
  Epp_engine.t ->
  outcome
(** {!sweep} over every node of the engine's circuit. *)

val results : outcome -> Epp_engine.site_result list
(** The successfully analyzed results, input order (quarantines dropped). *)

val quarantines : outcome -> Diag.quarantine list

val stats_of_entries : ?resumed:int -> (int * entry) list -> Diag.stats
(** Recount a merged entry list (checkpoint replay + fresh analysis);
    [resumed] is carried into the result. *)
