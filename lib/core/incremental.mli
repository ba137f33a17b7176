(** Incremental re-analysis after a {!Netlist.Transform} edit.

    Per-site EPP results depend only on the site's forward cone and the
    signal probabilities feeding it, so after an edit only the sites whose
    cone geometry, side-input probabilities, or reached observation points
    changed need re-analysis; every other pre-edit entry is carried into
    the new outcome as it is (property-tested against a cold full
    sweep).  The flow is: {!rebase} the engine across the delta (patching
    the analysis context via {!Netlist.Analysis.apply_delta}), {!plan} the
    dirty set, then {!sweep} only the dirty sites and splice the rest from
    the prior outcome.

    Metered by [epp.incremental.dirty_sites] / [epp.incremental.clean_reused]
    (counters) and [epp.incremental.dirty_fraction] (gauge, the swept share
    of the last plan). *)

type plan

val rebase : Epp_engine.t -> Netlist.Delta.t -> Epp_engine.t * [ `Patched | `Rebuilt ]
(** Carry an engine across an edit: the analysis context is patched (or
    rebuilt) via {!Netlist.Analysis.apply_delta}, and a fresh engine is
    created on the post-edit circuit.  Signal probabilities are recomputed
    — the planner bit-compares them to bound the dirty set. *)

val plan : before:Epp_engine.t -> after:Epp_engine.t -> Netlist.Delta.t -> plan
(** Compute the dirty set: sites backward-reaching (in either circuit) a
    touched/added/removed node, a node whose signal probability changed
    bit-for-bit (or one of its consumers, which read it as a side input),
    or an observation position whose observed net moved.  When the
    observation interfaces are incompatible (length or kind mismatch, or an
    FF observation whose flip-flop does not survive) the plan degrades to
    all-dirty ({!is_full}).  @raise Invalid_argument when either engine is
    not on the delta's corresponding circuit. *)

val dirty : plan -> bool array
(** Per post-edit node id; the returned array is the plan's own. *)

val dirty_count : plan -> int
val total : plan -> int
val dirty_fraction : plan -> float
val is_full : plan -> bool
val delta : plan -> Netlist.Delta.t

val sweep :
  ?ctx:Obs.Ctx.t ->
  ?domains:int ->
  ?batch_run:
    (Epp_batch.Block.ws ->
    int array ->
    (Site_row.t, exn) result array) ->
  ?deadline:Obs.Deadline.t ->
  plan ->
  prior:(int * Supervisor.entry) list ->
  Epp_engine.t ->
  Supervisor.outcome
(** Whole-circuit outcome on the post-edit engine: clean sites are spliced
    from [prior] (an outcome's [entries] from the {e pre-edit} engine,
    keyed by pre-edit site ids) under the id remap, each keeping its prior
    entry itself — a row names observations by position, and a plan that
    is not {!is_full} keeps them aligned — and handed to
    {!Supervisor.sweep_all} as its [prior]; it sweeps the dirty sites (plus
    sites with no usable prior entry — missing or quarantined).  So entries come back in site-id order, [stats] counts
    spliced sites as [resumed], and a deadline expiry counts them as
    analyzed, exactly as for a replayed checkpoint.
    @raise Invalid_argument when [engine] is not on the plan's
    post-edit circuit. *)
