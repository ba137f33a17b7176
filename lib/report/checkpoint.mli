(** Checkpoint / resume for supervised sweeps.

    A checkpoint is a periodic atomic snapshot (write-temp-then-rename, so a
    kill mid-write leaves the previous snapshot intact) of every completed
    {!Epp.Supervisor.entry}, keyed by a fingerprint of the analysis — the
    circuit structure, the signal probabilities actually in the engine, and
    the engine mode — so a snapshot can never silently resume against a
    different analysis.  Floats are serialized in hexadecimal ([%h]), so a
    resumed sweep replays results bit-identically. *)

type t = {
  fingerprint : string;
  total_sites : int;  (** of the full sweep the snapshot belongs to *)
  entries : (int * Epp.Supervisor.entry) list;  (** sorted by site id *)
}

type error =
  | Fingerprint_mismatch of { expected : string; found : string }
      (** the snapshot belongs to a different circuit / sp / mode *)
  | Corrupt of { path : string; message : string }

val error_message : error -> string

val fingerprint : Epp.Epp_engine.t -> string
(** Hex digest over the circuit name and structure (node kinds, fanins,
    the input/output/FF interface, signal names), the engine's
    signal-probability vector (bit-exact), and the engine mode /
    cone-restriction flags.  The encoding (v2) is injective — version
    tag, length-prefixed strings, length-prefixed sections — so any edit
    to the circuit yields a fresh fingerprint; no name can alias the
    separators and make a stale pre-edit snapshot replayable. *)

val save : ?ctx:Obs.Ctx.t -> string -> t -> unit
(** Atomic and durable: writes [path ^ ".tmp"], fsyncs it, renames over
    [path], then fsyncs the parent directory so the rename survives power
    loss (directory fsync failure is tolerated — some filesystems refuse
    it — but data fsync failure propagates).
    @raise Sys_error on I/O failure. *)

val load : string -> (t, error) result
(** Parses a snapshot; never raises on malformed input ([Corrupt]). *)

val supervised_sweep :
  ?ctx:Obs.Ctx.t ->
  ?domains:int ->
  ?tolerance:float ->
  ?chunk_size:int ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?on_progress:(done_count:int -> total:int -> unit) ->
  ?batch_run:
    (Epp.Epp_batch.Block.ws ->
    int array ->
    (Epp.Epp_engine.site_result, exn) result array) ->
  ?reference:(Epp.Epp_engine.t -> int -> Epp.Epp_engine.site_result) ->
  ?deadline:Obs.Deadline.t ->
  Epp.Epp_engine.t ->
  (Epp.Supervisor.outcome, error) result
(** The full supervised sweep over every site, wired to checkpointing:

    - with [checkpoint], a snapshot of all completed entries is rewritten
      atomically after every chunk and once more at the end;
    - with [resume] (and an existing checkpoint file), entries whose
      fingerprint matches are replayed without re-analysis — only the
      remainder is swept — and [stats.resumed] counts them.  A missing
      checkpoint file resumes from nothing; a mismatched or corrupt one is
      an [Error], never silently ignored.

    [batch_run] / [reference] pass through to {!Epp.Supervisor.sweep}'s
    fault-injection seam.  [on_progress] fires after every chunk on the
    calling domain with {e overall} coverage — replayed entries count as
    done (the progress-meter hook).  Entries come back sorted by site id —
    input order for a whole-circuit sweep.

    [deadline] passes through to {!Epp.Supervisor.sweep}: on expiry the
    sweep stops, the final snapshot still holds every finished entry (so a
    later [resume] continues from exactly there), and the outcome's
    [completion] reports overall coverage with replayed entries counted as
    analyzed. *)
