(** Checkpoint / resume for supervised sweeps.

    A checkpoint is a file of completed {!Epp.Supervisor.entry} lines
    behind a header, keyed by a fingerprint of the analysis — the circuit
    structure and the signal probabilities actually in the engine — so a
    snapshot can never silently resume against a different analysis.  The
    file is created atomically (write-temp-then-rename) and each chunk's
    entries are then appended and fsynced, so a kill mid-append leaves at
    worst an unterminated last line, which readers ignore.  Floats are
    serialized in hexadecimal ([%h]), so a resumed sweep replays results
    bit-identically.

    An entry's {!Epp.Site_row.t} names its reached observation points by
    position; a snapshot names them by kind and node, so {!save} and the
    readers take the circuit whose observations the positions index.  The
    bytes are those of snapshots written before rows existed, and such
    snapshots still resume. *)

type t = {
  fingerprint : string;
  total_sites : int;  (** of the full sweep the snapshot belongs to *)
  entries : (int * Epp.Supervisor.entry) list;
      (** sorted by site id (a resumed sweep's file lists its own sites
          after the replayed ones; {!load} sorts them) *)
}

type error =
  | Fingerprint_mismatch of { expected : string; found : string }
      (** the snapshot belongs to a different circuit / sp *)
  | Corrupt of { path : string; message : string }

val error_message : error -> string

val add_hex_float : Buffer.t -> float -> unit
(** Writes the bytes [Printf.bprintf buf "%h" x] would: the form every
    float of a snapshot takes ("-0x1.8p-2", "infinity", "-nan", ...). *)

val fingerprint : Epp.Epp_engine.t -> string
(** Hex digest over the circuit name and structure (node kinds, fanins,
    the input/output/FF interface, signal names) and the engine's
    signal-probability vector (bit-exact).  The encoding (v2) is
    injective — version tag, length-prefixed strings, length-prefixed
    sections — so any edit to the circuit yields a fresh fingerprint; no
    name can alias the separators and make a stale pre-edit snapshot
    replayable.  Its last bytes are a constant that once named the engine
    mode, kept so that older snapshots keep their fingerprint. *)

val save : ?ctx:Obs.Ctx.t -> circuit:Netlist.Circuit.t -> string -> t -> unit
(** Writes the snapshot of entries on [circuit].  Atomic and durable: writes [path ^ ".tmp"], fsyncs it, renames over
    [path], then fsyncs the parent directory so the rename survives power
    loss (directory fsync failure is tolerated — some filesystems refuse
    it — but data fsync failure propagates).
    @raise Sys_error on I/O failure. *)

val load : circuit:Netlist.Circuit.t -> string -> (t, error) result
(** Parses a snapshot of entries on [circuit]; never raises on malformed
    input ([Corrupt], which includes an observation point [circuit] does
    not have, or one listed out of order).  An unterminated last line — an
    append cut short — is ignored; any malformed complete line is
    [Corrupt]. *)

val replay :
  ?ctx:Obs.Ctx.t ->
  circuit:Netlist.Circuit.t ->
  string ->
  fingerprint:string ->
  ((int * Epp.Supervisor.entry) list, error) result
(** The entries of the snapshot at [path], for {!Epp.Supervisor.sweep_all}'s
    [prior], when it belongs to the analysis with [fingerprint] (on
    [circuit]); none when no file exists.  The fingerprint is checked
    before any entry is read.  A mismatched or corrupt snapshot is an
    [Error], never silently ignored; an unterminated last line is ignored
    as in {!load}. *)

val recorder :
  ?ctx:Obs.Ctx.t ->
  circuit:Netlist.Circuit.t ->
  string ->
  fingerprint:string ->
  done_count:int ->
  total:int ->
  (int * Epp.Supervisor.entry) list ->
  unit
(** [recorder path ~fingerprint] is an [on_chunk] hook for
    {!Epp.Supervisor.sweep_all}: it appends the chunk's new entries to the
    file at [path] and fsyncs it before it returns, first cutting an
    unterminated last line.  When [path] does not exist, or is empty, it
    creates it instead, header and entries, atomically as {!save} does.  The file
    must otherwise hold the sweep's [prior] entries already — a fresh
    header, or the snapshot they were replayed from — so that it ends up
    holding every finished entry once. *)

val supervised_sweep :
  ?ctx:Obs.Ctx.t ->
  ?domains:int ->
  ?chunk_size:int ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?on_progress:(done_count:int -> total:int -> unit) ->
  ?batch_run:
    (Epp.Epp_batch.Block.ws ->
    int array ->
    (Epp.Site_row.t, exn) result array) ->
  ?reference:(Epp.Epp_engine.t -> int -> Epp.Epp_engine.site_result) ->
  ?deadline:Obs.Deadline.t ->
  Epp.Epp_engine.t ->
  (Epp.Supervisor.outcome, error) result
(** {!Epp.Supervisor.sweep_all} wired to checkpointing:

    - with [checkpoint], the sweep starts a fresh file (header only,
      written atomically) unless it resumes a matching one, and every
      chunk's entries are appended to it ({!recorder}).  A fresh,
      uninterrupted sweep's file has the bytes {!save} writes for its
      outcome;
    - with [resume] (and an existing checkpoint file), a matching
      snapshot's entries ({!replay}) are the sweep's [prior]: they are not
      re-analyzed, and the sweep counts them as [stats.resumed], as covered
      in [on_progress] and as analyzed when a [deadline] cuts it short.
      The sweep's own entries are appended after them.  A missing
      checkpoint file resumes from nothing; a mismatched or corrupt one is
      an [Error], and nothing is swept or written.

    The fingerprint is computed only with [checkpoint].  [batch_run],
    [reference], [deadline] and [chunk_size] pass through to the sweep.
    On a deadline expiry the file holds every finished entry, so a later
    [resume] continues from exactly there. *)
