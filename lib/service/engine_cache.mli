(** The hot-circuit cache: repeat queries must not pay parse, signal
    probabilities, or topological analysis again.

    Two tiers, both keyed off request content:

    + a {e payload alias} map from the MD5 of the raw circuit payload
      (format tag + source bytes) to the engine's
      {!Report.Checkpoint.fingerprint} — a front-door hit skips parsing
      entirely;
    + a bounded LRU from fingerprint to the warmed {!Epp.Epp_engine.t}
      (whose {!Netlist.Analysis} context already holds the topological
      order), so two textually different payloads that elaborate to the
      same analysis share one resident engine.

    Hits and misses are metered on the live {!Obs} registry as
    [analysis.cache.engine.hit] / [analysis.cache.engine.miss], with
    [analysis.cache.engine.resident] gauging occupancy — a cache-served
    request leaves [analysis.topo.computed] untouched. *)

type t

val create : capacity:int -> t
(** At most [capacity] resident engines; least-recently-used is evicted
    (with its payload aliases).
    @raise Invalid_argument if [capacity < 1]. *)

type outcome = {
  engine : Epp.Epp_engine.t;
  fingerprint : string;  (** {!Report.Checkpoint.fingerprint} of [engine] *)
  hit : bool;
}

val find_or_build :
  ?ctx:Obs.Ctx.t ->
  t ->
  format:string ->
  source:string ->
  build:(unit -> Epp.Epp_engine.t) ->
  outcome
(** [build] runs only on a miss (parse + engine construction); whatever it
    raises propagates unchanged and caches nothing.  Hits, misses, and
    evictions log through {!Obs.Log} ([engine_cache.hit] / [.miss] Debug,
    [.evict] Info) carrying [ctx]'s request id. *)

val resident : t -> int

(** {2 Fingerprint-keyed access}

    The serd [edit] path works on fingerprints a previous response
    reported: the base engine is looked up by fingerprint (no payload), the
    post-edit engine is inserted under its own fingerprint, and each
    engine's complete whole-circuit sweep can be remembered so the next
    edit splices clean sites instead of re-analyzing them, and a repeat
    whole-circuit [analyze] answers from it.  A remembered sweep is one
    {!Epp.Supervisor.entry} slot per site id (one word a site); the entries
    hold {!Epp.Site_row.t}s, and an edit keeps a clean site's entry
    itself, so the resident engines of one edit chain share their clean
    entries and rows. *)

val find_fingerprint : t -> string -> outcome option
(** Touch and return the resident engine under this fingerprint, if any. *)

val insert : ?ctx:Obs.Ctx.t -> t -> fingerprint:string -> Epp.Epp_engine.t -> Epp.Epp_engine.t
(** Make an already-built engine resident under [fingerprint] (evicting
    LRU overflow).  If the fingerprint is already resident, the existing
    engine is kept (its caches are warmer) and returned. *)

val remember_results : t -> fingerprint:string -> (int * Epp.Supervisor.entry) list -> unit
(** Attach a complete whole-circuit sweep ({!Epp.Supervisor.outcome}'s
    [entries]) to the resident engine, kept as one slot per site (no-op if
    the fingerprint is not resident).  Evicted with the engine.
    @raise Invalid_argument unless the entries are sites [0 .. n-1] in
    order, [n] the engine circuit's node count. *)

val results_for : t -> fingerprint:string -> (int * Epp.Supervisor.entry) list option
(** The remembered sweep as the [(site, entry)] list, in site order, that
    {!Epp.Supervisor.sweep_all} and {!Epp.Incremental.sweep} take as
    [prior]: built on each call, so only the slots stay resident. *)
