(** The oracle registry of the differential-conformance subsystem: every way
    this repository can compute [P_sensitized], wrapped behind one interface
    and tagged with its soundness class, plus the pairwise agreement policy
    that says how closely two oracles must agree.

    Soundness classes drive the policy (DESIGN.md §12):

    - two {e analytical} oracles implement the same Table-1 specification
      (the boxed reference, the SoA kernel, the level-synchronous batch
      engine, the work-stealing parallel driver, the supervised sweep) and
      must agree {e bit-wise};
    - two {e exact} oracles (weighted enumeration, BDD) compute the same
      real number along different float paths and must agree within [1e-9];
    - an {e analytical} oracle against an {e exact} one is the paper's own
      experiment: agreement within a stated envelope (the per-site
      regression ceiling; the paper's ~6% figure is the {e average}
      deviation, reported separately);
    - a {e statistical} oracle (Monte-Carlo fault injection) against a
      deterministic one must agree within a Wilson score interval at a high
      [z] (plus the envelope when the deterministic side is analytical);
      violations are classified statistical, not hard failures.

    All oracles model the combinational core under independent pseudo-inputs
    with the given 1-probabilities (uniform 0.5 by default) — flip-flop
    outputs included, exactly as the exact enumeration and the BDD treat
    them. *)

type soundness =
  | Exact
  | Analytical  (** the paper's Table-1 rules: approximate under reconvergence *)
  | Statistical of { vectors : int }
  | Certified
      (** sound interval with an explicit certificate ({!Certified}) — exact
          when the cone BDD fits its budget, bounds otherwise *)

type result = {
  p_sensitized : float;
      (** for a [Certified] oracle, the interval midpoint *)
  per_observation : (Netlist.Circuit.observation * float) list;
  interval : (float * float) option;
      (** the sound [lo, hi] carried by [Certified] oracles; [None]
          elsewhere (read as the degenerate point interval) *)
}

val interval_of : result -> float * float
(** The carried interval, or the degenerate [(p, p)] point. *)

type t = {
  name : string;
  soundness : soundness;
  available : Netlist.Circuit.t -> string option;
      (** [Some reason] when the oracle cannot run on this circuit (size
          limits, unsupported features); [None] when applicable. *)
  run : Netlist.Circuit.t -> sites:int array -> result array;
      (** Per-site results aligned with [sites].  May raise the back-end's
          capacity exceptions ({!Fault_sim.Epp_exact.Too_many_inputs},
          [Circuit_bdd.Too_large]); the driver treats those as skips. *)
}

(** {1 The back-ends} *)

val exact_enum : ?input_sp:(int -> float) -> ?limit:int -> unit -> t
(** {!Fault_sim.Epp_exact} weighted exhaustive enumeration.  [limit]
    (default 16 pseudo-inputs) also gates {!field-available}. *)

val exact_bdd : ?input_sp:(int -> float) -> ?node_limit:int -> unit -> t
(** [Circuit_bdd.epp_exact] over the circuit compiled to BDDs. *)

val monte_carlo : ?input_sp:(int -> float) -> ?vectors:int -> ?seed:int -> unit -> t
(** {!Fault_sim.Epp_sim} bit-parallel random fault injection; [vectors]
    defaults to 2048, [seed] to 424242 (a fresh deterministic stream per
    {!field-run} call). *)

val reference : ?input_sp:(int -> float) -> unit -> t
(** The boxed {!Epp.Epp_engine.analyze_site} specification path. *)

val kernel : ?input_sp:(int -> float) -> unit -> t
(** The allocation-free {!Epp.Epp_engine.Workspace} SoA kernel. *)

val batch : ?input_sp:(int -> float) -> ?lanes:int -> unit -> t
(** The level-synchronous {!Epp.Epp_batch} block engine ([lanes] sites per
    union-cone walk, default {!Epp.Epp_batch.max_lanes}).  Analytical — it
    joins the Bitwise-compared panel, so any arithmetic divergence from the
    per-site kernel is a hard failure. *)

val parallel : ?input_sp:(int -> float) -> ?domains:int -> unit -> t
(** {!Epp.Parallel.analyze_sites} work-stealing fan-out. *)

val supervised :
  ?input_sp:(int -> float) ->
  ?kernel:(Epp.Epp_engine.Workspace.ws -> int -> Epp.Epp_engine.site_result) ->
  ?reference:(Epp.Epp_engine.t -> int -> Epp.Epp_engine.site_result) ->
  unit ->
  t
(** {!Epp.Supervisor.sweep}.  [kernel] / [reference] pass through to the
    supervisor's fault-injection seam — a perturbed [kernel] is how the
    shrinker's self-test manufactures a reproducible disagreement.  A
    quarantined site surfaces as a NaN result (and therefore a mismatch). *)

val certified :
  ?input_sp:(int -> float) ->
  ?config:Certified.config ->
  ?deadline:Obs.Deadline.t ->
  ?stats:Certified.Stats.t ->
  unit ->
  t
(** The {!Certified} budget ladder as an oracle: [p_sensitized] is the
    interval midpoint and {!field-interval} carries the sound bounds, so
    the pairwise policy is interval-aware.  Always available — this is the
    exact tier that scales.  Opt-in ([bin/fuzz --certified]); not part of
    {!default}. *)

val default : ?input_sp:(int -> float) -> ?mc_vectors:int -> ?mc_seed:int -> ?enum_limit:int -> unit -> t list
(** The full registry, in fixed order: exact-enum, exact-bdd, monte-carlo,
    reference, kernel, batch, parallel, supervised. *)

(** {1 Agreement policies} *)

type policy =
  | Bitwise  (** identical floats, including per-observation entries *)
  | Within of float  (** absolute tolerance, exact-vs-exact *)
  | Envelope of float  (** per-site analytical-vs-exact regression ceiling *)
  | Wilson of { z : float; vectors : int; slack : float }
      (** statistical-vs-deterministic: the deterministic value must lie
          within the Wilson score interval of the estimate at [z], widened
          by [slack] (the envelope when the deterministic side is
          analytical) *)
  | Interval of { slack : float }
      (** certified-vs-anything-deterministic: the two carried intervals
          (a point value reads as degenerate) must overlap once widened by
          [slack] — the envelope against analytical engines, the float
          tolerance against exact or certified ones, where a separation is
          a hard finding backed by the certificate *)

val policy : envelope:float -> z:float -> t -> t -> policy option
(** [None] when the pair is incomparable (statistical vs statistical, or
    certified vs statistical). *)

val is_statistical : policy -> bool

val default_envelope : float
(** [0.65] — the per-site analytical-vs-exact ceiling, calibrated on the
    fuzz generator profiles (worst observed deviation 0.57, on an
    XOR-reconvergent accumulator; see DESIGN.md §12).  Individual
    reconvergent sites deviate far beyond the paper's ~6% {e average};
    the ceiling exists to catch gross rule regressions, the average is
    tracked in the fuzz report as [envelope_mean] (observed ~4%). *)

val default_z : float
(** [4.5] — roughly a 7-in-a-million two-sided false-alarm rate per check. *)

type mismatch = {
  left : string;
  right : string;
  site : int;
  site_name : string;
  quantity : string;  (** ["p_sensitized"] or ["obs:<name>"] *)
  lhs : float;
  rhs : float;
  policy : policy;
  gap : float;  (** distance beyond the policy's allowance *)
}

val compare_site :
  policy:policy ->
  left:t ->
  right:t ->
  Netlist.Circuit.t ->
  int ->
  result ->
  result ->
  mismatch list
(** All quantity-level violations of [policy] for one site.  [Bitwise] and
    [Within] also compare the per-observation entries (aligned by
    observation point, absent entries reading 0); [Envelope] and [Wilson]
    compare [p_sensitized] only; [Interval] compares the carried intervals
    ({!interval_of}) and reports their separation beyond the slack as the
    gap.  NaN anywhere is a violation. *)

val deviation : result -> result -> float
(** [|p_sensitized - p_sensitized|], NaN-safe (NaN maps to [infinity]) —
    the envelope-tracking metric. *)

val pp_policy : policy Fmt.t
val pp_mismatch : mismatch Fmt.t
