(** The seeded differential fuzz driver.

    Each case draws a circuit (profile-matched random DAGs, structured
    arithmetic blocks, or an embedded real netlist), runs every applicable
    oracle of the {!Oracle} registry on a sampled set of error sites,
    checks every comparable oracle pair under its agreement policy, then
    applies metamorphic mutations ({!Netlist.Transform}) and verifies both
    the per-mutation EPP invariant and the oracle agreement on the final
    mutant.  Fully deterministic from [config.seed].

    Telemetry (when live sinks are installed via {!Obs.Hooks}):
    [conformance.cases], [conformance.mutants], [conformance.comparisons],
    [conformance.disagreements], [conformance.invariant_checks] counters,
    a [conformance.oracle.<name>.seconds] histogram per oracle, and one
    trace span per oracle run. *)

type config = {
  seed : int;
  cases : int;
  time_budget : float option;  (** wall-clock seconds; [None] = unbounded *)
  mc_vectors : int;  (** Monte-Carlo vectors per site *)
  max_sites : int;  (** error sites sampled per circuit *)
  mutations_per_case : int;
  envelope : float;  (** analytical-vs-exact per-site ceiling *)
  wilson_z : float;
  invariant_tolerance : float;  (** metamorphic EPP drift bound, default 1e-12 *)
}

val default_config : config
(** seed 1, 100 cases, no time budget, 2048 vectors, 6 sites, 2 mutations,
    {!Oracle.default_envelope}, {!Oracle.default_z}, tolerance 1e-12. *)

val fingerprint : Netlist.Circuit.t -> string
(** One-line reproducibility fingerprint: name, node/input/FF/gate/PO
    counts, and a structural hash — printed with the failing seed so any
    fuzz or property failure can be rebuilt from CI logs. *)

(** {1 Findings} *)

type case_id = {
  index : int;  (** case number within the run, [-1] for external replays *)
  circuit_name : string;
  circuit_fingerprint : string;
}

type finding =
  | Mismatch of { case : case_id; mismatch : Oracle.mismatch }
  | Invariant_violation of {
      case : case_id;
      mutation : string;
      site_name : string;
      before : float;
      after : float;
    }  (** a metamorphic mutation changed a surviving site's EPP *)
  | Oracle_crash of { case : case_id; oracle : string; exn : string }

val is_hard : finding -> bool
(** Everything except a {!Oracle.Wilson}-policy mismatch. *)

val pp_finding : finding Fmt.t

(** {1 Checking one circuit} *)

type check = {
  comparisons : int;
  pairs : (string * string) list;  (** oracle pairs actually compared *)
  findings : finding list;
  skipped : (string * string) list;  (** (oracle, reason) — capacity skips *)
  envelope_max : float;  (** largest analytical-vs-exact deviation seen *)
  envelope_sum : float;
  envelope_count : int;
  oracle_seconds : (string * float) list;
}

val check_circuit :
  ?oracles:Oracle.t list ->
  ?envelope:float ->
  ?z:float ->
  ?case:case_id ->
  Netlist.Circuit.t ->
  sites:int array ->
  check
(** Run every applicable oracle on [sites] and compare all policy pairs.
    Back-end capacity exceptions become skips; any other oracle exception
    becomes an {!Oracle_crash} finding. *)

val check_all_sites :
  ?oracles:Oracle.t list -> ?envelope:float -> ?z:float -> ?case:case_id ->
  Netlist.Circuit.t -> check
(** {!check_circuit} over every node of the circuit. *)

(** {1 The fuzz run} *)

type report = {
  config : config;
  cases : int;
  mutants : int;
  sites : int;
  comparisons : int;
  pair_counts : (string * int) list;  (** ["left~right"] -> comparisons *)
  oracle_stats : (string * (int * float)) list;  (** oracle -> (runs, seconds) *)
  skip_counts : (string * int) list;
  hard : finding list;
  statistical : finding list;
  envelope_max : float;
  envelope_mean : float;  (** ties to the paper's ~6% average-deviation claim *)
  invariant_checks : int;
  elapsed_seconds : float;
}

val run : ?oracles:Oracle.t list -> config -> report

(** {1 Shrinker self-test: the perturbed-engine demo} *)

val perturbed_batch :
  unit ->
  Epp.Epp_batch.Block.ws ->
  int array ->
  (Epp.Site_row.t, exn) result array
(** A block engine for {!Oracle.supervised}'s fault-injection seam that
    halves every probability — an in-range, sentinel-silent wrong answer,
    so the supervised sweep propagates it and a bitwise analytical pair
    must disagree at every site with [P_sensitized > 0]. *)

type demo = {
  initial : Netlist.Circuit.t;
  initial_site : int;
  outcome : Shrinker.outcome;
  still_disagrees : bool;  (** the repro re-checked after shrinking *)
  blif : string;
  snippet : string;
}

val shrink_demo : ?seed:int -> ?gates:int -> unit -> demo
(** Generate a random DAG, install {!perturbed_batch} behind the
    supervised oracle, find a disagreeing site against the boxed reference,
    and shrink it to a minimal repro.  Deterministic from [seed]. *)
