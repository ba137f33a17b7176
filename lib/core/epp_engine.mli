(** The paper's analytical EPP computation (Sec. 2): per error site, one
    topological pass over the site's output cone with the Table-1 rules,
    yielding the per-output propagation probabilities and

    [P_sensitized(n) = 1 - ∏ (1 - (Pa(POj) + Pā(POj)))].

    An engine value holds the circuit's shared {!Netlist.Analysis} context
    (topological order and friends, computed once per circuit, the SPT
    column of Table 2) and the signal probabilities, so each site analysis
    walks its cone's members and costs the cone, not the circuit.
    {!analyze_site} is the boxed reference
    oracle; sweeps run the bit-identical {!Epp_batch} block engine through
    {!Ser_estimator.analyze_sites} (the SysT column) or {!Supervisor}.
    The paper's two design choices each have a per-site ablation beside it:
    {!analyze_site_naive} and {!analyze_site_whole_circuit}. *)

type t

(** One site's result as the reference returns it, and the list-shaped
    view of a {!Site_row.t} ({!Site_row.to_site_result}) for the
    unsupervised driver, FIT composition and the CLIs.  Sweeps keep rows:
    8 words an observation entry here, 2 in a row. *)
type site_result = {
  site : int;
  p_sensitized : float;
  per_observation : (Netlist.Circuit.observation * float) list;
      (** [Pa + Pā] at each reachable observation point *)
  cone_size : int;  (** number of on-path signals *)
  reached_outputs : int;
}

exception
  Invalid_signal_probability of { node : int; name : string; value : float }
(** A caller-provided signal probability that is NaN or outside [0, 1] —
    named after the offending node instead of silently poisoning every cone
    that consumes it. *)

val create : ?sp:Sigprob.Sp.result -> Netlist.Circuit.t -> t
(** [sp] defaults to the sequential fixpoint probabilities when the circuit
    has flip-flops, and to the plain topological pass otherwise.
    @raise Invalid_argument if [sp] belongs to a different circuit.
    @raise Invalid_signal_probability if a provided [sp] entry is NaN or
    outside [0, 1]. *)

val circuit : t -> Netlist.Circuit.t

val analysis : t -> Netlist.Analysis.t
(** The circuit's shared analysis context the engine pulls its structural
    facts from. *)

val signal_probabilities : t -> Sigprob.Sp.result

val sp_fixpoint : t -> Sigprob.Sp_sequential.outcome option
(** How the sequential fixpoint behind {!signal_probabilities} ended
    (iterations, convergence, residual) when {!create} computed it itself;
    [None] for a combinational circuit or a caller-provided [sp]. *)

val analyze_site : t -> int -> site_result
(** Steps 1-3 of the paper's per-site algorithm.
    @raise Invalid_argument on an out-of-range site. *)

val analyze_site_naive : t -> int -> site_result
(** The polarity-blind ablation: {!analyze_site} with the three-state
    {!Rules.Naive} rules, which cannot see reconvergent errors cancel.
    @raise Invalid_argument on an out-of-range site. *)

val analyze_site_whole_circuit : t -> int -> site_result
(** The whole-circuit ablation: {!analyze_site} without step 1's cone
    restriction, walking every gate of the circuit (with a node-sized cone
    mask and vector array).  Identical results; it shows what path
    construction saves.
    @raise Invalid_argument on an out-of-range site. *)

val analyze_site_vectors :
  t -> ?initial:Prob4.t -> int -> (Netlist.Circuit.observation * Prob4.t) list
(** The full four-state vectors at the reachable observation points,
    optionally injecting a partial error vector at the site instead of the
    certain [Prob4.error_site] (used by {!Multi_cycle} to continue errors
    latched in flip-flops).  @raise Invalid_argument on an out-of-range
    site. *)

val pp_site_result : Netlist.Circuit.t -> site_result Fmt.t
