(** Netlist rewriting: cleanup passes and the TMR hardening transform.

    The cleanup passes rebuild through {!Builder} (re-validating every
    invariant).  TMR and the metamorphic mutations only add helper gates
    and rewire consumers, so they emit the new node array directly, with
    the ids a Builder rebuild would assign; that they keep a valid circuit
    valid, and match the Builder rebuild id for id, is checked by the
    regression suite.  Every pass preserves the names of surviving signals,
    so callers can track nodes across a rewrite by name.  Boolean behaviour at every observation point
    is preserved by construction (tested by simulation equivalence). *)

val propagate_constants : Circuit.t -> Circuit.t
(** Fold CONST0/CONST1 through the logic: controlling constants annihilate
    gates, non-controlling constants drop out, XOR-family inputs at 1
    toggle polarity, and unary survivors collapse to aliases/NOTs. *)

val merge_duplicates : Circuit.t -> Circuit.t
(** Structural hashing: gates with equal kind and equal fanins (up to
    permutation for commutative kinds) are merged.  Runs in topological
    order, so merged fanins cascade. *)

val sweep_unobservable : Circuit.t -> Circuit.t
(** Delete gates outside every observation point's fan-in cone. *)

val optimize : Circuit.t -> Circuit.t
(** [sweep_unobservable (merge_duplicates (propagate_constants c))]. *)

exception Not_a_gate of string
(** Raised by {!triplicate} when asked to harden an input or flip-flop. *)

val triplicate : Circuit.t -> nodes:int list -> Circuit.t
(** Triple modular redundancy on the selected gates: each gets two replicas
    (named [<n>#tmr1], [<n>#tmr2]) and a 2-of-3 majority voter
    ([<n>#vote] = OR of the three pairwise ANDs [<n>#maj01], [<n>#maj12],
    [<n>#maj02]); consumers are rewired to the voter.  A helper name the
    circuit already uses (a gate triplicated twice) gets the first free
    numeric suffix, e.g. [<n>#tmr12]; this holds for every helper name the
    rewrites below mint.  A single SEU on any replica is masked exactly — the BDD
    oracle shows [P_sensitized = 0] for replicas, while the analytical EPP
    engine (independence assumption) reports a small positive residual:
    the voter's correlated side inputs are precisely what independence
    misses.  @raise Invalid_argument on a bad node id.
    @raise Not_a_gate when a non-gate is selected. *)

(** {2 Metamorphic mutations}

    Semantics-preserving rewrites used by the conformance fuzzer
    ([lib/conformance]): each keeps every original node alive under its own
    name and preserves the boolean function at every observation point, so
    [P_sensitized] of every surviving site is unchanged — {e exactly} for
    the exact oracles (enumeration, BDD, simulation over the same vectors),
    and up to floating-point re-association (≲1e-12 at test sizes) for the
    analytical EPP engine, whose signal probabilities may be recomputed
    through differently-ordered but mathematically equal expressions. *)

val insert_identity : ?double_invert:bool -> Circuit.t -> net:int -> Circuit.t
(** Insert an identity stage on [net]'s fanout: every consumer (gate fanin,
    FF data input, primary-output declaration) is rewired to read a fresh
    [BUF] of [net] ([<n>#buf]) — or, with [double_invert], a NOT-NOT chain
    ([<n>#ii1], [<n>#ii2]).  EPP invariant: the identity stage copies (or
    twice complements) the four-state vector, so the propagation probability
    of every original site is unchanged.  @raise Invalid_argument on a bad
    node id. *)

val split_fanout : Circuit.t -> net:int -> Circuit.t
(** Split [net]'s fanout: consumer slots alternate between reading [net]
    directly and reading a fresh buffer copy ([<n>#split]).  Returns the
    circuit unchanged when [net] has fewer than two consumer slots.  Same
    EPP invariant as {!insert_identity}.  @raise Invalid_argument on a bad
    node id. *)

val de_morgan : Circuit.t -> gate:int -> Circuit.t
(** Rewrite one AND/OR/NAND/NOR gate by De Morgan's law, keeping its output
    name: [NAND(x…)] becomes [OR(NOT x…)], [NOR(x…)] becomes [AND(NOT x…)],
    and [AND]/[OR] become [NOT] of the rewritten dual ([<n>#dual]); the
    fanin inverters are named [<n>#dm<i>].  The rules of Table 1 are exact
    duals, so the EPP of every original site is preserved (up to float
    rounding in the recomputed signal probabilities).
    @raise Invalid_argument on a bad node id or a gate outside the
    AND/OR/NAND/NOR family. *)

val permute_observations : Circuit.t -> perm:int array -> Circuit.t
(** Re-declare the primary outputs in permuted order ([perm] maps new
    position to old position).  [P_sensitized = 1 - ∏(1 - p_obs)] is
    order-independent, so per-site results are preserved (product
    re-association only).  @raise Invalid_argument if [perm] is not a
    permutation of the output indices. *)

(** {2 Delta-reporting variants}

    Each [*_delta] function performs the same rewrite as its plain
    counterpart and additionally returns the exact {!Delta.t}: touched
    survivors are computed by construction (the consumers a fanout rewiring
    redefines, the one gate De Morgan rewrites, the consumers of
    triplicated gates), and the regression suite checks every reported
    delta against {!Delta.structural_diff}.  The plain functions are
    [fst] of these. *)

val insert_identity_delta :
  ?double_invert:bool -> Circuit.t -> net:int -> Circuit.t * Delta.t

val split_fanout_delta : Circuit.t -> net:int -> Circuit.t * Delta.t
(** Returns {!Delta.identity} when [net] has fewer than two consumer
    slots (the circuit is returned unchanged). *)

val de_morgan_delta : Circuit.t -> gate:int -> Circuit.t * Delta.t

val triplicate_delta : Circuit.t -> nodes:int list -> Circuit.t * Delta.t

val permute_observations_delta :
  Circuit.t -> perm:int array -> Circuit.t * Delta.t
(** The delta has no touched nodes: only the observation interface moves,
    which consumers detect from the delta's circuits. *)
