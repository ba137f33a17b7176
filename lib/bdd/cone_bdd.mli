(** Cone-partitioned exact EPP under a node budget.

    Per-site symbolic construction for circuits where the monolithic
    {!Circuit_bdd} manager cannot be built: only the fan-in cones of the
    observation points the site actually reaches are compiled, over only
    the pseudo-inputs in those cones, with one round of sifting
    ({!Bdd.Reorder}) when the manager crosses half its budget while the
    good and faulty machines are built.  Crossing
    the full budget is an {e outcome}, not an exception — the certified
    tier falls back to sound interval bounds. *)

type exact = {
  site : int;
  p_sensitized : float;  (** exact [P(any observation flips)] *)
  per_observation : (Netlist.Circuit.observation * float) list;
      (** all observation points, unreached ones at 0.0 — aligned with
          {!Netlist.Circuit.observations} *)
  bdd_nodes : int;  (** manager size when the numbers were extracted *)
  support : int;  (** BDD variables = pseudo-inputs in the relevant cones *)
  reordered : bool;  (** whether the sifting rung fired *)
}

type outcome =
  | Exact of exact
  | Budget_exceeded of { nodes : int; support : int }
      (** the manager crossed [node_budget] even after reordering (or
          [should_stop] fired); [nodes] is its size at that point *)

val default_node_budget : int

val epp_exact_cone :
  ?input_sp:(int -> float) ->
  ?node_budget:int ->
  ?allow_reorder:bool ->
  ?should_stop:(unit -> bool) ->
  Netlist.Circuit.t ->
  int ->
  outcome
(** [epp_exact_cone c site] attempts the exact per-site EPP.  [input_sp]
    gives each pseudo-input's signal probability (default 0.5);
    [node_budget] bounds the manager (default {!default_node_budget},
    checked after every gate); [allow_reorder] enables the one-shot
    sifting rung at half budget (default true); [should_stop] is polled at
    every budget check and converts to [Budget_exceeded] when it fires
    (deadline cancellation without an obs dependency).  Unobservable sites
    return [Exact] with probability 0 and no symbolic work.
    @raise Invalid_argument on a bad site or an absurdly small budget. *)
