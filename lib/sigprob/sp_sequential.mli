(** Steady-state signal probabilities for sequential circuits: fixpoint
    iteration of the topological engine over the flip-flop outputs (start at
    0.5, replace by the data-net probability, repeat to convergence). *)

type outcome = {
  result : Sp.result;  (** probabilities from the final iteration *)
  iterations : int;
  converged : bool;
  residual : float;  (** largest FF-output change in the last iteration *)
}

val default_tolerance : float
val default_max_iterations : int

val compute :
  ?spec:Sp.spec ->
  ?tolerance:float ->
  ?max_iterations:int ->
  Netlist.Circuit.t ->
  outcome
(** [spec] supplies primary-input probabilities only; flip-flop entries of
    [spec] are ignored (the fixpoint owns them).  A compute that stops at
    [max_iterations] without converging counts one [sp.unconverged].
    @raise Invalid_argument on a non-positive tolerance/iteration bound or a
    bad [spec] probability. *)

val default : Netlist.Circuit.t -> Sp.result
(** The signal probabilities every consumer defaults to, under uniform
    primary inputs: {!compute}'s result when the circuit has flip-flops,
    {!Sp_topological.compute} otherwise. *)

val default_outcome : Netlist.Circuit.t -> Sp.result * outcome option
(** {!default}, with the fixpoint's outcome when one ran (the circuit has
    flip-flops), so a caller can report whether it converged. *)

val spec_of_outcome : outcome -> Sp.spec
(** A spec presenting the converged FF-output probabilities, for feeding the
    combinational engines (and the EPP engine) directly. *)
