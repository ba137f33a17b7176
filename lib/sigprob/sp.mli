(** Common vocabulary of the signal-probability engines: input specifications
    and per-node probability results. *)

type spec = { input_sp : int -> float }
(** Assignment of 1-probabilities to pseudo-inputs (primary inputs and, for
    combinational engines, flip-flop outputs). *)

val uniform : spec
(** Every input is 1 with probability 0.5 — the distribution under which the
    paper's random simulation draws its vectors. *)

val of_fun : (int -> float) -> spec

val of_alist : Netlist.Circuit.t -> (string * float) list -> spec
(** Named per-input probabilities; unnamed inputs default to 0.5.
    @raise Invalid_argument on an unknown signal name or a probability
    outside [0, 1]. *)

type result = { circuit : Netlist.Circuit.t; values : float array }
(** One probability per node of the circuit. *)

val baseline_input_sp : result -> int -> float
(** [baseline_input_sp r] is the pseudo-input distribution a random-simulation
    baseline draws its vectors from so that it answers the question an
    engine using [r] answers: flip-flop outputs at [r]'s values, primary
    inputs at 0.5. *)

val get : result -> int -> float
val get_name : result -> string -> float

val check_result : result -> unit
(** @raise Invalid_argument if any value is outside [0, 1] (or NaN). *)

val max_absolute_difference : result -> result -> float
(** Largest per-node gap between two results; the engines' agreement metric
    used by the tests.  @raise Invalid_argument on size mismatch. *)

val pp : result Fmt.t
