(** Per-gate signal-probability composition under the independence assumption
    (Parker–McCluskey, the paper's reference [5]). *)

val gate_sp : Netlist.Gate.kind -> float array -> float
(** Probability of the gate output being 1 given independent inputs with the
    given 1-probabilities.  Result is clamped to [0, 1] against rounding.
    @raise Netlist.Gate.Arity_error on an arity violation.
    @raise Invalid_argument if an input probability is outside [0, 1]
    (including NaN). *)

val eval_gate : Netlist.Gate.kind -> int array -> float array -> int -> unit
(** [eval_gate kind fanins values out] stores at [values.(out)] what
    {!gate_sp} returns for the inputs [values.(fanins.(i))], bit for bit
    ({!gate_sp} is defined through it): the in-place form the engines use,
    allocation-free.  Neither the arity nor the inputs are checked; the
    caller has validated both. *)

val check_probability : what:string -> float -> unit
(** @raise Invalid_argument unless [0 <= p <= 1]. *)

val clamp : float -> float
