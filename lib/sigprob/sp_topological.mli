(** Parker–McCluskey topological signal probability (single levelized pass,
    independence assumption).  Exact on fanout-free circuits; approximate
    under reconvergent fanout.  Its runtime is the SPT column of the paper's
    Table 2. *)

val compute : ?spec:Sp.spec -> Netlist.Circuit.t -> Sp.result
(** Defaults to {!Sp.uniform} inputs.
    @raise Invalid_argument if [spec] yields a probability outside [0, 1]. *)

val fill : Netlist.Circuit.t -> input_sp:(int -> float) -> float array -> unit
(** The pass {!compute} runs, into a caller-owned array of one value per
    node: each pseudo-input's probability is read from [input_sp] once and
    checked, and every gate is evaluated in place in topological order.
    @raise Invalid_argument as {!compute} does. *)
