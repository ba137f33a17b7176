(** Load-independent gate delay model for static timing analysis:
    per-kind intrinsic delay + per-fanin slope + per-edge wire delay. *)

type t = {
  name : string;
  intrinsic : Netlist.Gate.kind -> float;
  per_fanin : float;
  wire : float;
}

val generic_130nm : t
(** Representative 130 nm-class delays (25 ps inverter ... 70 ps XOR). *)

val unit_delay : t
(** Every gate costs 1.0, wires are free — levels, in effect. *)

val gate_delay : t -> Netlist.Gate.kind -> fanin:int -> float
(** @raise Invalid_argument on negative fanin. *)

val pp : t Fmt.t
