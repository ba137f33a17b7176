(* Gate delay model for static timing analysis.

   A simple load-independent model in the spirit of technology-mapped
   libraries: every gate kind has an intrinsic delay plus a per-fanin
   slope (wider gates are slower), inverters fastest, XOR-family slowest.
   Units are seconds.  The absolute values are representative of a
   130 nm-class standard-cell library; as with the SEU technology model,
   every reproduced quantity is relative, so the shape (ordering and
   ratios) is what matters. *)

open Netlist

type t = {
  name : string;
  intrinsic : Gate.kind -> float;  (** base propagation delay, seconds *)
  per_fanin : float;  (** additional delay per fanin beyond the first *)
  wire : float;  (** per-edge interconnect delay *)
}

let generic_130nm =
  let intrinsic = function
    | Gate.Not | Gate.Buf -> 25.0e-12
    | Gate.Nand | Gate.Nor -> 35.0e-12
    | Gate.And | Gate.Or -> 45.0e-12 (* NAND/NOR + output inverter *)
    | Gate.Xor | Gate.Xnor -> 70.0e-12
    | Gate.Const0 | Gate.Const1 -> 0.0
  in
  { name = "generic-130nm"; intrinsic; per_fanin = 8.0e-12; wire = 5.0e-12 }

let unit_delay =
  let intrinsic = function
    | Gate.Const0 | Gate.Const1 -> 0.0
    | Gate.And | Gate.Nand | Gate.Or | Gate.Nor | Gate.Xor | Gate.Xnor | Gate.Not
    | Gate.Buf ->
      1.0
  in
  { name = "unit"; intrinsic; per_fanin = 0.0; wire = 0.0 }

let gate_delay t kind ~fanin =
  if fanin < 0 then invalid_arg "Delay_model.gate_delay: negative fanin";
  t.intrinsic kind +. (t.per_fanin *. float_of_int (max 0 (fanin - 1)))

let pp ppf t = Fmt.pf ppf "%s (+%.3g s/fanin, wire %.3g s)" t.name t.per_fanin t.wire
