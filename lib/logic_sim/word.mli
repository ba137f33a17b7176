(** Helpers over 64-pattern simulation words (one bit = one input vector). *)

val bits : int
(** 64. *)

val popcount : int64 -> int

val get : int64 -> int -> bool
(** Bit [i] (0 = least significant). *)

val set : int64 -> int -> bool -> int64

val of_bool : bool -> int64
(** All 64 patterns equal: all-ones or all-zeros. *)

val low_mask : int -> int64
(** [low_mask n] keeps the low [n] bits; used when the last batch holds fewer
    than 64 live patterns.  @raise Invalid_argument unless 0 <= n <= 64. *)

val pp : int64 Fmt.t
