(** Flat open-addressing table from signal names to non-negative ints.

    The one name table of a circuit's construction: {!Builder} interns each
    name into it as a slot, [Builder.freeze] rewrites the slots to node ids
    with {!map_values}, and the circuit keeps it as its name index.  Reads
    are safe from any number of domains once nothing writes. *)

type t

val create : int -> t
(** An empty table sized for about [n] names (it grows as needed). *)

val find : t -> string -> int
(** The value bound to a name, or [-1] when the name is absent. *)

val find_or_add : t -> string -> int -> int
(** [find_or_add t name v] is the value already bound to [name], or binds
    [name] to [v] and returns [v].  Values are in [0, 2^31).
    @raise Invalid_argument on a value out of that range. *)

val map_values : t -> (int -> int) -> unit
(** Rewrite every value in place (no name is hashed again).
    @raise Invalid_argument if [f] returns a value out of range. *)

val iter : (string -> int -> unit) -> t -> unit
(** Every binding, in table order (unspecified). *)

val of_names : string array -> t
(** Each [names.(v)] bound to [v]; a repeated name keeps its last index. *)
