(** Flat open-addressing table from signal names to non-negative ints.

    The one name table of a circuit's construction: {!Builder} interns each
    name into it as a slot, [Builder.freeze] rewrites the slots to node ids
    with {!map_values}, and the circuit keeps it as its name index.

    The table holds no copy of the names, only one int a cell (the name's
    hash above its value, load factor at most 1/2).  Every value indexes a
    names array its owner keeps and passes to each call: [names.(v)] must
    be the name bound to [v] for every value already bound.  The builder
    passes its slot -> name array, the circuit its names by id (the array
    it holds, not a copy).  After {!map_values}, pass the array the new
    values index.  Reads are safe from any number of domains once nothing
    writes. *)

type t

val create : int -> t
(** An empty table sized for about [n] names (it grows as needed). *)

val find : t -> string array -> string -> int
(** [find t names name] is the value bound to [name], or [-1] when the
    name is absent. *)

val find_or_add : t -> string array -> string -> int -> int
(** [find_or_add t names name v] is the value already bound to [name], or
    binds [name] to [v] and returns [v]; the owner then stores [name] at
    [v] in the array it passes from the next call on.  Values are in
    [0, 2^31).
    @raise Invalid_argument on a value out of that range. *)

val map_values : t -> (int -> int) -> unit
(** Rewrite every value in place (no name is hashed or read).
    @raise Invalid_argument if [f] returns a value out of range. *)

val iter : (string -> int -> unit) -> t -> string array -> unit
(** Every binding, as [names.(v)] and [v], in table order (unspecified). *)

val of_names : string array -> t
(** Each [names.(v)] bound to [v]; a repeated name keeps its last index.
    The table reads [names] through its values from then on, so the caller
    keeps that array (no copy is made). *)
