(** Reduced Ordered Binary Decision Diagrams (hash-consed, array-backed).

    Purpose-built for this project's exact engines: exact signal
    probabilities and exact error-propagation probabilities on circuits far
    beyond the reach of 2{^k} input enumeration.  Canonical for a fixed
    variable order: equal functions have equal node ids within one
    manager. *)

type t
(** A BDD manager: owns the node store, the unique table and the apply
    cache.  Node ids are only meaningful relative to their manager. *)

val create : var_count:int -> t
(** Manager over variables [0 .. var_count - 1] in natural order.
    @raise Invalid_argument on a negative count. *)

val var_count : t -> int

val node_count : t -> int
(** Total allocated nodes (terminals included) — the memory gauge. *)

val zero : int
val one : int
val of_bool : bool -> int

val var : t -> int -> int
(** The function of a single variable.  @raise Invalid_argument if out of
    range. *)

val band : t -> int -> int -> int
val bor : t -> int -> int -> int
val bxor : t -> int -> int -> int
val bnot : t -> int -> int
val ite : t -> int -> int -> int -> int

val is_terminal : int -> bool

val eval : t -> int -> (int -> bool) -> bool
(** Evaluate a node under a variable assignment. *)

val probability : t -> ?var_p:(int -> float) -> int -> float
(** Exact probability of the function being 1 when variable [v] is 1 with
    probability [var_p v] (default 0.5), independently.  One memoized pass
    over the DAG.  @raise Invalid_argument on a probability outside
    [0, 1]. *)

val any_sat : t -> int -> bool array option
(** A satisfying assignment over all variables ([None] iff the function is
    the constant zero).  Don't-care variables default to false. *)

val count_sat : t -> int -> float
(** Exact number of satisfying assignments over all [var_count] variables
    (as a float: counts reach 2{^vars}). *)

val size : t -> int -> int
(** Distinct internal nodes reachable from the given root. *)

val pp : t -> int Fmt.t
(** Debug rendering as nested if-then-else. *)

(** Dynamic variable reordering by sifting (Rudell).

    The manager is append-only, so reordering is rebuild-based: {!Reorder.sift}
    extracts the live graph under the given roots, sifts the heaviest
    variables to their locally best levels via adjacent-level swaps, and
    returns a {e fresh} manager holding the reordered graph together with the
    mapping of the roots into it.  The original manager is untouched. *)
module Reorder : sig
  type plan = {
    size_before : int;  (** live internal nodes under [roots] before sifting *)
    size_after : int;  (** live internal nodes after sifting *)
    sifted : int;  (** number of variables sifted *)
    perm : int array;
        (** [perm.(new_var)] is the old variable now at index [new_var] in
            the returned manager — the new order, position by position. *)
  }

  val sift : ?max_vars:int -> t -> roots:int array -> plan * t * int array
  (** [sift m ~roots] reorders the graph spanned by [roots].  At most
      [max_vars] (default 12) variables are sifted, heaviest level first;
      each keeps the position minimizing the live size encountered during
      its pass.  Returns the plan, the new manager (variable [v] of the new
      manager is old variable [plan.perm.(v)]), and the images of [roots],
      aligned.  Functions are preserved: evaluating a returned root in the
      new manager under the permuted assignment equals evaluating the
      original root. *)
end
