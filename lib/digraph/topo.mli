(** Topological sorting and levelization.

    Step 2 of the paper's per-site algorithm ("Ordering: Levelize signals on
    these paths using the topological sorting algorithm") and the backbone of
    the levelized logic simulator. *)

exception Cycle of Digraph.vertex list
(** Raised by {!sort_array} when the graph has a directed cycle; carries,
    in increasing order, the vertices the drain could not order: those on
    a cycle and those downstream of one.  {!Scc.nontrivial} names the
    cycles themselves. *)

val sort_array : Digraph.t -> Digraph.vertex array
(** Kahn topological sort; deterministic (among ready vertices, lower
    indices first).  @raise Cycle if the graph is cyclic. *)

val is_acyclic : Digraph.t -> bool

val levels_from : Digraph.t -> Digraph.vertex array -> int array
(** [levels_from g order].(v) is 0 for sources and [1 + max] over
    predecessors otherwise (the classic ASAP levelization of a netlist),
    computed along [order].  The order must be a topological order of [g]
    (as produced by {!sort_array}); the result is unspecified otherwise. *)
