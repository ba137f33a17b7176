(** Breadth-first shortest paths (unit weights) — the gate-traversal depth
    metric of the electrical-masking refinement. *)

val unreachable : int
(** -1, the marker in {!distances}. *)

val distances : Digraph.t -> Digraph.vertex -> int array
(** BFS distance from the source to every vertex ([unreachable] where there
    is no path); allocates only the result and a flat queue.  Run it on
    {!Digraph.reverse} to get, for one target vertex, the distance {e to} it
    from every vertex.  @raise Digraph.Invalid_vertex. *)
