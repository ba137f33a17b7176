(** Reachability and cone extraction.

    Implements step 1 of the paper's per-site algorithm: the forward search
    that finds all on-path signals from an error site to the reachable
    outputs. *)

val backward_set : Digraph.t -> Digraph.vertex list -> bool array
(** [backward_set g roots].(v) is true iff [v] reaches one of [roots]
    (roots included), over the graph's own predecessor arrays: a mask over
    the whole graph, for whole-graph questions (liveness, dirty sets).
    @raise Digraph.Invalid_vertex. *)

val count : bool array -> int
(** The number of [true] entries. *)

(** {2 Cones as member arrays} *)

type ranking
(** A topological order of a graph, its inverse ({!position}) and a mark
    per vertex that every search reuses: built once per graph, after which
    a cone search costs the cone, not the graph.  Searches on one ranking
    run one at a time (they share the marks); a ranking is safe to share
    across domains. *)

val ranking : Digraph.t -> order:int array -> ranking
(** @raise Invalid_argument unless [order] is a topological order of the
    graph (a permutation of its vertices along which every edge goes
    forward). *)

val position : ranking -> int array
(** The inverse of the order: [position r.(v)] is [v]'s index in it.
    Shared; do not mutate. *)

val forward_cone : ranking -> Digraph.vertex list -> Digraph.vertex array
(** Every vertex reachable from one of the roots (roots included), in
    increasing position: a breadth-first search that the marks stop at
    vertices it has already reached, then a radix sort of the members'
    positions.  Allocates O(members) and touches nothing else.
    @raise Digraph.Invalid_vertex on a bad root. *)

val backward_cone : ranking -> Digraph.vertex list -> Digraph.vertex array
(** Every vertex that reaches one of the roots (roots included), in
    increasing position, over the predecessor arrays.
    @raise Digraph.Invalid_vertex on a bad root. *)

type lookup
(** Finds vertices among the members of a cone. *)

val lookup : position:int array -> Digraph.vertex array -> lookup
(** A lookup over [members], an array sorted by position such as a cone:
    the members' positions and a directory of one or two buckets of
    positions per member.  Built in O(members) words and time; nothing
    proportional to the vertex count. *)

val find : lookup -> Digraph.vertex -> int
(** [find l v] is [v]'s index among the members, or [-1] when [v] is not
    one: a binary search inside one bucket of the directory, usually zero
    to two comparisons.  Allocates nothing. *)
