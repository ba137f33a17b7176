(** Immutable directed graphs over dense integer vertices, in packed form.

    Every structure in this project (netlists, cones, levelized traversals)
    numbers its objects densely from 0, so vertices are plain [int] indices.
    A graph is two compressed-sparse-row adjacencies: the successors of [v]
    are [targets.(offsets.(v)) .. targets.(offsets.(v + 1) - 1)], and the
    predecessors likewise in [rev_offsets]/[rev_targets].  Successor order is
    preserved from construction; each predecessor list is sorted by source
    vertex (parallel edges stay adjacent).  Traversals index these arrays
    directly and allocate nothing per edge; a graph is safe to share across
    domains. *)

type vertex = int

type t

exception Invalid_vertex of vertex
(** Raised when a vertex outside [0, vertex_count) is supplied. *)

val of_edges : vertex_count:int -> (vertex * vertex) list -> t
(** [of_edges ~vertex_count edges] builds a graph with vertices
    [0 .. vertex_count - 1] and the given directed edges, each source's
    successors in list order.  Parallel edges are kept.
    @raise Invalid_vertex on an out-of-range endpoint. *)

val of_predecessors : vertex_count:int -> (vertex -> vertex array) -> t
(** [of_predecessors ~vertex_count preds] builds the graph in which the
    predecessors of [v] are the entries of [preds v] (repeats are parallel
    edges), in two counting passes and no list cells.  Each successor list
    comes out in increasing vertex order, repeats adjacent.  [preds] is
    called twice per vertex and must return the same entries each time;
    the graph keeps none of its arrays.
    @raise Invalid_vertex on an out-of-range predecessor. *)

val vertex_count : t -> int
val edge_count : t -> int

val offsets : t -> int array
(** Forward offsets (length [vertex_count + 1]).  Shared: do not mutate. *)

val targets : t -> int array
(** Successors, grouped by source (length [edge_count]).  Do not mutate. *)

val rev_offsets : t -> int array
(** Reverse offsets (length [vertex_count + 1]).  Do not mutate. *)

val rev_targets : t -> int array
(** Predecessors, grouped by target and sorted by source within a group
    (length [edge_count]).  Do not mutate. *)

val succ : t -> vertex -> vertex list
(** Successors of a vertex as a fresh list, in insertion order.
    @raise Invalid_vertex. *)

val pred : t -> vertex -> vertex list
(** Predecessors of a vertex as a fresh list, in increasing source order.
    @raise Invalid_vertex. *)

val out_degree : t -> vertex -> int
val in_degree : t -> vertex -> int

val mem_edge : t -> vertex -> vertex -> bool

val edges : t -> (vertex * vertex) list
(** All edges, grouped by source vertex in increasing order. *)

val reverse : t -> t
(** The graph with every edge flipped, in O(1): the forward and reverse
    arrays trade places, nothing is copied. *)

val sources : t -> vertex list
(** Vertices with no predecessors, in increasing order. *)

val sinks : t -> vertex list
(** Vertices with no successors, in increasing order. *)

val iter_vertices : (vertex -> unit) -> t -> unit
val fold_vertices : (vertex -> 'a -> 'a) -> t -> 'a -> 'a
val iter_edges : (vertex -> vertex -> unit) -> t -> unit

val pp : t Fmt.t
