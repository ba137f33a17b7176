(** Immutable directed graphs over dense integer vertices, in packed form.

    Every structure in this project (netlists, cones, levelized traversals)
    numbers its objects densely from 0, so vertices are plain [int] indices.
    A graph is two compressed-sparse-row adjacencies: the successors of [v]
    are [targets.(offsets.(v)) .. targets.(offsets.(v + 1) - 1)], and the
    predecessors likewise in [rev_offsets]/[rev_targets].  Each range reads
    in increasing vertex order, parallel edges adjacent.  Traversals index
    these arrays directly and allocate nothing per edge; a graph is safe to
    share across domains. *)

type vertex = int

type t

exception Invalid_vertex of vertex
(** Raised when a vertex outside [0, vertex_count) is supplied. *)

val of_predecessors : vertex_count:int -> (vertex -> vertex array) -> t
(** [of_predecessors ~vertex_count preds] builds the graph in which the
    predecessors of [v] are the entries of [preds v] (repeats are parallel
    edges), in two counting passes and no list cells.  Each successor list
    comes out in increasing vertex order, repeats adjacent.  [preds] is
    called twice per vertex and must return the same entries each time;
    the graph keeps none of its arrays.
    @raise Invalid_vertex on an out-of-range predecessor. *)

val vertex_count : t -> int

val offsets : t -> int array
(** Forward offsets (length [vertex_count + 1]).  Shared: do not mutate. *)

val targets : t -> int array
(** Successors, grouped by source (length: the edge count).  Do not mutate. *)

val rev_offsets : t -> int array
(** Reverse offsets (length [vertex_count + 1]).  Do not mutate. *)

val rev_targets : t -> int array
(** Predecessors, grouped by target and sorted by source within a group
    (length: the edge count).  Do not mutate. *)

val succ : t -> vertex -> vertex list
(** Successors of a vertex as a fresh list, in increasing vertex order.
    @raise Invalid_vertex. *)

val mem_edge : t -> vertex -> vertex -> bool

val reverse : t -> t
(** The graph with every edge flipped, in O(1): the forward and reverse
    arrays trade places, nothing is copied. *)

val iter_edges : (vertex -> vertex -> unit) -> t -> unit
