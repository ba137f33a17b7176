(** Immutable directed graphs over dense integer vertices.

    Every structure in this project (netlists, cones, levelized traversals)
    numbers its objects densely from 0, so vertices are plain [int] indices
    into adjacency arrays.  Edge order is preserved from construction, which
    keeps all traversals deterministic. *)

type vertex = int

type t

exception Invalid_vertex of vertex
(** Raised when a vertex outside [0, vertex_count) is supplied. *)

val of_edges : vertex_count:int -> (vertex * vertex) list -> t
(** [of_edges ~vertex_count edges] builds a graph with vertices
    [0 .. vertex_count - 1] and the given directed edges.  Parallel edges are
    kept.  @raise Invalid_vertex on an out-of-range endpoint. *)

val of_successors : vertex list array -> t
(** [of_successors succ] builds a graph whose vertex [v] has successor list
    [succ.(v)].  The graph takes ownership of [succ] (it is not copied): the
    caller must not modify it afterwards.
    @raise Invalid_vertex on an out-of-range successor. *)

val vertex_count : t -> int
val edge_count : t -> int

val succ : t -> vertex -> vertex list
(** Successors of a vertex, in insertion order. @raise Invalid_vertex. *)

val pred : t -> vertex -> vertex list
(** Predecessors of a vertex, in insertion order. @raise Invalid_vertex. *)

val out_degree : t -> vertex -> int
val in_degree : t -> vertex -> int

val mem_edge : t -> vertex -> vertex -> bool

val edges : t -> (vertex * vertex) list
(** All edges, grouped by source vertex in increasing order. *)

val reverse : t -> t
(** The graph with every edge flipped. *)

val sources : t -> vertex list
(** Vertices with no predecessors, in increasing order. *)

val sinks : t -> vertex list
(** Vertices with no successors, in increasing order. *)

val iter_vertices : (vertex -> unit) -> t -> unit
val fold_vertices : (vertex -> 'a -> 'a) -> t -> 'a -> 'a
val iter_edges : (vertex -> vertex -> unit) -> t -> unit

val pp : t Fmt.t
