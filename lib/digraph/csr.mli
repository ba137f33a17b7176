(** Compressed-sparse-row adjacency view of a {!Digraph.t}.

    Two int arrays — [offsets] (length [vertex_count + 1]) and [targets]
    (length [edge_count]) — hold every successor list contiguously:
    the successors of [v] are [targets.(offsets.(v)) .. targets.(offsets.(v+1) - 1)],
    in the same order {!Digraph.succ} returns them.  Hot traversals (the
    batch EPP engine's union-cone walk, cone DFS) index these arrays directly and
    allocate nothing; the view is immutable and safe to share across
    domains. *)

type t

val of_graph : Digraph.t -> t
(** One-time O(V + E) conversion; successor order is preserved. *)

val reverse : t -> t
(** Transpose in O(V + E): every edge [u -> v] becomes [v -> u].
    Multi-edges are preserved; each reversed successor list is sorted by
    source vertex, so the result is deterministic. *)

val vertex_count : t -> int
val edge_count : t -> int

val offsets : t -> int array
(** The raw offset array (length [vertex_count + 1]).  Do not mutate. *)

val targets : t -> int array
(** The raw packed successor array (length [edge_count]).  Do not mutate. *)

val degree : t -> int -> int
(** Out-degree. @raise Digraph.Invalid_vertex. *)

val iter_succ : (int -> unit) -> t -> int -> unit
(** Iterate successors in order. @raise Digraph.Invalid_vertex. *)

val fold_succ : ('a -> int -> 'a) -> t -> int -> 'a -> 'a

val succ_list : t -> int -> int list
(** Successors as a fresh list (for tests / debug). *)

val pp : t Fmt.t
