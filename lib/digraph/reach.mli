(** Reachability and output-cone extraction (iterative DFS).

    Implements step 1 of the paper's per-site algorithm: the forward DFS that
    finds all on-path signals from an error site to the reachable outputs. *)

val forward : Digraph.t -> Digraph.vertex -> bool array
(** [forward g root].(v) is true iff [v] is reachable from [root]
    (including [root] itself).  The search walks the packed arrays and
    allocates only the result and a flat stack.
    @raise Digraph.Invalid_vertex. *)

val forward_set : Digraph.t -> Digraph.vertex list -> bool array
(** Reachability from any of several roots. *)

val backward_set : Digraph.t -> Digraph.vertex list -> bool array
(** Reachability along reversed edges (fan-in cones), over the graph's own
    predecessor arrays. *)

val members : bool array -> Digraph.vertex list
(** Indices set to true, increasing. *)

val count : bool array -> int

val reachable : Digraph.t -> source:Digraph.vertex -> target:Digraph.vertex -> bool

type cone = {
  site : Digraph.vertex;  (** the error site *)
  in_cone : bool array;  (** membership: the on-path signals *)
  reached_sinks : Digraph.vertex list;  (** designated sinks inside the cone *)
}
(** The forward (output) cone of an error site. *)

val output_cone : Digraph.t -> sinks:Digraph.vertex list -> Digraph.vertex -> cone
val cone_size : cone -> int
