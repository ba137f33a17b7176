(** Strongly-connected components (iterative Tarjan).

    Used to turn "your netlist is cyclic" into a list of the actual feedback
    loops when validation fails. *)

val nontrivial : Digraph.t -> Digraph.vertex list list
(** The cyclic components: size >= 2, or a single vertex with a self-loop.
    Within a component vertices are listed in discovery order; components
    appear in the order they were completed.  An acyclic graph returns []. *)
