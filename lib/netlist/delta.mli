(** Typed edit deltas: what one {!Transform} rewrite changed.

    Transforms preserve the names of surviving signals, so the old<->new
    node correspondence is name-based ({!new_of_old} / {!old_of_new}); raw
    node ids shift freely across an edit and must never be compared
    directly.

    A new node is {e touched} iff it is added or its definition differs
    from its old counterpart's up to the id remap (node class, gate kind,
    fanin signals by position, or a flip-flop's data net).  This is an
    exact structural notion: {!structural_diff} computes it from the two
    circuits alone, and the deltas reported by the [Transform.*_delta]
    functions are regression-tested equal to it.

    Deltas drive incremental re-analysis: [Epp.Incremental] uses the dirty
    geometry below to re-analyze only affected sites.  No analysis context
    crosses a delta: the after-circuit is sorted on its own first use. *)

type t

val before : t -> Circuit.t
val after : t -> Circuit.t

val new_of_old : t -> int array
(** [new_of_old t.(v)] is the new id of old node [v], or [-1] when the node
    was removed.  The returned array is the delta's own — do not mutate. *)

val old_of_new : t -> int array
(** [old_of_new t.(w)] is the old id of new node [w], or [-1] when the node
    was added. *)

val touched : t -> int list
(** New ids whose definition changed, sorted increasing: every added node
    plus every survivor whose class/kind/fanins/FF-data differ under the
    remap. *)

val added : t -> int list
(** New ids with no old counterpart (subset of {!touched}), sorted. *)

val removed : t -> int list
(** Old ids with no surviving name, sorted. *)

val is_identity : t -> bool
(** No touched nodes, no removed nodes, equal node counts. *)

val make : before:Circuit.t -> after:Circuit.t -> touched:string list -> t
(** Build a delta from a transform's own report: [touched] are the names of
    the signals the transform redefined (names absent from [after] are
    ignored; added nodes are always included regardless).  The id maps are
    derived from the surviving names. *)

val structural_diff : before:Circuit.t -> after:Circuit.t -> t
(** The oracle: compute the exact touched set by comparing every surviving
    node's definition under the name-based remap.  O(V + E). *)

val identity : Circuit.t -> t
(** The empty edit (before = after = the circuit). *)

val backward_dirty : ?seeds:int list -> t -> bool array
(** Per new node: true iff the node's forward cone, in {e either} graph,
    meets the edit (a touched, added or removed node; the old side catches
    paths an edge removal severed), or its cone in the new graph meets one
    of the caller's extra [seeds] (new ids).  These are the sites whose
    per-site results may have changed.  An old-graph pass from a seed's
    counterpart would add nothing: an old path to it that the new graph
    lacks runs through a touched or removed node.  One backward pass per
    graph, whatever the seeds. *)

val pp : t Fmt.t
