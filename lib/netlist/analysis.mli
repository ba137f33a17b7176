(** Shared circuit-analysis context.

    One {!t} per circuit, obtained with {!get} (lazily built, memoized on the
    circuit itself).  It bundles the whole-graph traversal facts every engine
    needs — topological order, inverse permutation, gates-only order,
    observation-point arrays, maximum fanin — plus bounded LRU caches for
    per-site artifacts (forward-reach cones, per-observation-point BFS
    distance maps), so interleaved engines reuse one computation instead of
    each re-deriving its own.

    Ownership/aliasing contract (DESIGN.md §11): every array returned by this
    module is the cached instance, shared by all consumers of the circuit.
    Treat them as read-only; copy before mutating.  The context is safe to
    share across domains: the whole-graph arrays are written once before
    publication and the per-site caches are mutex-protected.

    Reuse is observable through [analysis.cache.hit] / [analysis.cache.miss]
    and the per-fact [analysis.*.computed] counters. *)

type t

val get : Circuit.t -> t
(** The circuit's analysis context, built on first use and shared
    thereafter ([analysis.context.computed] counts the builds). *)

val circuit : t -> Circuit.t

(** {2 Whole-graph facts} *)

val order : t -> int array
(** The circuit's topological order (all nodes) — the one shared instance
    also served by {!Circuit.topological_order}. *)

val position : t -> int array
(** Inverse permutation of {!order}: [position ctx.(v)] is the index of node
    [v] in the order. *)

val gate_order : t -> int array
(** Gates only, in topological order — the evaluation schedule of the logic
    simulator and the EPP kernel. *)

val observations : t -> (Circuit.observation * int) array
(** Observation points paired with the net each observes: POs in declaration
    order, then FF data inputs (same order as {!Circuit.observations}). *)

val observation_nets : t -> int array
(** Just the observed nets, aligned with {!observations}. *)

val max_fanin : t -> int
(** Largest gate fanin in the circuit (at least 1), sizing per-gate scratch
    in the kernels. *)

val levels : t -> int array
(** ASAP levelization; delegates to the memo on {!Circuit.levels}. *)

val depth : t -> int
(** Maximum logic level; delegates to {!Circuit.depth}. *)

val csr : t -> Csr.t
val reverse_csr : t -> Csr.t

val level_gates : t -> int array array
(** Gates bucketed by ASAP level ([level_gates ctx.(l)] holds the gates at
    level [l], in topological-position order), indices [0 .. depth].  The
    schedule of the level-synchronous batch engine; computed once per
    circuit ([analysis.level_gates.computed]) and shared thereafter. *)

val max_fanout_level : t -> int array
(** [max_fanout_level ctx.(v)] is the highest ASAP level among [v]'s
    fanouts, or [v]'s own level when it has none: a level-order walk reads
    [v] for the last time at that level.  The batch engine frees a node's
    plane row there.  One O(E) pass per circuit
    ([analysis.max_fanout_level.computed]), shared thereafter. *)

val level_offsets : t -> int array
(** [level_offsets ctx.(l)] is the number of nodes whose ASAP level is below
    [l], for [l] in [0 .. depth + 1]: laid out level by level, level [l]
    occupies slots [level_offsets.(l) .. level_offsets.(l + 1) - 1].  The
    batch engine's level buckets.  Computed once per circuit
    ([analysis.level_offsets.computed]). *)

val observed : t -> bool array
(** Per node, whether it is an observation net (in {!observation_nets}).
    Computed once per circuit ([analysis.observed.computed]). *)

(** {2 Per-site cached artifacts}

    Bounded LRU caches (a few hundred whole-circuit arrays at most); on
    eviction the artifact is simply recomputed on next demand. *)

val cone : t -> int -> bool array
(** [cone ctx site] marks every node forward-reachable from [site]
    (including [site]).  @raise Invalid_argument on a bad node id. *)

val fanin_cone : t -> int -> bool array
(** [fanin_cone ctx net] marks every node backward-reachable from [net]
    (including [net]) — one traversal of the shared reverse CSR, cached per
    net.  Keyed by observation net in the certified exact tier, the union
    of these maps over a site's reached observations is the support of the
    cone-partitioned BDD.  @raise Invalid_argument on a bad node id. *)

val distances_to : t -> int -> int array
(** [distances_to ctx target].(v) is the BFS edge-distance from node [v] to
    [target] in the forward graph (computed as one backward BFS from
    [target] over the reverse CSR), or [-1] when [target] is unreachable
    from [v].  One map per observation point answers the depth query of
    every site at once.  @raise Invalid_argument on a bad node id. *)

val reached_observations : t -> int -> Circuit.observation list
(** Observation points inside [site]'s forward cone, in {!observations}
    order. *)

(** {2 Incremental invalidation} *)

val apply_delta : t -> Delta.t -> t * [ `Patched | `Rebuilt ]
(** Carry this context across a {!Transform} edit instead of throwing it
    away.  When the edit is order-preserving (every surviving node pair
    keeps its relative order — true for all the [Transform.*_delta]
    rewrites, which only interleave new helper gates), the pre-edit
    topological order is patched onto the post-edit circuit, levels are
    re-derived from it, and the cone / distance-map LRU entries that
    provably kept their geometry (outside {!Delta.backward_dirty} resp.
    {!Delta.forward_dirty}) migrate under the id remap; the result is
    [`Patched].  Otherwise the post-edit context is built from scratch and
    the result is [`Rebuilt].  Either way the returned context is the one
    installed on the post-edit circuit (subsequent {!get} returns it), and
    [analysis.incremental.patched] / [analysis.incremental.rebuilt] meter
    the two paths.

    Ownership contract (DESIGN.md §16): an [Analysis.t] — and every array
    obtained from it — is bound to its pre-edit circuit; after an edit,
    continue only with the context returned here (or [get] on the new
    circuit).  @raise Invalid_argument when [delta]'s before-circuit is not
    this context's circuit. *)
