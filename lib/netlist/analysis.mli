(** Shared circuit-analysis context.

    One {!t} per circuit, obtained with {!get} (built when
    {!Builder.freeze} validates the circuit, or on first use for a circuit
    made by id, such as an edit's; memoized on the circuit itself).  No
    context crosses an edit.  It bundles the whole-graph traversal facts
    every engine needs — topological order, its inverse permutation,
    gates-only order, observation-point arrays — plus one BFS distance map
    per observation point, so interleaved engines reuse one computation
    instead of each re-deriving its own.  Cones are searched per call, at
    the cone's cost, and not kept.

    Ownership/aliasing contract (DESIGN.md §11): every memoized array
    returned by this module is the shared instance, used by all consumers
    of the circuit.  Treat them as read-only; copy before mutating.  A
    cone ({!cone}, {!fanin_cone}) is the exception: each call returns a
    fresh array that its caller owns.  The context is safe to share across
    domains: the whole-graph arrays are written once before publication,
    the distance memo is mutex-protected, and cone searches take the
    ranking's own mutex.

    Reuse is observable through [analysis.cache.hit] / [analysis.cache.miss]
    and the per-fact [analysis.*.computed] counters. *)

type t

val get : Circuit.t -> t
(** The circuit's analysis context, built on first use and shared
    thereafter ([analysis.context.computed] counts the builds).
    {!Builder.freeze} calls it, so a parsed or generated circuit already
    has one.  @raise Topo.Cycle on a cyclic graph, publishing nothing. *)

val circuit : t -> Circuit.t

(** {2 Whole-graph facts} *)

val order : t -> int array
(** The circuit's topological order (all nodes): the one sort of the
    circuit's life ([analysis.topo.computed]), the drain that proved it
    acyclic ({!Topo.sort_array}). *)

val position : t -> int array
(** The inverse of {!order}: [position ctx.(v)] is [v]'s index in
    [order ctx].  Computed once per circuit, with the marks the cone
    searches reuse ([analysis.ranking.computed]); cone searches rank nodes
    by it, and [Reach.lookup ~position members]
    finds nodes among a cone's members. *)

val gate_order : t -> int array
(** Gates only, in topological order — the evaluation schedule of the logic
    simulator; the batch EPP engine prefetches gate kinds and fanins in it. *)

val observations : t -> (Circuit.observation * int) array
(** Observation points paired with the net each observes: POs in declaration
    order, then FF data inputs (same order as {!Circuit.observations}). *)

val observation_nets : t -> int array
(** Just the observed nets, aligned with {!observations}. *)

val levels : t -> int array
(** ASAP levelization ([levels.(v)] is 0 at sources, else 1 + the largest
    level among [v]'s fanins), derived from {!order} once
    ([analysis.levels.computed]) and shared thereafter. *)

val depth : t -> int
(** Maximum logic level, memoized ([analysis.depth.computed]). *)

val csr : t -> Digraph.t
(** The circuit's graph, {!Circuit.graph}: the packed (CSR) forward and
    reverse adjacency every traversal walks. *)

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

(** {2 Per-site artifacts}

    Cones are arrays of their members in the order {!order} lists them,
    found by a search that costs the cone, not the circuit
    ({!Reach.forward_cone}): a per-site consumer walks its members instead
    of filtering the whole order.  A consumer that needs a site's cone
    twice keeps the array it got.  Distance maps are whole-graph searches,
    memoized per target net. *)

val cone : t -> int -> int array
(** [cone ctx site] is every node forward-reachable from [site], [site]
    included and therefore first, in topological order: the site's on-path
    signals.  One search per call; the caller owns the array.
    @raise Invalid_argument on a bad node id. *)

val fanin_cone : t -> int list -> int array
(** [fanin_cone ctx nets] is every node that reaches one of [nets] (the
    nets included), in topological order: one search over the graph's
    predecessor arrays per call.  Over a site's reached observation nets
    it is the support of the certified tier's cone-partitioned BDD.
    @raise Invalid_argument on a bad node id. *)

val distances_to : t -> int -> int array
(** [distances_to ctx target].(v) is the BFS edge-distance from node [v] to
    [target] in the forward graph (computed as one backward BFS from
    [target] over the predecessor arrays), or [-1] when [target] is
    unreachable from [v].  One map per observation point answers the depth
    query of every site at once; each is computed once per context
    ([analysis.distance_maps.computed]) and shared thereafter.
    @raise Invalid_argument on a bad node id. *)

val reached_observations : t -> int array -> Circuit.observation list
(** [reached_observations ctx members] is the observation points whose net
    is among [members], a site's {!cone}, in {!observations} order: one
    {!Reach.find} in the cone per observation point. *)

(** {2 Edits} *)

val apply_delta : t -> Delta.t -> t * [ `Patched | `Rebuilt ]
(** [apply_delta ctx d] is [get (Delta.after d)]: each circuit has its own
    context, sorted on first use, and none crosses an edit.  The identity
    edit returns [ctx] itself, tagged [`Patched]; any other edit is tagged
    [`Rebuilt].  The tag carries no information and is kept only for the
    benchmark, which reads it.  @raise Invalid_argument when [d]'s
    before-circuit is not [ctx]'s circuit. *)
