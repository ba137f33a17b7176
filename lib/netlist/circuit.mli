(** Immutable gate-level netlists.

    A signal (net) is identified with the node driving it; nodes are dense
    integers [0 .. node_count - 1], so engines keep per-node data in plain
    arrays.  Use {!Builder} to construct values of this type — it performs
    all validation (undefined signals, duplicate drivers, arity errors,
    combinational cycles).

    Sequential circuits follow the paper's treatment: a flip-flop's output Q
    is a node acting as a pseudo-primary-input of the combinational core,
    while its data input D is an observation point (pseudo-primary-output)
    where a propagated error would be latched. *)

type node =
  | Input  (** primary input *)
  | Ff of { data : int }  (** flip-flop output Q; [data] is the node driving D *)
  | Gate of { kind : Gate.kind; fanins : int array }
(** Node values, their [fanins] arrays included, may be shared between
    circuits: an edit ({!Transform}) keeps each definition it leaves
    unchanged as the base circuit's own value.  They must never be
    mutated once a circuit holds them. *)

type t

val make :
  name:string ->
  nodes:node array ->
  names:string array ->
  inputs:int array ->
  outputs:int array ->
  ffs:int array ->
  t
(** Raw constructor (the rewrites in {!Transform} use it); performs no
    semantic validation.  Builds the name index over [names] (which the
    circuit keeps, so the index holds no copy); a repeated name indexes
    its last node.  Prefer {!Builder.freeze}. *)

val make_indexed :
  name:string ->
  nodes:node array ->
  names:string array ->
  index:Name_table.t ->
  inputs:int array ->
  outputs:int array ->
  ffs:int array ->
  t
(** {!make} with the name index already built: [index] must bind each
    [names.(v)] to [v] and nothing else, reading names through [names].
    The circuit owns [index] (and every array passed) from then on.
    {!Builder.freeze} hands over the table it interned names into. *)

val name : t -> string
val node_count : t -> int
val node : t -> int -> node
val node_name : t -> int -> string

val find : t -> string -> int
(** Node id of a named signal.  @raise Not_found. *)

val find_opt : t -> string -> int option

val inputs : t -> int list
val outputs : t -> int list
(** Nodes driving the primary outputs, in declaration order. *)

val ffs : t -> int list
val input_count : t -> int
val output_count : t -> int
val ff_count : t -> int
val gate_count : t -> int

val fanins : t -> int -> int array
(** Fanin nodes of a gate; [[||]] for inputs and flip-flops. *)

val fanouts : t -> int -> int list
(** Combinational fanout: the gates consuming this net, as a fresh list in
    increasing id order (FF data consumption is sequential and not
    included; see {!observations}).  Hot paths read {!graph}'s arrays. *)

val kind_of : t -> int -> Gate.kind option
val is_input : t -> int -> bool
val is_ff : t -> int -> bool
val is_gate : t -> int -> bool

val is_pseudo_input : t -> int -> bool
(** True for primary inputs and flip-flop outputs: the sources of the
    combinational core. *)

val pseudo_inputs : t -> int list

type observation = Po of int | Ff_data of int
(** An architectural observation point: a primary output (carrying its
    driving node) or the data input of a flip-flop (carrying the FF node). *)

val observations : t -> observation list
(** All observation points: POs in declaration order, then FF data inputs. *)

val observation_net : t -> observation -> int
(** The node whose value the observation point sees. *)

val observation_name : t -> observation -> string

val graph : t -> Digraph.t
(** The combinational graph: an edge per (fanin, gate) pair, packed once
    with the circuit.  A node's successors are its consumers in increasing
    id order (a gate reading the net twice appears twice); its
    predecessors are its fanins in increasing id order.  Acyclic for any
    circuit produced by {!Builder.freeze}.  Immutable; safe to share across
    domains.  Derived facts (topological order, levels) live in
    {!Analysis}. *)

(** {2 Analysis-context plumbing}

    {!Analysis} hangs a per-circuit context (shared traversal facts and
    per-site caches) off the circuit.  The slot is an extensible variant so
    [Analysis] can live in its own module without a dependency cycle.
    Nothing outside [Analysis] should touch it. *)

type context = ..

val context : t -> context option Atomic.t
(** The slot the circuit's analysis context is published in, once, by
    compare-and-set: the first writer wins and the slot never changes
    again. *)

val pp : t Fmt.t
(** One-line summary (name and size counts). *)
