(** EPP propagation rules: the paper's Table 1 (AND/OR/NOT), extended to
    NAND/NOR/BUF/XOR/XNOR and constants.  The XOR rule is derived by
    enumerating the 4×4 joint polarity states (see the implementation
    header); all rules assume independent inputs, exactly as the paper. *)

val propagate : Netlist.Gate.kind -> Prob4.t array -> Prob4.t
(** Output vector of a gate from its input vectors.
    @raise Netlist.Gate.Arity_error on an arity violation.
    @raise Prob4.Invalid if a rule produces an inconsistent vector (a bug,
    surfaced loudly). *)

val and_rule : Prob4.t array -> Prob4.t
val or_rule : Prob4.t array -> Prob4.t
val xor2 : Prob4.t -> Prob4.t -> Prob4.t

(** Lane-vectorized evaluation of the same rules for the level-synchronous
    batched engine ({!Epp_batch}): one gate is propagated for a whole block
    of error sites at once.  The four-state vectors live in caller-owned
    row-major float planes with a lane stride, one row per node the caller
    gave a row ([plane.(rows.(node) * stride + lane)]); a per-node bitmask
    says which lanes have the node on-path, and
    off-path fanins contribute their signal probability exactly as
    {!Prob4.of_sp} does.  Per lane, the arithmetic mirrors {!propagate}
    operation-for-operation, so batch results are bit-identical to the
    boxed reference's.  Defects that would make the boxed path raise
    ({!Prob4.Invalid} on off-path probabilities or normalize failures,
    {!Netlist.Gate.Arity_error}) instead fault only the offending lanes. *)
module Lanes : sig
  type scratch
  (** Per-evaluator scratch: compacted live-lane indices, accumulator
      arrays, and the fault list of the last {!propagate} call.  Not
      shareable across domains. *)

  val create : lanes:int -> scratch
  (** Scratch for blocks of up to [lanes] sites. *)

  val capacity : scratch -> int

  val faults : scratch -> (int * exn) list
  (** Per-lane faults recorded by the last {!propagate} call, newest first:
      each is [(lane, exn)] with exactly the exception the boxed reference
      would have raised for that site. *)

  val last_live : scratch -> int
  (** Number of lanes that evaluated the gate rule in the last {!propagate}
      call (the eval mask's population after the off-path prescan), without
      recounting bits — 0 when every lane faulted before rule entry. *)

  val ntz : int -> int
  (** Trailing-zero count of a nonzero word (lowest set lane index). *)

  val propagate :
    scratch ->
    Netlist.Gate.kind ->
    fanins:int array ->
    mask:int array ->
    rows:int array ->
    sp:float array ->
    em:int ->
    stride:int ->
    pa:float array ->
    pa_bar:float array ->
    p1:float array ->
    p0:float array ->
    int ->
    int
  (** [propagate s kind ~fanins ~mask ~rows ~sp ~em ~stride ~pa ~pa_bar ~p1
      ~p0 g] evaluates gate [g] for every lane in the evaluation mask [em]
      (lanes with [g] on-path, still alive, and not seeded at [g]), reading
      fanin vectors from the planes where the fanin is on-path ([mask.(u)]
      bit set) and from [sp.(u)] otherwise, then writes the output.  Node
      [u]'s vectors sit in plane row [rows.(u)]: lane [l] at
      [rows.(u) * stride + l].  Returns the bitmask of lanes that faulted
      (recorded in {!faults}); their plane slots are left unwritten.
      Allocates nothing unless a lane faults. *)
end

(** Polarity-blind three-state ablation: [Pa] and [Pā] collapsed into one
    error mass, forcing reconvergent gates to assume error-in implies
    error-out.  Exists to measure what the paper's polarity tracking buys. *)
module Naive : sig
  type t = { pe : float; p1 : float; p0 : float }

  val error_site : t
  val of_sp : float -> t
  val propagate : Netlist.Gate.kind -> t array -> t
end
