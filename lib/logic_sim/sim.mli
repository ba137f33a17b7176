(** Levelized combinational simulation, in two value domains sharing one
    compiled evaluation order: single boolean vectors (reference semantics)
    and 64-pattern [int64] words (bit-parallel, the engine behind the
    random-simulation baseline of the paper's Table 2). *)

type compiled

val compile : Netlist.Circuit.t -> compiled
(** Fix the topological gate order once; each run is then one linear pass. *)

val circuit : compiled -> Netlist.Circuit.t

val run_bool : compiled -> bool array -> unit
(** In-place evaluation: entries at pseudo-inputs are read, entries at gates
    overwritten.  Length must be [node_count].  @raise Invalid_argument. *)

val eval_bool : compiled -> assign:(int -> bool) -> bool array
(** Evaluate with pseudo-input [v] set to [assign v]; returns all node
    values. *)

val run_words : compiled -> int64 array -> unit
(** Word-domain counterpart of {!run_bool}: 64 vectors per call. *)

val eval_words : compiled -> assign:(int -> int64) -> int64 array

val random_words : compiled -> rng:Rng.t -> int64 array
(** Evaluate 64 uniform random vectors. *)

val biased_words : compiled -> rng:Rng.t -> input_sp:(int -> float) -> int64 array
(** Evaluate 64 random vectors where pseudo-input [v] is 1 with probability
    [input_sp v] per pattern. *)

val eval_words_with_flip :
  compiled -> base:int64 array -> cone:int array -> site:int -> int64 array
(** Faulty-machine evaluation: copy the fault-free values [base], force the
    complement at [site], and re-evaluate the gates of [cone], the site's
    forward-cone members in topological order ({!Netlist.Analysis.cone}).
    @raise Invalid_argument on a length mismatch. *)
