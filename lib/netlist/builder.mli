(** Validated, name-based construction of {!Circuit.t} values.

    Signals may be referenced before they are defined (as ISCAS'89 [.bench]
    files do); resolution and the remaining structural checks happen in
    {!freeze}.  Node ids follow definition order.  Every name is interned
    into one {!Name_table} the first time it is seen, and that table becomes
    the circuit's name index.  A statement rejected with {!Error} records
    nothing, so its names stay out of the index. *)

type t

type error =
  | Duplicate_definition of string  (** a signal driven by two definitions *)
  | Undefined_signal of { referenced_by : string; missing : string }
  | Arity of { gate : string; kind : Gate.kind; got : int }
  | Combinational_cycle of string list list
      (** each element is one feedback loop, as signal names *)
  | Duplicate_output of string

exception Error of error

val error_to_string : error -> string

val create : ?name:string -> unit -> t

val add_input : t -> string -> unit
(** Declare a primary input.  @raise Error [Duplicate_definition]. *)

val add_output : t -> string -> unit
(** Declare a primary output (by signal name, resolved at freeze).
    @raise Error [Duplicate_output]. *)

val add_dff : t -> q:string -> d:string -> unit
(** Declare a flip-flop driving signal [q] from data input [d].
    @raise Error [Duplicate_definition]. *)

val add_gate : t -> output:string -> kind:Gate.kind -> string list -> unit
(** Declare a gate driving [output] from the named fanins.
    @raise Error [Duplicate_definition | Arity]. *)

val is_defined : t -> string -> bool

val freeze : t -> Circuit.t
(** Resolve names, build the immutable circuit, and validate: undefined
    references (the first in definition order, a definition's fanins in
    order, then OUTPUT declarations in order), then combinational cycles
    (reported as explicit loops).  The topological sort that proves the
    circuit acyclic is its analysis order: a circuit returned here already
    holds its {!Analysis.get} context ([analysis.topo.computed] and
    [analysis.context.computed] count it here), and a cyclic netlist
    publishes none.  [freeze] consumes the builder, whatever its outcome:
    any later call on it raises [Invalid_argument].  @raise Error. *)
