(** Recursive-descent parser for ISCAS-89 [.bench] netlists.

    Accepts the standard statement forms [INPUT(x)], [OUTPUT(x)],
    [q = DFF(d)] and [y = KIND(x1, ..., xn)] with the gate-kind aliases of
    {!Netlist.Gate.of_string}.  ['#'] comments and arbitrary whitespace are
    ignored. *)

exception Error of { message : string; pos : Token.position }
(** Syntax error with its source position.  Netlist-level problems (undefined
    signals, cycles, ...) are reported as {!Netlist.Builder.Error} instead. *)

val parse_ast : ?name:string -> string -> Ast.t
(** Parse to the statement AST without building a netlist.
    @raise Error on a syntax error. *)

val parse_string : ?name:string -> string -> Netlist.Circuit.t
(** Parse and elaborate in one pass: each statement goes to a
    {!Netlist.Builder} as soon as it is parsed, so node ids follow the
    file's definition order.  A syntax error anywhere in the file takes
    precedence over the first netlist error.
    @raise Error | Netlist.Builder.Error. *)

val parse_file : string -> Netlist.Circuit.t
(** Parse a file; the circuit name is the file's basename without its
    [.bench] extension.  @raise Sys_error | Error | Netlist.Builder.Error. *)
