(** Writer for the [.bench] format.

    [Parser.parse_string (circuit_to_string c)] reconstructs a circuit equal
    to [c] up to node numbering (the canonical statement order is INPUTs,
    OUTPUTs, DFFs, then gates in node order), and
    [Parser.parse_ast (ast_to_string a) = a] exactly.  Every renderer writes
    the bytes of {!Ast.pp_statement}, one statement a line after a
    ["# name"] header. *)

val statement_to_string : Ast.statement -> string
val ast_to_string : Ast.t -> string
val ast_of_circuit : Netlist.Circuit.t -> Ast.t
val circuit_to_string : Netlist.Circuit.t -> string

val write_file : string -> Netlist.Circuit.t -> unit
(** @raise Sys_error. *)
