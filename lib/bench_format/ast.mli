(** Statement-level AST of a [.bench] file, between the parser and the
    netlist builder.  Enables exact parse/print round-trip tests. *)

type statement =
  | Input of string
  | Output of string
  | Dff of { q : string; d : string }
  | Gate of { output : string; kind : Netlist.Gate.kind; fanins : string list }

type t = { name : string; statements : statement list }

val pp_statement : statement Fmt.t
val pp : t Fmt.t
