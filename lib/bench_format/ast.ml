(* Statement-level AST of a .bench file.

   Kept separate from the netlist so the parser and printer can be tested as
   an exact round-trip, independent of netlist validation. *)

type statement =
  | Input of string
  | Output of string
  | Dff of { q : string; d : string }
  | Gate of { output : string; kind : Netlist.Gate.kind; fanins : string list }

type t = { name : string; statements : statement list }

let pp_statement ppf = function
  | Input s -> Fmt.pf ppf "INPUT(%s)" s
  | Output s -> Fmt.pf ppf "OUTPUT(%s)" s
  | Dff { q; d } -> Fmt.pf ppf "%s = DFF(%s)" q d
  | Gate { output; kind; fanins } ->
    Fmt.pf ppf "%s = %s(%s)" output (Netlist.Gate.to_string kind) (String.concat ", " fanins)

let pp ppf t =
  Fmt.pf ppf "@[<v># %s@,%a@]" t.name (Fmt.list ~sep:Fmt.cut pp_statement) t.statements
