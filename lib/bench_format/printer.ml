(* Writer for the .bench format: the exact inverse of Parser on the
   statement AST, and a netlist serializer on top of it.  Statements are
   written straight into one buffer, with the bytes of [Ast.pp_statement]
   (no Format, no string per statement). *)

let rec write_names buf = function
  | [] -> ()
  | [ s ] -> Buffer.add_string buf s
  | s :: rest ->
    Buffer.add_string buf s;
    Buffer.add_string buf ", ";
    write_names buf rest

let write_statement buf = function
  | Ast.Input s ->
    Buffer.add_string buf "INPUT(";
    Buffer.add_string buf s;
    Buffer.add_char buf ')'
  | Ast.Output s ->
    Buffer.add_string buf "OUTPUT(";
    Buffer.add_string buf s;
    Buffer.add_char buf ')'
  | Ast.Dff { q; d } ->
    Buffer.add_string buf q;
    Buffer.add_string buf " = DFF(";
    Buffer.add_string buf d;
    Buffer.add_char buf ')'
  | Ast.Gate { output; kind; fanins } ->
    Buffer.add_string buf output;
    Buffer.add_string buf " = ";
    Buffer.add_string buf (Netlist.Gate.to_string kind);
    Buffer.add_char buf '(';
    write_names buf fanins;
    Buffer.add_char buf ')'

let statement_to_string stmt =
  let buf = Buffer.create 64 in
  write_statement buf stmt;
  Buffer.contents buf

let ast_to_string (ast : Ast.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf ("# " ^ ast.name ^ "\n");
  List.iter
    (fun stmt ->
      write_statement buf stmt;
      Buffer.add_char buf '\n')
    ast.statements;
  Buffer.contents buf

(* The names of [fanins.(0 .. k)], consed onto [acc]. *)
let rec fanin_names c fanins k acc =
  if k < 0 then acc
  else fanin_names c fanins (k - 1) (Netlist.Circuit.node_name c fanins.(k) :: acc)

(* Serialize a circuit in a canonical statement order: INPUTs, OUTPUTs, DFFs,
   then gates in node order.  Reparsing yields an identical circuit. *)
let ast_of_circuit c =
  let open Netlist in
  let statements = ref [] in
  let add s = statements := s :: !statements in
  List.iter (fun v -> add (Ast.Input (Circuit.node_name c v))) (Circuit.inputs c);
  List.iter (fun v -> add (Ast.Output (Circuit.node_name c v))) (Circuit.outputs c);
  List.iter
    (fun ff ->
      match Circuit.node c ff with
      | Circuit.Ff { data } ->
        add (Ast.Dff { q = Circuit.node_name c ff; d = Circuit.node_name c data })
      | Circuit.Input | Circuit.Gate _ -> assert false)
    (Circuit.ffs c);
  for v = 0 to Circuit.node_count c - 1 do
    match Circuit.node c v with
    | Circuit.Gate { kind; fanins } ->
      add
        (Ast.Gate
           {
             output = Circuit.node_name c v;
             kind;
             fanins = fanin_names c fanins (Array.length fanins - 1) [];
           })
    | Circuit.Input | Circuit.Ff _ -> ()
  done;
  { Ast.name = Circuit.name c; statements = List.rev !statements }

let circuit_to_string c = ast_to_string (ast_of_circuit c)

let write_file path c =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (circuit_to_string c))
