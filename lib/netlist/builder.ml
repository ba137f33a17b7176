(* Name-based netlist construction with full validation.

   Definitions may reference signals defined later (ISCAS'89 .bench files do
   this freely), so the builder records everything by name and resolves in
   [freeze].  [freeze] is where every structural error is caught: duplicate
   drivers, undefined references, arity violations, combinational cycles
   (reported as the actual feedback loops via SCC). *)

type definition =
  | Def_input
  | Def_ff of { d : string }
  | Def_gate of { kind : Gate.kind; fanins : string list }

type t = {
  mutable circuit_name : string;
  mutable order_rev : string list; (* definition order of driven signals, reversed *)
  mutable def_count : int;
  defs : (string, definition) Hashtbl.t;
  mutable output_names : string list; (* reversed *)
}

type error =
  | Duplicate_definition of string
  | Undefined_signal of { referenced_by : string; missing : string }
  | Arity of { gate : string; kind : Gate.kind; got : int }
  | Combinational_cycle of string list list
  | Duplicate_output of string

exception Error of error

let error_to_string = function
  | Duplicate_definition s -> Printf.sprintf "signal %S is driven twice" s
  | Undefined_signal { referenced_by; missing } ->
    Printf.sprintf "%S references undefined signal %S" referenced_by missing
  | Arity { gate; kind; got } ->
    Printf.sprintf "gate %S: %s cannot take %d input(s)" gate (Gate.to_string kind) got
  | Combinational_cycle loops ->
    let pp_loop l = "{" ^ String.concat ", " l ^ "}" in
    Printf.sprintf "combinational cycle(s): %s" (String.concat "; " (List.map pp_loop loops))
  | Duplicate_output s -> Printf.sprintf "signal %S is declared OUTPUT twice" s

let pp_error = Fmt.of_to_string error_to_string

let create ?(name = "circuit") () =
  { circuit_name = name; order_rev = []; def_count = 0; defs = Hashtbl.create 64; output_names = [] }

let set_name t name = t.circuit_name <- name

let define t name def =
  if Hashtbl.mem t.defs name then raise (Error (Duplicate_definition name));
  Hashtbl.replace t.defs name def;
  t.order_rev <- name :: t.order_rev;
  t.def_count <- t.def_count + 1

let add_input t name = define t name Def_input

let add_dff t ~q ~d = define t q (Def_ff { d })

let add_gate t ~output ~kind fanins =
  let n = List.length fanins in
  if not (Gate.arity_ok kind n) then raise (Error (Arity { gate = output; kind; got = n }));
  define t output (Def_gate { kind; fanins })

let add_output t name =
  if List.mem name t.output_names then raise (Error (Duplicate_output name));
  t.output_names <- name :: t.output_names

let is_defined t name = Hashtbl.mem t.defs name

let freeze t =
  let n = t.def_count in
  let names = Array.of_list (List.rev t.order_rev) in
  assert (Array.length names = n);
  let id_of = Hashtbl.create (2 * n) in
  Array.iteri (fun v s -> Hashtbl.replace id_of s v) names;
  let resolve ~referenced_by s =
    match Hashtbl.find_opt id_of s with
    | Some v -> v
    | None -> raise (Error (Undefined_signal { referenced_by; missing = s }))
  in
  let nodes =
    Array.map
      (fun s ->
        match Hashtbl.find t.defs s with
        | Def_input -> Circuit.Input
        | Def_ff { d } -> Circuit.Ff { data = resolve ~referenced_by:s d }
        | Def_gate { kind; fanins } ->
          let fanins = Array.of_list (List.map (resolve ~referenced_by:s) fanins) in
          Circuit.Gate { kind; fanins })
      names
  in
  let collect pred =
    let acc = ref [] in
    for v = n - 1 downto 0 do
      if pred nodes.(v) then acc := v :: !acc
    done;
    Array.of_list !acc
  in
  let inputs =
    collect (function
      | Circuit.Input -> true
      | Circuit.Ff _ | Circuit.Gate _ -> false)
  in
  let ffs =
    collect (function
      | Circuit.Ff _ -> true
      | Circuit.Input | Circuit.Gate _ -> false)
  in
  let outputs =
    List.rev t.output_names
    |> List.map (fun s -> resolve ~referenced_by:"OUTPUT declaration" s)
    |> Array.of_list
  in
  let circuit =
    Circuit.make ~name:t.circuit_name ~nodes ~names ~inputs ~outputs ~ffs
  in
  (* Combinational cycles are a hard error: every engine assumes a DAG.
     Only a cyclic netlist pays for the SCCs that name its loops. *)
  if not (Topo.is_acyclic (Circuit.graph circuit)) then begin
    let loops = Scc.nontrivial (Circuit.graph circuit) in
    let named = List.map (List.map (fun v -> names.(v))) loops in
    raise (Error (Combinational_cycle named))
  end;
  circuit
