(* Name-based netlist construction with full validation.

   Definitions may reference signals defined later (ISCAS'89 .bench files do
   this freely).  One name table serves the whole construction: every name
   gets a slot the first time it is seen, as a definition, a fanin or an
   OUTPUT, and fanins are stored as slots.  A definition takes the next node
   id, so ids follow definition order; [freeze] resolves fanins through the
   slot -> id array, rewrites the table's slots to ids and hands it to the
   circuit as its name index.  Each name is hashed once per occurrence and
   never again.

   Errors: a statement is checked before any of its names is interned, so a
   rejected statement leaves no trace in the table.  [freeze] reports the
   first undefined reference in definition order (fanins in order), then
   OUTPUT declarations in declaration order, then combinational cycles
   (the actual feedback loops, via SCC). *)

type t = {
  circuit_name : string;
  table : Name_table.t; (* name -> slot *)
  mutable slot_ids : int array; (* slot -> node id, -1 while undefined *)
  mutable declared_output : Bytes.t; (* slot -> '\001' once declared OUTPUT *)
  mutable slots : int;
  (* Definitions by node id; fanins and FF data hold slots until [freeze]. *)
  mutable nodes : Circuit.node array;
  mutable names : string array;
  mutable defs : int;
  mutable outputs : int array; (* slots, in declaration order *)
  mutable output_count : int;
  mutable frozen : bool;
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

let create ?(name = "circuit") () =
  {
    circuit_name = name;
    table = Name_table.create 64;
    slot_ids = Array.make 64 (-1);
    declared_output = Bytes.make 64 '\000';
    slots = 0;
    nodes = Array.make 64 Circuit.Input;
    names = Array.make 64 "";
    defs = 0;
    outputs = Array.make 16 0;
    output_count = 0;
    frozen = false;
  }

let live t = if t.frozen then invalid_arg "Builder: the builder was frozen"

let grown a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* The slot of [name], handing out the next one on first sight. *)
let intern t name =
  let s = Name_table.find_or_add t.table name t.slots in
  if s = t.slots then begin
    if s = Array.length t.slot_ids then begin
      t.slot_ids <- grown t.slot_ids (-1);
      let flags = Bytes.make (2 * s) '\000' in
      Bytes.blit t.declared_output 0 flags 0 s;
      t.declared_output <- flags
    end;
    t.slots <- s + 1
  end;
  s

(* The slot [name] will be defined in.  @raise Error before anything is
   recorded when [name] is already driven. *)
let definable t name =
  live t;
  let s = intern t name in
  if t.slot_ids.(s) >= 0 then raise (Error (Duplicate_definition name));
  s

(* Record the definition of slot [s]; its node id is the definition count. *)
let define t s name node =
  let id = t.defs in
  if id = Array.length t.nodes then begin
    t.nodes <- grown t.nodes Circuit.Input;
    t.names <- grown t.names ""
  end;
  t.nodes.(id) <- node;
  t.names.(id) <- name;
  t.slot_ids.(s) <- id;
  t.defs <- id + 1

let add_input t name = define t (definable t name) name Circuit.Input

let add_dff t ~q ~d =
  let s = definable t q in
  define t s q (Circuit.Ff { data = intern t d })

let rec intern_all t slots k = function
  | [] -> ()
  | name :: rest ->
    slots.(k) <- intern t name;
    intern_all t slots (k + 1) rest

let add_gate t ~output ~kind fanins =
  live t;
  let n = List.length fanins in
  if not (Gate.arity_ok kind n) then raise (Error (Arity { gate = output; kind; got = n }));
  let s = definable t output in
  let slots = Array.make n 0 in
  intern_all t slots 0 fanins;
  define t s output (Circuit.Gate { kind; fanins = slots })

let add_output t name =
  live t;
  let s = intern t name in
  if Bytes.get t.declared_output s <> '\000' then raise (Error (Duplicate_output name));
  Bytes.set t.declared_output s '\001';
  if t.output_count = Array.length t.outputs then t.outputs <- grown t.outputs 0;
  t.outputs.(t.output_count) <- s;
  t.output_count <- t.output_count + 1

let is_defined t name =
  live t;
  let s = Name_table.find t.table name in
  s >= 0 && t.slot_ids.(s) >= 0

(* The name interned as slot [s]: only an error message needs it. *)
let name_of_slot t s =
  let found = ref "" in
  Name_table.iter (fun name v -> if v = s then found := name) t.table;
  !found

let freeze t =
  live t;
  t.frozen <- true;
  let n = t.defs in
  let nodes = Array.sub t.nodes 0 n and names = Array.sub t.names 0 n in
  let slot_ids = t.slot_ids in
  let resolve ~referenced_by s =
    let v = slot_ids.(s) in
    if v < 0 then
      raise (Error (Undefined_signal { referenced_by; missing = name_of_slot t s }));
    v
  in
  for v = 0 to n - 1 do
    match nodes.(v) with
    | Circuit.Input -> ()
    | Circuit.Ff { data } -> nodes.(v) <- Circuit.Ff { data = resolve ~referenced_by:names.(v) data }
    | Circuit.Gate { fanins; _ } ->
      for k = 0 to Array.length fanins - 1 do
        fanins.(k) <- resolve ~referenced_by:names.(v) fanins.(k)
      done
  done;
  let outputs =
    Array.init t.output_count (fun k ->
        resolve ~referenced_by:"OUTPUT declaration" t.outputs.(k))
  in
  (* Every slot is now known to be defined: a slot exists only for a
     definition or for a reference that was just resolved. *)
  Name_table.map_values t.table (fun s -> slot_ids.(s));
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
  let circuit =
    Circuit.make_indexed ~name:t.circuit_name ~nodes ~names ~index:t.table ~inputs ~outputs ~ffs
  in
  (* Combinational cycles are a hard error: every engine assumes a DAG.
     The sort that proves the circuit acyclic is its analysis order, so a
     valid circuit leaves here with its context published; a cyclic one
     publishes nothing, and only it pays for the SCCs that name its loops. *)
  match Analysis.get circuit with
  | _ -> circuit
  | exception Topo.Cycle _ ->
    let loops = Scc.nontrivial (Circuit.graph circuit) in
    let named = List.map (List.map (fun v -> names.(v))) loops in
    raise (Error (Combinational_cycle named))
