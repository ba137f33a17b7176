(* Workload inputs: the circuits, their .bench payloads, and the site
   samples.  Every circuit and design is fixed; the workload seed draws the
   samples: the sites the output checks compare, the %Dif sample, the cold
   sites a serd visit asks for, and the visit replayed in-process. *)

(* An independent stream per purpose, so adding draws for one purpose
   never shifts another's. *)
let stream ~seed purpose = Rng.create ~seed:((seed * 1_000_003) + purpose)

type payload = {
  label : string;
  text : string;  (** the .bench source the timed pipeline parses *)
  nodes : int;
  renamed : int;  (** nets renamed to plain identifiers *)
}

let map_names f =
  List.map (function
    | Bench_format.Ast.Input s -> Bench_format.Ast.Input (f s)
    | Output s -> Output (f s)
    | Dff { q; d } -> Dff { q = f q; d = f d }
    | Gate { output; kind; fanins } -> Gate { output = f output; kind; fanins = List.map f fanins })

(* Bench_format.Printer writes generator names such as "m1#lo" verbatim,
   and the parser reads '#' as the start of a comment, so those nets are
   renamed to plain identifiers before printing, as in any real .bench
   file. *)
let plain_names (ast : Bench_format.Ast.t) =
  let renamed = ref 0 in
  let map = Hashtbl.create 4096 and taken = Hashtbl.create 4096 in
  let plain = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false in
  let rename n =
    match Hashtbl.find_opt map n with
    | Some m -> m
    | None ->
      let base = String.map (fun ch -> if plain ch then ch else '_') n in
      let rec fresh i =
        let c = if i = 0 then base else Printf.sprintf "%s_%d" base i in
        if Hashtbl.mem taken c then fresh (i + 1) else c
      in
      let m = fresh 0 in
      if m <> n then incr renamed;
      Hashtbl.add map n m;
      Hashtbl.add taken m ();
      m
  in
  let statements = map_names rename ast.Bench_format.Ast.statements in
  ({ ast with statements }, !renamed)

let payload_of_circuit label c =
  let ast, renamed = plain_names (Bench_format.Printer.ast_of_circuit c) in
  { label; text = Bench_format.Printer.ast_to_string ast; nodes = Netlist.Circuit.node_count c; renamed }

(* dense-estimate: a fixed suite of s13207-profile random DAGs (8,651
   nodes), generator seeds 1 to 3.  Circuits drawn from the workload seed
   moved the peak RSS by a sixth and the median estimate time by a third
   across five seeds: the per-site results grow with each DAG's reach, the
   SP fixpoint hits its iteration cap on about a quarter of them, and the
   batch sweep's cost follows each DAG's level structure.  A fixed suite
   keeps runs comparable.  Three circuits keep a round of the suite short
   enough that every run times whole rounds. *)
let dense_circuits = 3

let dense () =
  List.init dense_circuits (fun i ->
      payload_of_circuit
        (Printf.sprintf "s13207p-%d" (i + 1))
        (Circuit_gen.Random_dag.generate ~seed:(i + 1) Circuit_gen.Profiles.s13207))

(* cone-local-estimate: fixed structures. *)
let cone_local () =
  [
    payload_of_circuit "parity65536" (Circuit_gen.Structured.parity_tree ~width:65536 ());
    payload_of_circuit "mux14" (Circuit_gen.Structured.mux_tree ~select_bits:14 ());
  ]

(* serd-session: modular designs of disjoint s1196-profile blocks, the
   block nets prefixed "b<k>_".  Statements are grouped in the printer's
   canonical order: inputs, outputs, flip-flops, gates.  Design d's blocks
   have generator seeds 10d+1 to 10d+10, fixed for the reason the dense
   suite is: whether a block's SP fixpoint hits its cap decides whether an
   edit on the design costs tens or hundreds of milliseconds. *)
let designs = 3
let blocks_per_design = 10

let design ~index seeds =
  let rank = function
    | Bench_format.Ast.Input _ -> 0
    | Output _ -> 1
    | Dff _ -> 2
    | Gate _ -> 3
  in
  let statements =
    List.concat
      (List.mapi
         (fun b s ->
           let c = Circuit_gen.Random_dag.generate ~seed:s Circuit_gen.Profiles.s1196 in
           map_names (Printf.sprintf "b%d_%s" b)
             (Bench_format.Printer.ast_of_circuit c).Bench_format.Ast.statements)
         seeds)
    |> List.stable_sort (fun a b -> compare (rank a) (rank b))
  in
  let label = Printf.sprintf "design%d" index in
  let ast, renamed = plain_names { Bench_format.Ast.name = label; statements } in
  let text = Bench_format.Printer.ast_to_string ast in
  let nodes =
    List.length (List.filter (function Bench_format.Ast.Output _ -> false | _ -> true) statements)
  in
  { label; text; nodes; renamed }

let session () =
  List.init designs (fun d ->
      design ~index:d (List.init blocks_per_design (fun b -> (d * blocks_per_design) + b + 1)))

(* [count] distinct node ids of an [n]-node circuit. *)
let sample ~seed ~purpose ~count n =
  let rng = stream ~seed purpose in
  Array.to_list (Rng.sample_without_replacement rng ~count:(min count n) ~universe:n)
