(* Structural statistics of a netlist.

   Used by the `bench_info` tool and by the experiment driver to print the
   Table-2 circuit characteristics next to the measured results. *)

type t = {
  name : string;
  node_count : int;
  input_count : int;
  output_count : int;
  ff_count : int;
  gate_count : int;
  gate_kind_counts : (Gate.kind * int) list;
  depth : int;
  max_fanin : int;
  max_fanout : int;
  average_fanout : float;
  reconvergent_site_count : int;
}

let gate_kind_counts c =
  let table = Hashtbl.create 16 in
  for v = 0 to Circuit.node_count c - 1 do
    match Circuit.kind_of c v with
    | None -> ()
    | Some k ->
      let cur = Option.value ~default:0 (Hashtbl.find_opt table k) in
      Hashtbl.replace table k (cur + 1)
  done;
  Gate.all
  |> List.filter_map (fun k ->
         match Hashtbl.find_opt table k with
         | Some n -> Some (k, n)
         | None -> None)

(* A site is "reconvergent" if two of its fanout branches meet again
   downstream — the very situation the paper's polarity tracking targets.
   Detected as: some vertex in the site's forward cone is reachable from two
   distinct immediate fanouts. *)
let is_reconvergent_site c v =
  let g = Circuit.graph c in
  match Digraph.succ g v with
  | [] | [ _ ] -> false
  | fanouts ->
    (* Branch cones come from the analysis context's cache: a net with k
       fanin gates is a fanout branch of k different sites, so a full
       reconvergence sweep reuses each cone k times instead of re-running
       the search.  Each branch's members are looked up in the branches
       before it. *)
    let ctx = Analysis.get c in
    let position = Analysis.position ctx in
    let rec loop seen = function
      | [] -> false
      | f :: rest ->
        let branch = Analysis.cone ctx f in
        Array.exists (fun u -> List.exists (fun l -> Reach.find l u >= 0) seen) branch
        || loop (Reach.lookup ~position branch :: seen) rest
    in
    loop [] fanouts

let reconvergent_site_count c =
  let count = ref 0 in
  for v = 0 to Circuit.node_count c - 1 do
    if is_reconvergent_site c v then incr count
  done;
  !count

let compute ?(with_reconvergence = false) c =
  let n = Circuit.node_count c in
  let max_fanin = ref 0 and max_fanout = ref 0 and fanout_sum = ref 0 in
  for v = 0 to n - 1 do
    let fi = Array.length (Circuit.fanins c v) in
    let fo = List.length (Circuit.fanouts c v) in
    if fi > !max_fanin then max_fanin := fi;
    if fo > !max_fanout then max_fanout := fo;
    fanout_sum := !fanout_sum + fo
  done;
  {
    name = Circuit.name c;
    node_count = n;
    input_count = Circuit.input_count c;
    output_count = Circuit.output_count c;
    ff_count = Circuit.ff_count c;
    gate_count = Circuit.gate_count c;
    gate_kind_counts = gate_kind_counts c;
    depth = Analysis.depth (Analysis.get c);
    max_fanin = !max_fanin;
    max_fanout = !max_fanout;
    average_fanout = (if n = 0 then 0.0 else float_of_int !fanout_sum /. float_of_int n);
    reconvergent_site_count = (if with_reconvergence then reconvergent_site_count c else -1);
  }

let pp ppf s =
  let kinds =
    s.gate_kind_counts
    |> List.map (fun (k, n) -> Printf.sprintf "%s:%d" (Gate.to_string k) n)
    |> String.concat ", "
  in
  Fmt.pf ppf
    "@[<v>%s: %d nodes, %d PI, %d PO, %d FF, %d gates, depth %d@,\
     max fanin %d, max fanout %d, avg fanout %.2f@,gates: %s@]"
    s.name s.node_count s.input_count s.output_count s.ff_count s.gate_count s.depth
    s.max_fanin s.max_fanout s.average_fanout kinds
