(* Structural statistics of a netlist.

   Used by the `bench_info` tool to print the Table-2 circuit
   characteristics, and by `netlist_tool optimize` to compare gate counts
   and depth before and after. *)

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
   downstream — the very situation the paper's polarity tracking targets:
   some node is reachable from two distinct immediate fanouts, or the site
   feeds one gate twice.  One breadth-first search per site with two or
   more fanout edges, from all its branches at once: each node takes the
   label of the branch that reached it first, and the branches reconverge
   exactly when the search walks an edge into a node that holds another
   label (a path from one branch to a node another branch labelled must
   cross such an edge, and the search walks every edge it reaches) or
   finds a branch listed twice.  One label, stamp and queue array serve
   every site; the stamp is the site's id, so no search clears anything. *)
let reconvergent_site_count c =
  let g = Circuit.graph c in
  let offsets = Digraph.offsets g and targets = Digraph.targets g in
  let n = Digraph.vertex_count g in
  let stamp = Array.make n (-1) and label = Array.make n 0 and queue = Array.make n 0 in
  let reconverges site =
    let met = ref false and tail = ref 0 in
    for i = offsets.(site) to offsets.(site + 1) - 1 do
      let b = targets.(i) in
      if stamp.(b) = site then met := true
      else begin
        stamp.(b) <- site;
        label.(b) <- i;
        queue.(!tail) <- b;
        incr tail
      end
    done;
    let head = ref 0 in
    while (not !met) && !head < !tail do
      let u = queue.(!head) in
      incr head;
      let l = label.(u) in
      for j = offsets.(u) to offsets.(u + 1) - 1 do
        let w = targets.(j) in
        if stamp.(w) <> site then begin
          stamp.(w) <- site;
          label.(w) <- l;
          queue.(!tail) <- w;
          incr tail
        end
        else if label.(w) <> l then met := true
      done
    done;
    !met
  in
  let count = ref 0 in
  for v = 0 to n - 1 do
    if offsets.(v + 1) - offsets.(v) >= 2 && reconverges v then incr count
  done;
  !count

let compute c =
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
