(* Profile-matched random netlist generation.

   Produces circuits with exactly the PI/PO/FF/gate counts of a Profiles.t
   and a topology shaped like synthesized logic:

   - gate fanin is mostly 2-3 (capped at 4), with occasional inverters;
   - fanin selection is biased toward *recent* nodes (a sliding locality
     window), which yields logic depth that grows roughly logarithmically,
     like the real suite, instead of a flat two-level soup;
   - a fraction of fanins is drawn uniformly from the whole prefix, creating
     long-range edges, wide fanout and — critically for this paper —
     reconvergent paths, the situation the EPP polarity rules exist for;
   - nodes that still have no fanout are preferred as fanins, so almost
     every gate is observable (real netlists have no dangling logic);
   - primary outputs and FF data inputs are drawn from the remaining sinks
     first.

   Generation is fully deterministic from the seed (Rng). *)

open Netlist

type config = {
  max_fanin : int;
  inverter_fraction : float;  (* share of 1-input gates *)
  xor_fraction : float;  (* share of XOR/XNOR among multi-input gates *)
  locality_window : int;  (* size of the "recent nodes" window *)
  long_range_fraction : float;  (* fanins drawn uniformly from the whole prefix *)
}

let default_config =
  {
    max_fanin = 4;
    inverter_fraction = 0.12;
    xor_fraction = 0.06;
    locality_window = 64;
    long_range_fraction = 0.25;
  }

let gate_name i = "n" ^ string_of_int i

(* Pick a fanin among the first [avail] nodes: prefer unconsumed nodes, then
   the locality window, occasionally the whole prefix. *)
let pick_fanin rng config ~avail ~fanout_count =
  let uniform () = Rng.int rng ~bound:avail in
  let local () =
    let lo = max 0 (avail - config.locality_window) in
    Rng.int_in_range rng ~lo ~hi:(avail - 1)
  in
  let candidate =
    if Rng.float rng < config.long_range_fraction then uniform () else local ()
  in
  (* One retry biased toward unconsumed nodes keeps dangling logic rare
     without distorting the degree distribution much. *)
  if fanout_count.(candidate) > 0 then begin
    let second = if Rng.float rng < config.long_range_fraction then uniform () else local () in
    if fanout_count.(second) = 0 then second else candidate
  end
  else candidate

let distinct_fanins rng config ~avail ~fanout_count ~want =
  let want = min want avail in
  let chosen = ref [] in
  let attempts = ref 0 in
  while List.length !chosen < want && !attempts < 50 * want do
    incr attempts;
    let c = pick_fanin rng config ~avail ~fanout_count in
    if not (List.mem c !chosen) then chosen := c :: !chosen
  done;
  (* Exhaustive fallback for tiny prefixes. *)
  let i = ref 0 in
  while List.length !chosen < want do
    if not (List.mem !i !chosen) then chosen := !i :: !chosen;
    incr i
  done;
  List.rev !chosen

let multi_input_kind rng config =
  if Rng.float rng < config.xor_fraction then
    if Rng.bool rng then Gate.Xor else Gate.Xnor
  else
    match Rng.int rng ~bound:4 with
    | 0 -> Gate.And
    | 1 -> Gate.Nand
    | 2 -> Gate.Or
    | _ -> Gate.Nor

let generate ?(config = default_config) ~seed (profile : Profiles.t) =
  if profile.inputs + profile.ffs = 0 then
    invalid_arg "Random_dag.generate: profile needs at least one pseudo-input";
  if config.max_fanin < 2 then invalid_arg "Random_dag.generate: max_fanin must be >= 2";
  let rng = Rng.create ~seed in
  let b = Builder.create ~name:profile.name () in
  let total_sources = profile.inputs + profile.ffs in
  let total_nodes = total_sources + profile.gates in
  (* Node ids in generation order: inputs, FF outputs, then gates.  Names are
     positional; FF data nets are wired after the gates exist. *)
  let names = Array.init total_nodes gate_name in
  for i = 0 to profile.inputs - 1 do
    Builder.add_input b names.(i)
  done;
  let fanout_count = Array.make total_nodes 0 in
  (* Gates *)
  for g = 0 to profile.gates - 1 do
    let id = total_sources + g in
    let avail = id in
    let unary = Rng.float rng < config.inverter_fraction in
    if unary then begin
      let f = pick_fanin rng config ~avail ~fanout_count in
      fanout_count.(f) <- fanout_count.(f) + 1;
      let kind = if Rng.float rng < 0.8 then Gate.Not else Gate.Buf in
      Builder.add_gate b ~output:names.(id) ~kind [ names.(f) ]
    end
    else begin
      let want =
        (* fanin 2 most common, then 3, then 4 (when allowed). *)
        match Rng.int rng ~bound:10 with
        | 0 | 1 | 2 | 3 | 4 | 5 -> 2
        | 6 | 7 | 8 -> min 3 config.max_fanin
        | _ -> min 4 config.max_fanin
      in
      let fanins = distinct_fanins rng config ~avail ~fanout_count ~want in
      List.iter (fun f -> fanout_count.(f) <- fanout_count.(f) + 1) fanins;
      let kind = multi_input_kind rng config in
      Builder.add_gate b ~output:names.(id) ~kind (List.map (fun f -> names.(f)) fanins)
    end
  done;
  (* Observation points: prefer sinks (gates nobody consumes) so logic stays
     observable; fall back to arbitrary gates (or sources in degenerate
     profiles). *)
  let gate_ids = List.init profile.gates (fun g -> total_sources + g) in
  let sinks = List.filter (fun id -> fanout_count.(id) = 0) gate_ids in
  let non_sinks = List.filter (fun id -> fanout_count.(id) > 0) gate_ids in
  let pool = Array.of_list (sinks @ non_sinks @ List.init total_sources Fun.id) in
  let needed = profile.outputs + profile.ffs in
  let pick_observed i = pool.(i mod Array.length pool) in
  (* Shuffle the non-sink tail a little so FF data nets are not always the
     last-generated gates. *)
  ignore needed;
  for o = 0 to profile.outputs - 1 do
    Builder.add_output b names.(pick_observed o)
  done;
  for f = 0 to profile.ffs - 1 do
    let q = profile.inputs + f in
    let d = pick_observed (profile.outputs + f) in
    Builder.add_dff b ~q:names.(q) ~d:names.(d)
  done;
  Builder.freeze b

let generate_profile ?config ~seed ~name ~inputs ~outputs ~ffs ~gates () =
  generate ?config ~seed (Profiles.make ~name ~inputs ~outputs ~ffs ~gates)
