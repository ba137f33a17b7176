(* Signal probability for sequential circuits by fixpoint iteration.

   The combinational engines need a 1-probability for every flip-flop output
   (pseudo-input).  This module computes them self-consistently: start every
   FF at 0.5, run the topological engine, replace each FF-output probability
   with the probability computed at its data net, repeat until the largest
   change falls below the tolerance.  This is the standard steady-state
   treatment; it converges geometrically on almost all practical circuits
   (the contraction is the combinational probability transfer function).

   The iteration is change-driven.  Iteration 1 is the full topological
   pass.  After it, only the FF outputs whose value changed bitwise move,
   and only the gates downstream of them are re-evaluated, level by level
   (ASAP levels over the forward CSR); a gate whose new output is bit-equal
   to its old one stops the wave.  Every value a full pass would produce is
   a pure function of its fanins' bits, so a gate none of whose fanins
   changed bits would recompute exactly its old value: the array after each
   iteration is bit-for-bit the one a fresh full pass would fill, and so
   are the iteration count, the residual and the outcome.  All state lives
   in a few arrays allocated once per compute. *)

open Netlist

type outcome = {
  result : Sp.result;
  iterations : int;
  converged : bool;
  residual : float; (* largest FF-output change in the last iteration *)
}

let default_tolerance = 1e-9
let default_max_iterations = 1000

let[@inline] same_bits a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let compute ?(spec = Sp.uniform) ?(tolerance = default_tolerance)
    ?(max_iterations = default_max_iterations) circuit =
  if tolerance <= 0.0 then invalid_arg "Sp_sequential.compute: tolerance must be positive";
  if max_iterations <= 0 then
    invalid_arg "Sp_sequential.compute: max_iterations must be positive";
  Obs.Trace.span (Obs.Hooks.tracer ()) ~cat:"sp" "sp.sequential" @@ fun () ->
  let m = Obs.Hooks.metrics () in
  let c_iterations = Obs.Metrics.counter m "sp.fixpoint_iterations" in
  let g_residual = Obs.Metrics.gauge m "sp.fixpoint_residual" in
  let c_evaluations = Obs.Metrics.counter m "sp.node_evaluations" in
  let n = Circuit.node_count circuit in
  let ffs = Array.of_list (Circuit.ffs circuit) in
  let data =
    Array.map
      (fun ff ->
        match Circuit.node circuit ff with
        | Circuit.Ff { data } -> data
        | Circuit.Input | Circuit.Gate _ -> assert false)
      ffs
  in
  (* Iteration 1: the full pass, every FF output at 0.5.  Primary inputs
     are read from [spec] and checked here, once per compute. *)
  let values = Array.make n 0.0 in
  Sp_topological.fill circuit values ~input_sp:(fun v ->
      if Circuit.is_ff circuit v then 0.5 else spec.Sp.input_sp v);
  let evaluations = ref n in
  (* FF outputs for the next iteration, gathered before any moves: an FF
     fed by another FF reads the value the last iteration used. *)
  let next = Array.make (Array.length ffs) 0.0 in
  (* Change-driven wave: gates queued per ASAP level as intrusive stacks
     ([head] per level, [link] per node); [queued] keeps a gate in at most
     one slot. *)
  let ctx = Analysis.get circuit in
  let levels = Analysis.levels ctx in
  let csr = Analysis.csr ctx in
  let offsets = Csr.offsets csr and targets = Csr.targets csr in
  let head = Array.make (Analysis.depth ctx + 1) (-1) in
  let link = Array.make n (-1) in
  let queued = Array.make n false in
  let lowest = ref max_int and highest = ref (-1) in
  let schedule_fanouts v =
    for j = offsets.(v) to offsets.(v + 1) - 1 do
      let g = targets.(j) in
      if not queued.(g) then begin
        queued.(g) <- true;
        let l = levels.(g) in
        link.(g) <- head.(l);
        head.(l) <- g;
        if l < !lowest then lowest := l;
        if l > !highest then highest := l
      end
    done
  in
  let advance () =
    for k = 0 to Array.length ffs - 1 do
      let ff = ffs.(k) in
      if not (same_bits next.(k) values.(ff)) then begin
        values.(ff) <- next.(k);
        incr evaluations;
        schedule_fanouts ff
      end
    done;
    (* Fanouts sit on strictly higher levels, so the wave only ever pushes
       ahead of the level being drained. *)
    let l = ref !lowest in
    while !l <= !highest do
      while head.(!l) >= 0 do
        let g = head.(!l) in
        head.(!l) <- link.(g);
        queued.(g) <- false;
        match Circuit.node circuit g with
        | Circuit.Gate { kind; fanins } ->
          let old = values.(g) in
          Sp_rules.eval_gate kind fanins values g;
          incr evaluations;
          if not (same_bits values.(g) old) then schedule_fanouts g
        | Circuit.Input | Circuit.Ff _ -> assert false
      done;
      incr l
    done;
    lowest := max_int;
    highest := -1
  in
  let rec iterate i =
    (* a local loop, so the float accumulator stays unboxed *)
    let residual = ref 0.0 in
    for k = 0 to Array.length ffs - 1 do
      let fresh = values.(data.(k)) in
      let d = Float.abs (fresh -. values.(ffs.(k))) in
      if d > !residual then residual := d;
      next.(k) <- fresh
    done;
    let residual = !residual in
    Obs.Metrics.incr c_iterations;
    Obs.Metrics.set_gauge g_residual residual;
    let finish converged =
      Obs.Metrics.add c_evaluations !evaluations;
      { result = { Sp.circuit; values }; iterations = i; converged; residual }
    in
    if residual <= tolerance then finish true
    else if i >= max_iterations then finish false
    else begin
      advance ();
      iterate (i + 1)
    end
  in
  iterate 1

let spec_of_outcome outcome =
  let circuit = outcome.result.Sp.circuit in
  let values = outcome.result.Sp.values in
  Sp.of_fun (fun v ->
      match Circuit.node circuit v with
      | Circuit.Ff { data } -> values.(data)
      | Circuit.Input | Circuit.Gate _ -> values.(v))
