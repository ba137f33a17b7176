(* Parker–McCluskey topological signal probability: one pass over the
   levelized circuit, composing Sp_rules at each gate under the independence
   assumption.  Exact on fanout-free circuits; an approximation in the
   presence of reconvergent fanout (quantified against Sp_exact by the test
   suite).  This is the "signal probability calculation, which is already
   used in other steps of the design flow" that the paper's EPP step
   leverages, and its cost is the SPT column of Table 2. *)

open Netlist

(* The full pass, in place: pseudo-inputs take [input_sp] (each read once
   and checked), gates are evaluated in topological order from [values].
   Shared with the sequential fixpoint, whose first iteration is this pass
   with the flip-flop outputs at their start value. *)
let fill circuit ~input_sp values =
  (* Shared topological order from the analysis context. *)
  Array.iter
    (fun v ->
      match Circuit.node circuit v with
      | Circuit.Input | Circuit.Ff _ ->
        let p = input_sp v in
        Sp_rules.check_probability ~what:(Circuit.node_name circuit v) p;
        values.(v) <- p
      | Circuit.Gate { kind; fanins } ->
        Gate.check_arity kind (Array.length fanins);
        Sp_rules.eval_gate kind fanins values v)
    (Analysis.order (Analysis.get circuit))

let compute ?(spec = Sp.uniform) circuit =
  Obs.Trace.span (Obs.Hooks.tracer ()) ~cat:"sp" "sp.topological" @@ fun () ->
  let n = Circuit.node_count circuit in
  Obs.Metrics.add
    (Obs.Metrics.counter (Obs.Hooks.metrics ()) "sp.node_evaluations")
    n;
  let values = Array.make n 0.0 in
  fill circuit ~input_sp:spec.Sp.input_sp values;
  { Sp.circuit; values }
