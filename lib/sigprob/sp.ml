(* Common vocabulary of the signal-probability engines.

   An engine maps a circuit and an input specification to one probability per
   node (the probability of the net carrying logic 1).  The spec assigns
   probabilities to pseudo-inputs: primary inputs and — for the combinational
   engines — flip-flop outputs.  [Sp_sequential] computes FF-output
   probabilities itself by fixpoint iteration instead. *)

open Netlist

type spec = { input_sp : int -> float }

let uniform = { input_sp = (fun _ -> 0.5) }

let of_fun input_sp = { input_sp }

let of_alist c alist =
  let table = Hashtbl.create 16 in
  List.iter
    (fun (name, p) ->
      Sp_rules.check_probability ~what:(Printf.sprintf "input %S" name) p;
      match Circuit.find_opt c name with
      | Some v -> Hashtbl.replace table v p
      | None -> invalid_arg (Printf.sprintf "Sp.of_alist: unknown signal %S" name))
    alist;
  { input_sp = (fun v -> Option.value ~default:0.5 (Hashtbl.find_opt table v)) }

type result = { circuit : Circuit.t; values : float array }

let baseline_input_sp r v = if Circuit.is_ff r.circuit v then r.values.(v) else 0.5

let get r v = r.values.(v)

let get_name r name = r.values.(Circuit.find r.circuit name)

let check_result r =
  Array.iteri
    (fun v p ->
      if not (p >= 0.0 && p <= 1.0) then
        invalid_arg
          (Printf.sprintf "Sp.check_result: node %s has probability %g"
             (Circuit.node_name r.circuit v) p))
    r.values

let max_absolute_difference a b =
  if Array.length a.values <> Array.length b.values then
    invalid_arg "Sp.max_absolute_difference: different circuits";
  let worst = ref 0.0 in
  Array.iteri
    (fun v pa ->
      let d = Float.abs (pa -. b.values.(v)) in
      if d > !worst then worst := d)
    a.values;
  !worst

let pp ppf r =
  Fmt.pf ppf "@[<v>";
  Array.iteri
    (fun v p -> Fmt.pf ppf "%s: %.4f@," (Circuit.node_name r.circuit v) p)
    r.values;
  Fmt.pf ppf "@]"
