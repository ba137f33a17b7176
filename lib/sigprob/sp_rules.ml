(* Signal-probability composition rules under the input-independence
   assumption (Parker & McCluskey, IEEE ToC 1975 — reference [5] of the
   paper).  For a gate whose inputs are independent with 1-probabilities
   p_1..p_n:

     AND : prod p_i                 NAND : 1 - prod p_i
     OR  : 1 - prod (1 - p_i)       NOR  : prod (1 - p_i)
     XOR : fold (a,b) -> a(1-b) + b(1-a)   (associative)   XNOR : 1 - XOR
     NOT : 1 - p                    BUF  : p
     CONST0 : 0                     CONST1 : 1 *)

open Netlist

let[@inline] clamp p = if p < 0.0 then 0.0 else if p > 1.0 then 1.0 else p

let check_probability ~what p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "Sp_rules: %s probability %g outside [0,1]" what p)

(* The one copy of the rules.  The gate's inputs are read in fanin order
   from [values.(fanins.(i))] and its clamped output is stored at
   [values.(out)]: the engines evaluate gates in place in their per-node
   array, with no per-gate input array and, since the result is stored
   rather than returned, no boxed float.  The accumulators are local float
   refs, which the native compiler keeps unboxed.  No input is checked
   here: the engines validate pseudo-input probabilities once when they
   read them, and every gate output is clamped. *)
let eval_gate kind fanins values out =
  let n = Array.length fanins in
  let p =
    match kind with
    | Gate.And | Gate.Nand -> (
      let acc = ref 1.0 in
      for i = 0 to n - 1 do
        acc := !acc *. values.(fanins.(i))
      done;
      match kind with
      | Gate.And -> !acc
      | _ -> 1.0 -. !acc)
    | Gate.Or | Gate.Nor -> (
      let acc = ref 1.0 in
      for i = 0 to n - 1 do
        acc := !acc *. (1.0 -. values.(fanins.(i)))
      done;
      match kind with
      | Gate.Nor -> !acc
      | _ -> 1.0 -. !acc)
    | Gate.Xor | Gate.Xnor -> (
      let acc = ref 0.0 in
      for i = 0 to n - 1 do
        let p = values.(fanins.(i)) in
        acc := (!acc *. (1.0 -. p)) +. (p *. (1.0 -. !acc))
      done;
      match kind with
      | Gate.Xor -> !acc
      | _ -> 1.0 -. !acc)
    | Gate.Not -> 1.0 -. values.(fanins.(0))
    | Gate.Buf -> values.(fanins.(0))
    | Gate.Const0 -> 0.0
    | Gate.Const1 -> 1.0
  in
  values.(out) <- clamp p

let gate_sp kind inputs =
  let n = Array.length inputs in
  Gate.check_arity kind n;
  Array.iter (check_probability ~what:"input") inputs;
  (* inputs at slots 0 .. n-1, the output at slot n *)
  let values = Array.append inputs [| 0.0 |] in
  eval_gate kind (Array.init n Fun.id) values n;
  values.(n)
