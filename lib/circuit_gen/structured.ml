(* Structured benchmark circuits: arithmetic and selection networks built
   gate by gate, with shapes that stress specific parts of the SER flow:

   - ripple-carry adders: long reconvergent carry chains (depth);
   - array multipliers: massive reconvergence (the hard case for the
     independence assumption);
   - parity trees: pure XOR logic, the polarity-tracking showcase;
   - MUX trees: controlling-value masking dominated by select inputs;
   - registered ALU slice: a realistic sequential mix.

   All generators produce validated circuits with systematic names, so
   tests can check the arithmetic bit-for-bit against OCaml integers. *)

open Netlist

(* What [Printf.sprintf "%s%d"] would write, without the format
   interpreter: the trees below name up to 131k nets this way. *)
let bit_name prefix i = prefix ^ string_of_int i

(* --- full adder --------------------------------------------------------------- *)

let full_adder b ~a ~bb ~cin ~sum ~cout =
  let t = sum ^ "#axb" in
  Builder.add_gate b ~output:t ~kind:Gate.Xor [ a; bb ];
  Builder.add_gate b ~output:sum ~kind:Gate.Xor [ t; cin ];
  let c1 = sum ^ "#ab" and c2 = sum ^ "#tc" in
  Builder.add_gate b ~output:c1 ~kind:Gate.And [ a; bb ];
  Builder.add_gate b ~output:c2 ~kind:Gate.And [ t; cin ];
  Builder.add_gate b ~output:cout ~kind:Gate.Or [ c1; c2 ]

let ripple_adder ~width () =
  if width < 1 then invalid_arg "Structured.ripple_adder: width must be >= 1";
  let b = Builder.create ~name:(Printf.sprintf "add%d" width) () in
  for i = 0 to width - 1 do
    Builder.add_input b (bit_name "a" i);
    Builder.add_input b (bit_name "b" i)
  done;
  Builder.add_input b "cin";
  let rec stage i carry =
    if i = width then carry
    else begin
      let cout = if i = width - 1 then "cout" else Printf.sprintf "c%d" (i + 1) in
      full_adder b ~a:(bit_name "a" i) ~bb:(bit_name "b" i) ~cin:carry
        ~sum:(bit_name "s" i) ~cout;
      stage (i + 1) cout
    end
  in
  let final_carry = stage 0 "cin" in
  for i = 0 to width - 1 do
    Builder.add_output b (bit_name "s" i)
  done;
  Builder.add_output b final_carry;
  Builder.freeze b

(* --- array multiplier ----------------------------------------------------------- *)

let array_multiplier ~width () =
  if width < 1 then invalid_arg "Structured.array_multiplier: width must be >= 1";
  let b = Builder.create ~name:(Printf.sprintf "mul%d" width) () in
  for i = 0 to width - 1 do
    Builder.add_input b (bit_name "a" i);
    Builder.add_input b (bit_name "b" i)
  done;
  (* partial products *)
  let pp i j = Printf.sprintf "pp_%d_%d" i j in
  for i = 0 to width - 1 do
    for j = 0 to width - 1 do
      Builder.add_gate b ~output:(pp i j) ~kind:Gate.And [ bit_name "a" i; bit_name "b" j ]
    done
  done;
  (* carry-save reduction row by row; row r adds partial products of b_r *)
  (* running sum bits after row r: s_r_k for k = r .. r+width-1, plus carry *)
  let zero = "mul#zero" in
  Builder.add_gate b ~output:zero ~kind:Gate.Const0 [];
  (* initialize with row 0 *)
  let current = Array.init (2 * width) (fun k -> if k < width then pp k 0 else zero) in
  for r = 1 to width - 1 do
    (* add the shifted row r into current with a ripple adder *)
    let carry = ref zero in
    for k = r to r + width - 1 do
      let a = current.(k) and b_in = pp (k - r) r in
      let sum = Printf.sprintf "row%d_s%d" r k and cout = Printf.sprintf "row%d_c%d" r k in
      full_adder b ~a ~bb:b_in ~cin:!carry ~sum ~cout;
      current.(k) <- sum;
      carry := cout
    done;
    (* propagate the final carry into the untouched upper bits *)
    let k = ref (r + width) in
    while !carry <> zero && !k < 2 * width do
      let a = current.(!k) in
      let sum = Printf.sprintf "row%d_s%d" r !k and cout = Printf.sprintf "row%d_c%d" r !k in
      let half_and = sum ^ "#hc" in
      Builder.add_gate b ~output:sum ~kind:Gate.Xor [ a; !carry ];
      Builder.add_gate b ~output:half_and ~kind:Gate.And [ a; !carry ];
      current.(!k) <- sum;
      carry := half_and;
      Builder.add_gate b ~output:cout ~kind:Gate.Buf [ half_and ];
      incr k
    done
  done;
  for k = 0 to (2 * width) - 1 do
    let out = bit_name "p" k in
    Builder.add_gate b ~output:out ~kind:Gate.Buf [ current.(k) ];
    Builder.add_output b out
  done;
  Builder.freeze b

(* --- parity tree ------------------------------------------------------------------ *)

let parity_tree ~width () =
  if width < 1 then invalid_arg "Structured.parity_tree: width must be >= 1";
  let b = Builder.create ~name:(Printf.sprintf "parity%d" width) () in
  (* Each name is formatted once and the same string is passed on. *)
  let inputs = List.init width (bit_name "x") in
  List.iter (Builder.add_input b) inputs;
  let counter = ref 0 in
  let rec reduce level = function
    | [] -> assert false
    | [ root ] -> root
    | signals ->
      let rec pair acc = function
        | a :: bb :: rest ->
          incr counter;
          let out = bit_name "p" level ^ bit_name "_" !counter in
          Builder.add_gate b ~output:out ~kind:Gate.Xor [ a; bb ];
          pair (out :: acc) rest
        | [ odd ] -> pair (odd :: acc) []
        | [] -> List.rev acc
      in
      reduce (level + 1) (pair [] signals)
  in
  let root = reduce 0 inputs in
  Builder.add_gate b ~output:"parity" ~kind:Gate.Buf [ root ];
  Builder.add_output b "parity";
  Builder.freeze b

(* --- MUX tree --------------------------------------------------------------------- *)

let mux_tree ~select_bits () =
  if select_bits < 1 then invalid_arg "Structured.mux_tree: select_bits must be >= 1";
  let b = Builder.create ~name:(Printf.sprintf "mux%d" select_bits) () in
  let leaves = 1 lsl select_bits in
  (* Each name is formatted once and the same string is passed on. *)
  let data = List.init leaves (bit_name "d") in
  List.iter (Builder.add_input b) data;
  let sel = Array.init select_bits (bit_name "sel") in
  let nsel = Array.init select_bits (bit_name "nsel") in
  for s = 0 to select_bits - 1 do
    Builder.add_input b sel.(s);
    Builder.add_gate b ~output:nsel.(s) ~kind:Gate.Not [ sel.(s) ]
  done;
  (* level s merges pairs controlled by sel_s *)
  let counter = ref 0 in
  let mux2 sel nsel a bb =
    incr counter;
    let out = bit_name "m" !counter in
    let lo = out ^ "#lo" and hi = out ^ "#hi" in
    Builder.add_gate b ~output:lo ~kind:Gate.And [ nsel; a ];
    Builder.add_gate b ~output:hi ~kind:Gate.And [ sel; bb ];
    Builder.add_gate b ~output:out ~kind:Gate.Or [ lo; hi ];
    out
  in
  let rec reduce s signals =
    match signals with
    | [ root ] -> root
    | _ ->
      let rec pair acc = function
        | a :: bb :: rest -> pair (mux2 sel.(s) nsel.(s) a bb :: acc) rest
        | [ _ ] | [] -> List.rev acc
      in
      reduce (s + 1) (pair [] signals)
  in
  let root = reduce 0 data in
  Builder.add_gate b ~output:"y" ~kind:Gate.Buf [ root ];
  Builder.add_output b "y";
  Builder.freeze b

(* --- registered ALU slice ----------------------------------------------------------- *)

(* A small realistic sequential design: an accumulator register updated by
   ADD or XOR of the input operand, selected by "op"; zero flag output. *)
let alu_accumulator ~width () =
  if width < 1 then invalid_arg "Structured.alu_accumulator: width must be >= 1";
  let b = Builder.create ~name:(Printf.sprintf "acc%d" width) () in
  for i = 0 to width - 1 do
    Builder.add_input b (bit_name "in" i)
  done;
  Builder.add_input b "op";
  Builder.add_gate b ~output:"nop" ~kind:Gate.Not [ "op" ];
  for i = 0 to width - 1 do
    Builder.add_dff b ~q:(bit_name "acc" i) ~d:(bit_name "nxt" i)
  done;
  (* adder: acc + in *)
  let rec stage i carry =
    if i = width then ()
    else begin
      let cout = Printf.sprintf "ac%d" (i + 1) in
      full_adder b ~a:(bit_name "acc" i) ~bb:(bit_name "in" i) ~cin:carry
        ~sum:(bit_name "add" i) ~cout;
      stage (i + 1) cout
    end
  in
  Builder.add_gate b ~output:"ac0" ~kind:Gate.Const0 [];
  stage 0 "ac0";
  for i = 0 to width - 1 do
    (* xor path and the op mux *)
    Builder.add_gate b ~output:(bit_name "xr" i) ~kind:Gate.Xor
      [ bit_name "acc" i; bit_name "in" i ];
    Builder.add_gate b ~output:(bit_name "selx" i) ~kind:Gate.And [ "op"; bit_name "xr" i ];
    Builder.add_gate b ~output:(bit_name "sela" i) ~kind:Gate.And [ "nop"; bit_name "add" i ];
    Builder.add_gate b ~output:(bit_name "nxt" i) ~kind:Gate.Or
      [ bit_name "selx" i; bit_name "sela" i ]
  done;
  (* zero flag over the register *)
  Builder.add_gate b ~output:"zero" ~kind:Gate.Nor (List.init width (bit_name "acc"));
  Builder.add_output b "zero";
  Builder.freeze b

let all =
  [
    ("add8", fun () -> ripple_adder ~width:8 ());
    ("mul4", fun () -> array_multiplier ~width:4 ());
    ("parity16", fun () -> parity_tree ~width:16 ());
    ("mux4", fun () -> mux_tree ~select_bits:4 ());
    ("acc8", fun () -> alu_accumulator ~width:8 ());
  ]
