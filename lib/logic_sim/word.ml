(* Small bit-twiddling helpers over the 64-pattern simulation words. *)

let bits = 64

(* SWAR popcount; OCaml 5.1 has no Int64.popcount. *)
let popcount (x : int64) =
  let open Int64 in
  let x = sub x (logand (shift_right_logical x 1) 0x5555555555555555L) in
  let x = add (logand x 0x3333333333333333L) (logand (shift_right_logical x 2) 0x3333333333333333L) in
  let x = logand (add x (shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL in
  to_int (shift_right_logical (mul x 0x0101010101010101L) 56)

let get x i = Int64.logand (Int64.shift_right_logical x i) 1L = 1L

let set x i b =
  let mask = Int64.shift_left 1L i in
  if b then Int64.logor x mask else Int64.logand x (Int64.lognot mask)

let of_bool b = if b then Int64.minus_one else 0L

(* Mask keeping only the low [n] bits: used when fewer than 64 patterns are
   live in the last word of a batch. *)
let low_mask n =
  if n < 0 || n > bits then invalid_arg "Word.low_mask";
  if n = bits then Int64.minus_one else Int64.sub (Int64.shift_left 1L n) 1L

let pp ppf x =
  for i = bits - 1 downto 0 do
    Fmt.pf ppf "%c" (if get x i then '1' else '0')
  done
