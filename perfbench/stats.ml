(* Order statistics for the reports. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Python's statistics.median: the mean of the two middle values for an
   even count; nan for no samples. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Linear interpolation between closest ranks. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let lo = truncate r in
    let hi = min (n - 1) (lo + 1) in
    let w = r -. float_of_int lo in
    if w = 0.0 || a.(hi) = a.(lo) then a.(lo) else a.(lo) +. (w *. (a.(hi) -. a.(lo)))

(* How many samples lie strictly beyond the p-th percentile's rank. *)
let beyond n p = n - 1 - int_of_float (Float.ceil (p /. 100.0 *. float_of_int (n - 1)))

let sum xs = List.fold_left ( +. ) 0.0 xs

let mean = function
  | [] -> Float.nan
  | xs -> sum xs /. float_of_int (List.length xs)

(* A ratio that reads 0 when nothing was measured, so every per-layer
   metric is a number on every workload. *)
let ratio a b = if b = 0.0 then 0.0 else a /. b
