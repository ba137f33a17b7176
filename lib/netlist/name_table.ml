(* Flat open-addressing table from signal names to non-negative ints.

   One table serves a circuit's whole construction: [Builder] interns every
   name it sees into it (values are slots), [freeze] rewrites the values to
   node ids in place, and the circuit keeps the table as its name index.
   The table holds no name: one int per cell packs the name's hash
   (Hashtbl.hash, 30 bits) above its value (31 bits), and the value
   indexes a names array its owner keeps and hands to every call (the
   builder's slot -> name array, then the circuit's names by id).  Linear
   probing, load factor at most 1/2.  A probe compares hashes before it
   compares strings, and only then reads [names.(value)]; growing
   reinserts by the stored hash without reading a name; keeping hash and
   value in one cell saves a cache miss per probe on tables larger than
   the cache. *)

type t = {
  mutable cells : int array; (* hash lsl 31 lor value; [absent] marks an empty cell *)
  mutable count : int;
}

let absent = -1
let value_bits = 31
let value_mask = (1 lsl value_bits) - 1

let create n =
  let rec capacity c = if c >= 2 * n then c else capacity (2 * c) in
  { cells = Array.make (capacity 16) absent; count = 0 }

(* The cell holding [name] (hash [h]), or the empty cell where it would
   go.  A top-level loop, not a closure: a probe allocates nothing. *)
let rec probe cells names name h mask i =
  let c = Array.unsafe_get cells i in
  if c = absent then i
  else if c lsr value_bits = h && String.equal names.(c land value_mask) name then i
  else probe cells names name h mask ((i + 1) land mask)

let cell t names name h =
  let mask = Array.length t.cells - 1 in
  probe t.cells names name h mask (h land mask)

let find t names name =
  let c = Array.unsafe_get t.cells (cell t names name (Hashtbl.hash name)) in
  if c = absent then absent else c land value_mask

let grow t =
  let old = t.cells in
  let cap = 2 * Array.length old in
  let mask = cap - 1 in
  let cells = Array.make cap absent in
  for i = 0 to Array.length old - 1 do
    let c = old.(i) in
    if c <> absent then begin
      let j = ref ((c lsr value_bits) land mask) in
      while cells.(!j) <> absent do
        j := (!j + 1) land mask
      done;
      cells.(!j) <- c
    end
  done;
  t.cells <- cells

let check value =
  if value < 0 || value > value_mask then invalid_arg "Name_table: value out of range"

let insert t i h value =
  t.cells.(i) <- (h lsl value_bits) lor value;
  t.count <- t.count + 1;
  if 2 * t.count > Array.length t.cells then grow t

let find_or_add t names name value =
  check value;
  let h = Hashtbl.hash name in
  let i = cell t names name h in
  let c = t.cells.(i) in
  if c <> absent then c land value_mask
  else begin
    insert t i h value;
    value
  end

let map_values t f =
  let cells = t.cells in
  for i = 0 to Array.length cells - 1 do
    let c = cells.(i) in
    if c <> absent then begin
      let v = f (c land value_mask) in
      check v;
      cells.(i) <- (c land lnot value_mask) lor v
    end
  done

let iter f t names =
  Array.iter (fun c -> if c <> absent then f names.(c land value_mask) (c land value_mask)) t.cells

let of_names names =
  let t = create (Array.length names) in
  Array.iteri
    (fun v name ->
      check v;
      let h = Hashtbl.hash name in
      let i = cell t names name h in
      let c = t.cells.(i) in
      if c <> absent then t.cells.(i) <- (c land lnot value_mask) lor v else insert t i h v)
    names;
  t
