(* Flat open-addressing table from signal names to non-negative ints.

   One table serves a circuit's whole construction: [Builder] interns every
   name it sees into it (values are slots), [freeze] rewrites the values to
   node ids in place, and the circuit keeps the table as its name index.
   Two parallel arrays and linear probing, load factor at most 1/2: the
   keys, and one int per cell packing the key's hash (Hashtbl.hash, 30
   bits) above its value (31 bits).  A probe compares hashes before it
   compares strings, and growing reinserts by the stored hash without
   hashing a name again; keeping hash and value in one cell saves a cache
   miss per probe on tables larger than the cache. *)

type t = {
  mutable keys : string array;
  mutable cells : int array; (* hash lsl 31 lor value; [absent] marks an empty cell *)
  mutable count : int;
}

let absent = -1
let value_bits = 31
let value_mask = (1 lsl value_bits) - 1

let create n =
  let rec capacity c = if c >= 2 * n then c else capacity (2 * c) in
  let cap = capacity 16 in
  { keys = Array.make cap ""; cells = Array.make cap absent; count = 0 }

(* The cell holding [name] (hash [h]), or the empty cell where it would
   go. *)
let cell t name h =
  let keys = t.keys and cells = t.cells in
  let mask = Array.length cells - 1 in
  let rec probe i =
    let c = Array.unsafe_get cells i in
    if c = absent then i
    else if c lsr value_bits = h && String.equal (Array.unsafe_get keys i) name then i
    else probe ((i + 1) land mask)
  in
  probe (h land mask)

let find t name =
  let c = Array.unsafe_get t.cells (cell t name (Hashtbl.hash name)) in
  if c = absent then absent else c land value_mask

let grow t =
  let old_keys = t.keys and old_cells = t.cells in
  let cap = 2 * Array.length old_cells in
  let mask = cap - 1 in
  let keys = Array.make cap "" and cells = Array.make cap absent in
  for i = 0 to Array.length old_cells - 1 do
    let c = old_cells.(i) in
    if c <> absent then begin
      let j = ref ((c lsr value_bits) land mask) in
      while cells.(!j) <> absent do
        j := (!j + 1) land mask
      done;
      keys.(!j) <- old_keys.(i);
      cells.(!j) <- c
    end
  done;
  t.keys <- keys;
  t.cells <- cells

let check value =
  if value < 0 || value > value_mask then invalid_arg "Name_table: value out of range"

let insert t i name h value =
  t.keys.(i) <- name;
  t.cells.(i) <- (h lsl value_bits) lor value;
  t.count <- t.count + 1;
  if 2 * t.count > Array.length t.cells then grow t

let find_or_add t name value =
  check value;
  let h = Hashtbl.hash name in
  let i = cell t name h in
  let c = t.cells.(i) in
  if c <> absent then c land value_mask
  else begin
    insert t i name h value;
    value
  end

let replace t name value =
  check value;
  let h = Hashtbl.hash name in
  let i = cell t name h in
  let c = t.cells.(i) in
  if c <> absent then t.cells.(i) <- (c land lnot value_mask) lor value
  else insert t i name h value

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

let iter f t =
  for i = 0 to Array.length t.cells - 1 do
    let c = t.cells.(i) in
    if c <> absent then f t.keys.(i) (c land value_mask)
  done

let of_names names =
  let t = create (Array.length names) in
  Array.iteri (fun v name -> replace t name v) names;
  t
