(* Reduced Ordered Binary Decision Diagrams.

   A compact, hash-consed ROBDD manager sized for this project's needs:
   exact signal probabilities and exact error-propagation probabilities on
   circuits whose cone functions stay within memory — well beyond the reach
   of the 2^k exhaustive enumeration the test oracles otherwise use.

   Representation: nodes live in growable arrays inside a manager; a node
   id is an int.  Terminals are ids 0 (false) and 1 (true).  Every internal
   node (var, low, high) is unique (hash-consed) and satisfies low <> high,
   which gives canonicity for a fixed variable order.  Negation is not
   complemented-edge based — plain apply-structure keeps the code obviously
   correct, and performance is ample for benchmark-scale cones. *)

type t = {
  mutable var : int array; (* variable index per node; terminals use max_int *)
  mutable low : int array;
  mutable high : int array;
  mutable node_count : int;
  unique : (int * int * int, int) Hashtbl.t; (* (var, low, high) -> id *)
  apply_cache : (int * int * int, int) Hashtbl.t; (* (op, a, b) -> id *)
  var_count : int;
}

let zero = 0
let one = 1

let terminal_var = max_int

let create ~var_count =
  if var_count < 0 then invalid_arg "Bdd.create: negative var_count";
  let initial = 1024 in
  let m =
    {
      var = Array.make initial terminal_var;
      low = Array.make initial 0;
      high = Array.make initial 0;
      node_count = 2;
      unique = Hashtbl.create 4096;
      apply_cache = Hashtbl.create 4096;
      var_count;
    }
  in
  (* ids 0 and 1 are the terminals *)
  m.low.(0) <- 0;
  m.high.(0) <- 0;
  m.low.(1) <- 1;
  m.high.(1) <- 1;
  m

let var_count m = m.var_count
let node_count m = m.node_count

let is_terminal id = id < 2

let grow m =
  let capacity = Array.length m.var in
  if m.node_count >= capacity then begin
    let fresh = 2 * capacity in
    let extend a fill =
      let b = Array.make fresh fill in
      Array.blit a 0 b 0 capacity;
      b
    in
    m.var <- extend m.var terminal_var;
    m.low <- extend m.low 0;
    m.high <- extend m.high 0
  end

(* The canonical constructor: reduction + hash-consing. *)
let mk m v lo hi =
  if v < 0 || v >= m.var_count then invalid_arg "Bdd.mk: variable out of range";
  if lo = hi then lo
  else
    let key = (v, lo, hi) in
    match Hashtbl.find_opt m.unique key with
    | Some id -> id
    | None ->
      grow m;
      let id = m.node_count in
      m.var.(id) <- v;
      m.low.(id) <- lo;
      m.high.(id) <- hi;
      m.node_count <- id + 1;
      Hashtbl.replace m.unique key id;
      id

let var m v = mk m v zero one

let of_bool b = if b then one else zero

(* Binary apply with memoization.  op codes are small ints so one cache
   serves all operations. *)
let op_and = 0
let op_or = 1
let op_xor = 2

let rec apply m op a b =
  (* terminal short-cuts *)
  let shortcut =
    if op = op_and then
      if a = zero || b = zero then Some zero
      else if a = one then Some b
      else if b = one then Some a
      else if a = b then Some a
      else None
    else if op = op_or then
      if a = one || b = one then Some one
      else if a = zero then Some b
      else if b = zero then Some a
      else if a = b then Some a
      else None
    else if a = b then Some zero (* xor *)
    else if a = zero then Some b
    else if b = zero then Some a
    else None
  in
  match shortcut with
  | Some r -> r
  | None ->
    (* normalize operand order: all three ops are commutative *)
    let a, b = if a <= b then (a, b) else (b, a) in
    let key = (op, a, b) in
    (match Hashtbl.find_opt m.apply_cache key with
    | Some r -> r
    | None ->
      let va = m.var.(a) and vb = m.var.(b) in
      let v = min va vb in
      let a_lo, a_hi = if va = v then (m.low.(a), m.high.(a)) else (a, a) in
      let b_lo, b_hi = if vb = v then (m.low.(b), m.high.(b)) else (b, b) in
      let lo = apply m op a_lo b_lo in
      let hi = apply m op a_hi b_hi in
      let r = mk m v lo hi in
      Hashtbl.replace m.apply_cache key r;
      r)

let band m a b = apply m op_and a b
let bor m a b = apply m op_or a b
let bxor m a b = apply m op_xor a b

let bnot m a = bxor m a one

let ite m c t e = bor m (band m c t) (band m (bnot m c) e)

(* Evaluate under a boolean assignment. *)
let eval m node assignment =
  let rec go id =
    if id = zero then false
    else if id = one then true
    else if assignment (m.var.(id)) then go (m.high.(id))
    else go (m.low.(id))
  in
  go node

(* Count satisfying assignments as a probability with per-variable
   1-probabilities (exactly the Parker-McCluskey quantity, but exact): a
   single memoized pass over the DAG. *)
let probability m ?(var_p = fun _ -> 0.5) node =
  let cache = Hashtbl.create 256 in
  let p_of_var v =
    let p = var_p v in
    if not (p >= 0.0 && p <= 1.0) then
      invalid_arg (Printf.sprintf "Bdd.probability: variable %d has probability %g" v p);
    p
  in
  let rec go id =
    if id = zero then 0.0
    else if id = one then 1.0
    else
      match Hashtbl.find_opt cache id with
      | Some p -> p
      | None ->
        let p = p_of_var (m.var.(id)) in
        let result = (p *. go (m.high.(id))) +. ((1.0 -. p) *. go (m.low.(id))) in
        Hashtbl.replace cache id result;
        result
  in
  go node

(* A satisfying assignment, if any.  In an ROBDD every node other than the
   zero terminal reaches the one terminal (otherwise reduction would have
   collapsed it to zero), so a single greedy descent suffices: prefer the
   high branch when it is not zero.  Variables not on the chosen path are
   don't-cares and default to false. *)
let any_sat m node =
  if node = zero then None
  else begin
    let assignment = Array.make m.var_count false in
    let rec walk id =
      if id <> one then begin
        let v = m.var.(id) in
        if m.high.(id) <> zero then begin
          assignment.(v) <- true;
          walk m.high.(id)
        end
        else walk m.low.(id)
      end
    in
    walk node;
    Some assignment
  end

(* Exact model count over all [var_count] variables. *)
let count_sat m node =
  let cache = Hashtbl.create 256 in
  (* models over the variables in [from_var, var_count) *)
  let rec go id from_var =
    if id = zero then 0.0
    else if id = one then Float.of_int 1 *. (2.0 ** float_of_int (m.var_count - from_var))
    else begin
      let key = (id, from_var) in
      match Hashtbl.find_opt cache key with
      | Some n -> n
      | None ->
        let v = m.var.(id) in
        let skipped = 2.0 ** float_of_int (v - from_var) in
        let n = skipped *. (go (m.low.(id)) (v + 1) +. go (m.high.(id)) (v + 1)) in
        Hashtbl.replace cache key n;
        n
    end
  in
  go node 0

(* Number of distinct internal nodes reachable from [node]. *)
let size m node =
  let seen = Hashtbl.create 64 in
  let rec go id =
    if (not (is_terminal id)) && not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      go (m.low.(id));
      go (m.high.(id))
    end
  in
  go node;
  Hashtbl.length seen

(* --- dynamic variable ordering (sifting) ----------------------------------

   The manager above is append-only and hash-consed, which makes in-place
   reordering impossible; instead, reordering extracts the live graph under
   a set of roots into a mutable leveled representation, sifts there, and
   rebuilds into a fresh manager whose variable indices follow the new
   order.  The extracted graph keeps one invariant throughout: a node id's
   *function* never changes.  An adjacent-level swap rewrites only the
   nodes labeled with the upper variable that actually depend on the lower
   one — in place, so parents stay valid — exactly Rudell's algorithm.

   Cost model: a swap is O(upper level population); a full sift of one
   variable is O(total size) amortized, and each swap is followed by a
   mark-and-sweep so the size signal driving the search is exact.  This is
   far from a production reordering engine, but it is called only when a
   cone build trips its node budget, where shrinking the graph matters more
   than reordering throughput. *)

module Reorder = struct
  type graph = {
    mutable g_var : int array; (* node -> variable (not position) *)
    mutable g_low : int array;
    mutable g_high : int array;
    mutable g_count : int;
    mutable free : int list; (* ids released by the post-swap sweep *)
    tables : ((int * int), int) Hashtbl.t array; (* per variable *)
    order : int array; (* position -> variable *)
    pos : int array; (* variable -> position *)
    mutable roots : int array;
  }

  let g_grow g =
    let capacity = Array.length g.g_var in
    if g.g_count >= capacity && g.free = [] then begin
      let fresh = 2 * capacity in
      let extend a fill =
        let b = Array.make fresh fill in
        Array.blit a 0 b 0 capacity;
        b
      in
      g.g_var <- extend g.g_var terminal_var;
      g.g_low <- extend g.g_low 0;
      g.g_high <- extend g.g_high 0
    end

  let alloc g v lo hi =
    match g.free with
    | id :: rest ->
      g.free <- rest;
      g.g_var.(id) <- v;
      g.g_low.(id) <- lo;
      g.g_high.(id) <- hi;
      id
    | [] ->
      g_grow g;
      let id = g.g_count in
      g.g_var.(id) <- v;
      g.g_low.(id) <- lo;
      g.g_high.(id) <- hi;
      g.g_count <- id + 1;
      id

  (* Canonical constructor inside the leveled graph. *)
  let g_mk g v lo hi =
    if lo = hi then lo
    else
      let key = (lo, hi) in
      match Hashtbl.find_opt g.tables.(v) key with
      | Some id -> id
      | None ->
        let id = alloc g v lo hi in
        Hashtbl.replace g.tables.(v) key id;
        id

  let extract m roots =
    let k = m.var_count in
    let g =
      {
        g_var = Array.make 1024 terminal_var;
        g_low = Array.make 1024 0;
        g_high = Array.make 1024 0;
        g_count = 2;
        free = [];
        tables = Array.init k (fun _ -> Hashtbl.create 64);
        order = Array.init k Fun.id;
        pos = Array.init k Fun.id;
        roots = [||];
      }
    in
    g.g_low.(0) <- 0;
    g.g_high.(0) <- 0;
    g.g_low.(1) <- 1;
    g.g_high.(1) <- 1;
    let map = Hashtbl.create 1024 in
    Hashtbl.replace map zero 0;
    Hashtbl.replace map one 1;
    let rec go id =
      match Hashtbl.find_opt map id with
      | Some x -> x
      | None ->
        let lo = go m.low.(id) and hi = go m.high.(id) in
        let x = g_mk g m.var.(id) lo hi in
        Hashtbl.replace map id x;
        x
    in
    g.roots <- Array.map go roots;
    g

  (* Mark-and-sweep: drop unreachable nodes from the tables and free list
     their ids, and return the live internal-node count. *)
  let sweep g =
    let live = Array.make g.g_count false in
    let rec mark id =
      if id >= 2 && not live.(id) then begin
        live.(id) <- true;
        mark g.g_low.(id);
        mark g.g_high.(id)
      end
    in
    Array.iter mark g.roots;
    let count = ref 0 in
    Array.iter
      (fun table ->
        Hashtbl.iter
          (fun key id -> if not live.(id) then Hashtbl.remove table key else incr count)
          table)
      g.tables;
    for id = 2 to g.g_count - 1 do
      if (not live.(id)) && g.g_var.(id) <> terminal_var then begin
        g.g_var.(id) <- terminal_var;
        g.free <- id :: g.free
      end
    done;
    !count

  (* Swap the variables at positions [p] and [p+1].  Nodes of the upper
     variable that depend on the lower one are rewritten in place (same id,
     same function, new top variable); everything else is untouched. *)
  let swap g p =
    let u = g.order.(p) and w = g.order.(p + 1) in
    let split c = if c >= 2 && g.g_var.(c) = w then (g.g_low.(c), g.g_high.(c)) else (c, c) in
    let snapshot = Hashtbl.fold (fun key id acc -> (key, id) :: acc) g.tables.(u) [] in
    List.iter
      (fun ((f0, f1), id) ->
        let f00, f01 = split f0 in
        let f10, f11 = split f1 in
        if not (f00 == f0 && f10 == f1) then begin
          (* depends on w: push w above u, keeping this id's function *)
          Hashtbl.remove g.tables.(u) (f0, f1);
          let lo' = g_mk g u f00 f10 in
          let hi' = g_mk g u f01 f11 in
          g.g_var.(id) <- w;
          g.g_low.(id) <- lo';
          g.g_high.(id) <- hi';
          Hashtbl.replace g.tables.(w) (lo', hi') id
        end)
      snapshot;
    g.order.(p) <- w;
    g.order.(p + 1) <- u;
    g.pos.(u) <- p + 1;
    g.pos.(w) <- p;
    sweep g

  (* Sift one variable to its best position, then park it there. *)
  let sift_var g v ~size =
    let k = Array.length g.order in
    let best = ref size and best_pos = ref g.pos.(v) in
    let note s = if s < !best then begin best := s; best_pos := g.pos.(v) end in
    (* down to the bottom *)
    while g.pos.(v) < k - 1 do
      note (swap g g.pos.(v))
    done;
    (* back up to the top *)
    while g.pos.(v) > 0 do
      note (swap g (g.pos.(v) - 1))
    done;
    (* descend again to the recorded best position *)
    let final = ref (sweep g) in
    while g.pos.(v) < !best_pos do
      final := swap g g.pos.(v)
    done;
    !final

  type plan = {
    size_before : int;
    size_after : int;
    sifted : int;
    perm : int array; (* new variable index (= position) -> old variable index *)
  }

  let rebuild g =
    let k = Array.length g.order in
    let m = create ~var_count:k in
    let map = Hashtbl.create 1024 in
    Hashtbl.replace map 0 zero;
    Hashtbl.replace map 1 one;
    let rec go id =
      match Hashtbl.find_opt map id with
      | Some x -> x
      | None ->
        let lo = go g.g_low.(id) and hi = go g.g_high.(id) in
        let x = mk m g.pos.(g.g_var.(id)) lo hi in
        Hashtbl.replace map id x;
        x
    in
    let roots = Array.map go g.roots in
    (m, roots)

  let sift ?(max_vars = 12) m ~roots =
    let g = extract m roots in
    let size_before = sweep g in
    let k = m.var_count in
    (* Heaviest variables first: sifting them buys the most. *)
    let population = Array.make k 0 in
    Array.iteri (fun v table -> population.(v) <- Hashtbl.length table) g.tables;
    let by_weight = Array.init k Fun.id in
    Array.sort (fun a b -> compare population.(b) population.(a)) by_weight;
    let sifted = min max_vars k in
    let size = ref size_before in
    for i = 0 to sifted - 1 do
      let v = by_weight.(i) in
      if population.(v) > 0 then size := sift_var g v ~size:!size
    done;
    let size_after = sweep g in
    let manager, new_roots = rebuild g in
    let perm = Array.copy g.order in
    ({ size_before; size_after; sifted; perm }, manager, new_roots)
end

let pp m ppf node =
  let rec go ppf id =
    if id = zero then Fmt.string ppf "0"
    else if id = one then Fmt.string ppf "1"
    else Fmt.pf ppf "(x%d ? %a : %a)" (m.var.(id)) go (m.high.(id)) go (m.low.(id))
  in
  go ppf node
