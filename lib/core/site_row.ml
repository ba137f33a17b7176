(* The compact per-site result.  A row is what a sweep keeps per analyzed
   site: two unboxed arrays instead of a list of (observation, float)
   pairs, and positions instead of observation constructors, so the row
   of a clean site survives an observation-compatible edit unchanged. *)

type t = {
  p_sensitized : float;
  cone_size : int;
  positions : int array;
  probabilities : float array;
}

let make ~p_sensitized ~cone_size ~positions ~probabilities =
  if Array.length positions <> Array.length probabilities then
    invalid_arg "Site_row.make: positions and probabilities differ in length";
  { p_sensitized; cone_size; positions; probabilities }

let reached r = Array.length r.positions

(* The reference lists reached observations in observation order, so one
   forward scan of [observations] places them all. *)
let of_site_result observations (r : Epp_engine.site_result) =
  let k = List.length r.Epp_engine.per_observation in
  let positions = Array.make k 0 and probabilities = Array.make k 0.0 in
  let next = ref 0 in
  List.iteri
    (fun j (o, p) ->
      let i = ref !next in
      while !i < Array.length observations && fst observations.(!i) <> o do
        incr i
      done;
      if !i >= Array.length observations then
        invalid_arg
          "Site_row.of_site_result: an observation is not the circuit's, or \
           out of order";
      positions.(j) <- !i;
      probabilities.(j) <- p;
      next := !i + 1)
    r.Epp_engine.per_observation;
  {
    p_sensitized = r.Epp_engine.p_sensitized;
    cone_size = r.Epp_engine.cone_size;
    positions;
    probabilities;
  }

let site_result observations ~site ~p_sensitized ~cone_size positions
    probabilities k =
  let acc = ref [] in
  for i = k - 1 downto 0 do
    acc := (fst observations.(positions.(i)), probabilities.(i)) :: !acc
  done;
  {
    Epp_engine.site;
    p_sensitized;
    per_observation = !acc;
    cone_size;
    reached_outputs = k;
  }

let to_site_result observations ~site r =
  site_result observations ~site ~p_sensitized:r.p_sensitized
    ~cone_size:r.cone_size r.positions r.probabilities (Array.length r.positions)
