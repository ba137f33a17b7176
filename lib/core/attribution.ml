(* Per-observation SER attribution: which outputs and flip-flops absorb the
   failure rate.

   The estimator's per-node view answers "which gates should be hardened";
   this module answers the dual question — "which observation points are
   exposed" — by accumulating, over all error sites,

     rate(n, o) = R_SEU(n) × p_prop(n -> o) × P_capture(o)

   the expected rate of erroneous captures at observation point o.  Column
   sums rank the critical outputs (e.g. which architectural registers
   deserve parity).  Note the column view counts each capture at each point
   (an error reaching two outputs appears in both columns), so the matrix
   total is an upper bound on the circuit failure rate, which de-duplicates
   multi-capture events via the product formula. *)

open Netlist

type column = {
  observation : Circuit.observation;
  name : string;
  fit : float;  (** expected erroneous captures at this point, in FIT *)
  top_contributors : (int * float) list;  (** node, FIT — descending *)
}

type t = {
  circuit : Circuit.t;
  columns : column list;  (** sorted by FIT, descending *)
  matrix_total_fit : float;
}

(* Rate descending; a tie lists the higher site first, the contributor order
   reports have printed all along. *)
let by_rate (site_a, rate_a) (site_b, rate_b) =
  let c = Float.compare rate_b rate_a in
  if c <> 0 then c else Int.compare site_b site_a

(* Columns are the observation positions the rows index.  A row lists its
   positions ascending, so walking the columns in order meets each row's
   positions in order: a cursor per site replaces a search, and each column
   sums its sites in the outcome's order. *)
let compute ?(technology = Seu_model.Technology.default)
    ?(latching = Seu_model.Latching.default) ?(top = 5) engine
    (outcome : Supervisor.outcome) =
  if top < 0 then invalid_arg "Attribution.compute: negative top";
  Seu_model.Latching.check latching;
  let circuit = Epp_engine.circuit engine in
  let observations = Analysis.observations (Epp_engine.analysis engine) in
  let sites =
    List.filter_map
      (function
        | site, Supervisor.Analyzed { row; _ } ->
          let r_seu = Seu_model.Technology.r_seu_node technology circuit site in
          if r_seu > 0.0 then Some (site, r_seu, row, ref 0) else None
        | _, Supervisor.Quarantined _ -> None)
      outcome.Supervisor.entries
  in
  let totals = Array.make (Array.length observations) 0.0 in
  let column i =
    let obs = fst observations.(i) in
    let capture = Seu_model.Latching.p_latched latching obs in
    let contributors = ref [] in
    List.iter
      (fun (site, r_seu, (row : Site_row.t), j) ->
        if !j < Array.length row.positions && row.positions.(!j) = i then begin
          let rate = r_seu *. row.probabilities.(!j) *. capture in
          incr j;
          if rate > 0.0 then begin
            totals.(i) <- totals.(i) +. rate;
            contributors := (site, rate) :: !contributors
          end
        end)
      sites;
    {
      observation = obs;
      name = Circuit.observation_name circuit obs;
      fit = Seu_model.Fit.of_rate_per_second totals.(i);
      top_contributors =
        Ranking.select ~compare:by_rate top (fun f -> List.iter f !contributors)
        |> List.map (fun (node, rate) -> (node, Seu_model.Fit.of_rate_per_second rate));
    }
  in
  let columns = List.init (Array.length observations) column in
  {
    circuit;
    columns = List.sort (fun a b -> compare b.fit a.fit) columns;
    matrix_total_fit =
      Seu_model.Fit.of_rate_per_second (Array.fold_left ( +. ) 0.0 totals);
  }

let pp ppf t =
  let contributors col =
    col.top_contributors
    |> List.map (fun (node, fit) ->
           Printf.sprintf "%s %.4f" (Circuit.node_name t.circuit node) fit)
    |> String.concat ", "
  in
  Fmt.pf ppf "@[<v>observation-point exposure (%d points, matrix total %.4f FIT):@,%a@]"
    (List.length t.columns) t.matrix_total_fit
    Fmt.(
      list ~sep:cut (fun ppf col ->
          pf ppf "  %-12s %.5f FIT  (top: %s)" col.name col.fit (contributors col)))
    t.columns
