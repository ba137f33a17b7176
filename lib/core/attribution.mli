(** Per-observation SER attribution — the dual of the per-node ranking:
    which primary outputs and flip-flops absorb the failure rate, and which
    error sites feed each of them.  Used to decide where output-side
    protection (parity, residue codes) pays. *)

type column = {
  observation : Netlist.Circuit.observation;
  name : string;
  fit : float;  (** expected erroneous captures at this point, in FIT *)
  top_contributors : (int * float) list;  (** (node, FIT), descending *)
}

type t = {
  circuit : Netlist.Circuit.t;
  columns : column list;  (** sorted by FIT, descending *)
  matrix_total_fit : float;
      (** sum over all (site, observation) pairs — an upper bound on the
          circuit failure rate (multi-capture events counted per column) *)
}

val compute :
  ?technology:Seu_model.Technology.t ->
  ?latching:Seu_model.Latching.t ->
  ?top:int ->
  Epp_engine.t ->
  Supervisor.outcome ->
  t
(** The columns of a supervised sweep's rows ([engine] is the outcome's),
    without its quarantined sites, and with no electrical derating.  [top]
    bounds each column's contributors (default 5; ties go to the higher id).
    @raise Invalid_argument on a negative [top] or a bad latching model. *)

val pp : t Fmt.t
