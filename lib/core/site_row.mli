(** One analyzed site's EPP result in the compact form every sweep consumer
    keeps: the supervised sweep's entries, the incremental splice, [serd]'s
    remembered outcomes, the checkpoint writer, FIT composition
    ({!Ser_estimator.of_outcome}) and attribution.

    A row holds the site's [P_sensitized], its cone size and two unboxed
    arrays: the positions of the observation points the site's cone
    reaches, as indices into {!Netlist.Analysis.observations} (ascending),
    and [Pa + Pā] at each of them.  It carries no site id and no
    observation constructor, so it stays valid under every edit that keeps
    the observation positions aligned ({!Incremental.plan}'s compatible
    case): an edit reuses a clean site's row as it is.  Rows are never
    mutated once built.

    {!Epp_engine.site_result} is the list-shaped view of a row, for the
    reference oracle and the unsupervised driver. *)

type t = private {
  p_sensitized : float;
  cone_size : int;  (** number of on-path signals *)
  positions : int array;
      (** reached observation points, ascending indices into
          {!Netlist.Analysis.observations} *)
  probabilities : float array;  (** [Pa + Pā] at each, aligned *)
}

val make :
  p_sensitized:float ->
  cone_size:int ->
  positions:int array ->
  probabilities:float array ->
  t
(** The arrays are kept, not copied: the caller hands them over.
    @raise Invalid_argument if their lengths differ. *)

val reached : t -> int
(** Reached observation points, the view's [reached_outputs]. *)

val of_site_result :
  (Netlist.Circuit.observation * int) array -> Epp_engine.site_result -> t
(** The row of a result whose [per_observation] list names observation
    points of [observations] (a circuit's {!Netlist.Analysis.observations})
    in their order, as the reference oracle lists them.  Floats are kept
    bit for bit.
    @raise Invalid_argument if an observation is not in [observations] at
    or after the previous one's position. *)

val to_site_result :
  (Netlist.Circuit.observation * int) array ->
  site:int ->
  t ->
  Epp_engine.site_result
(** The list-shaped view of site [site]'s row, bit-identical to what the
    reference oracle returns for it. *)

val site_result :
  (Netlist.Circuit.observation * int) array ->
  site:int ->
  p_sensitized:float ->
  cone_size:int ->
  int array ->
  float array ->
  int ->
  Epp_engine.site_result
(** [site_result observations ~site ~p_sensitized ~cone_size positions
    probabilities k] is the view of the row whose reached positions and
    probabilities are the first [k] slots of the two arrays: what
    {!to_site_result} builds, for a producer that holds the row's parts in
    a reusable buffer rather than a row (the batch engine's collect
    phase). *)
