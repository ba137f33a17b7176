(** Full-circuit SER estimation: the paper's
    [SER(n) = R_SEU(n) × P_latched(n) × P_sensitized(n)] with the analytical
    EPP engine supplying [P_sensitized]. *)

type latch_convention =
  | Per_node
      (** the paper's literal three-factor form, one FF-window latching
          probability per node *)
  | Per_observation
      (** refined: latched at ≥1 reached observation point, each with its own
          window probability (distinguishes PO from FF capture); default *)

type node_report = {
  node : int;
  name : string;
  r_seu : float;  (** raw upsets/second at the node *)
  p_sensitized : float;
  p_latched_effective : float;
      (** the latching factor actually applied, averaged over outputs *)
  failure_rate : float;  (** failures/second contributed by this node *)
  fit : float;
  cone_size : int;
}

type report = {
  circuit : Netlist.Circuit.t;
  technology : Seu_model.Technology.t;
  latching : Seu_model.Latching.t;
  electrical : Seu_model.Electrical.t option;
  convention : latch_convention;
  nodes : node_report array;
      (** one entry per analyzed site, input order; node-id-indexed for a
          full sweep, a subset otherwise (see {!node_report}) *)
  total_failure_rate : float;
  total_fit : float;
}

val of_site_results :
  ?technology:Seu_model.Technology.t ->
  ?latching:Seu_model.Latching.t ->
  ?electrical:Seu_model.Electrical.t ->
  ?convention:latch_convention ->
  ?r_seu_scale:(int -> float) ->
  Netlist.Circuit.t ->
  Epp_engine.site_result list ->
  report
(** Compose the three factors from the unsupervised driver's per-site EPP
    results.  [nodes] holds one entry per given result, in input order;
    for a full [analyze_all] sweep that coincides with node-id indexing.

    [r_seu_scale] multiplies each node's raw upset rate (default 1.0
    everywhere) — the selective-hardening seam used by [ser_harden]'s
    derating strategy: a hardened gate keeps its EPP result and takes a
    smaller [R_SEU].  @raise Invalid_argument on a negative or NaN scale. *)

val of_outcome :
  ?technology:Seu_model.Technology.t ->
  ?latching:Seu_model.Latching.t ->
  ?electrical:Seu_model.Electrical.t ->
  ?convention:latch_convention ->
  ?r_seu_scale:(int -> float) ->
  Epp_engine.t ->
  Supervisor.outcome ->
  report
(** {!of_site_results} over a supervised sweep's rows ([engine] is the
    outcome's), bit-identical to it on the same sites' results.  Quarantined
    sites are left out, so such a report's totals are partial. *)

(** {2 The EPP sweep driver}

    Sites run through the {!Epp_batch} block engine, [max_lanes] sites per
    union-cone walk, bit-identical to {!Epp_engine.analyze_site}.
    [domains] (default 1) fans whole blocks out across OCaml domains;
    results come back in input order either way.  An out-of-range site id
    fails its whole block, and the lowest such block's exception is raised;
    failing that, the exception of the earliest site whose analysis faulted
    is raised.
    @raise Invalid_argument if [domains < 1] or a site id is out of range. *)

val analyze_site_array :
  ?domains:int -> Epp_engine.t -> int array -> Epp_engine.site_result array

val analyze_sites :
  ?domains:int -> Epp_engine.t -> int list -> Epp_engine.site_result list

val analyze_all : ?domains:int -> Epp_engine.t -> Epp_engine.site_result list
(** Every node of the engine's circuit, in node-id order. *)

val estimate :
  ?technology:Seu_model.Technology.t ->
  ?latching:Seu_model.Latching.t ->
  ?electrical:Seu_model.Electrical.t ->
  ?convention:latch_convention ->
  ?sp:Sigprob.Sp.result ->
  ?domains:int ->
  Netlist.Circuit.t ->
  report
(** Analyze every node as an error site (through {!analyze_all}) and
    compose the three factors.  [electrical] adds
    pulse-attenuation derating per observation point (depth = BFS
    gate-traversal distance from the site, the optimistic bound for pulse
    survival); it only affects the [Per_observation] convention.
    @raise Invalid_argument on inconsistent parameters (bad latching or
    electrical model, foreign [sp]). *)

val node_report : report -> int -> node_report
(** Node [v]'s entry, by id, also on a report that lacks some sites.
    @raise Invalid_argument on a bad node id or a node not analyzed. *)

val pp_summary : report Fmt.t
