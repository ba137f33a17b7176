(** Multi-cycle error propagation — the natural extension of the paper's
    single-cycle [P_sensitized]: errors captured by flip-flops keep
    propagating from their outputs in later cycles, where they may be
    masked, reach a primary output, spread, or die out.

    Per cycle, each infected flip-flop is an independent partial error site
    pushed through the same Table-1 rules ({!Epp_engine.analyze_site_vectors}
    with an [initial] vector); detections and fresh captures combine under
    the same independence assumption the single-cycle method already makes.
    See the implementation header for the model statement. *)

type config = {
  max_cycles : int;
  epsilon : float;  (** stop once circulating error mass drops below this *)
  latching : Seu_model.Latching.t;
}

val default_config : config
(** 32 cycles, epsilon 1e-6, default latching model. *)

type cycle_report = {
  cycle : int;
  detection : float;  (** P(error observed at a PO during this cycle) *)
  infected_ffs : int;
  circulating_mass : float;  (** largest per-FF error mass entering the cycle *)
}

type result = {
  site : int;
  cycles : cycle_report list;  (** cycle 0 first *)
  cumulative_detection : float;
  residual_mass : float;  (** error mass still latched at the horizon *)
  single_cycle_p_sensitized : float;  (** the paper's quantity, for comparison *)
}

val analyze : ?config:config -> Epp_engine.t -> int -> result
(** @raise Invalid_argument on a bad config or a bad site. *)

val pp_result : Netlist.Circuit.t -> result Fmt.t
