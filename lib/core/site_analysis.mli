(** Structural analysis of one error site — step 1 (path construction) and
    step 2 (ordering) of the paper's per-site algorithm, in the paper's own
    vocabulary: on-path signals, on-path gates, off-path signals, reachable
    outputs. *)

type t = {
  site : int;
  on_path : int array;
      (** the on-path signals: the site's forward cone in topological
          order, so the site and then the on-path gates *)
  reached : Netlist.Circuit.observation list;
      (** observation points whose net lies in the cone *)
}

val analyze : Netlist.Circuit.t -> int -> t
(** One cone search in the circuit's shared {!Netlist.Analysis} context,
    which [on_path] holds and [reached] is read from.  Costs the cone, not
    the circuit.  @raise Invalid_argument on a bad site. *)

val on_path_gates : t -> int list
(** Gates with at least one on-path input, in topological order: every
    on-path signal but the site. *)

val off_path : Netlist.Circuit.t -> t -> int list
(** Inputs of on-path gates that are not themselves on-path, each listed
    once, in increasing id. *)

val on_path_signal_count : t -> int
val reaches_any_output : t -> bool
val pp : Netlist.Circuit.t -> t Fmt.t
