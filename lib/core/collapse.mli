(** Error-site collapsing — the EPP analog of fault collapsing: a net with
    a single unary (NOT/BUF) consumer and no direct observation has exactly
    the P_sensitized of that consumer, so chains collapse into classes
    analyzed once. *)

type t

val compute : Netlist.Circuit.t -> t

val representative : t -> int -> int
(** The class representative (the downstream end of the unary chain). *)

val savings : t -> int
(** Sites that need no analysis of their own. *)

val analyze_all : Epp_engine.t -> Epp_engine.site_result list
(** Drop-in replacement for {!Ser_estimator.analyze_all}: identical
    probabilities (provably, see the implementation header), one engine
    pass per class.  Results keep their own [site] ids; [cone_size] and
    [reached_outputs] are the representative's. *)
