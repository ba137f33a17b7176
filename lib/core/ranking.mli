(** Vulnerability ranking and selective hardening — the paper's stated
    application: identify the most vulnerable components to protect. *)

type entry = { rank : int; report : Ser_estimator.node_report }

val ranked : Ser_estimator.report -> entry list
(** All nodes by FIT contribution, descending, deterministic tie-break. *)

val top_k : Ser_estimator.report -> int -> entry list
(** The first [k] entries of {!ranked}, selected without sorting every
    node ({!select}).  @raise Invalid_argument on negative [k]. *)

val select :
  compare:('a -> 'a -> int) -> int -> (('a -> unit) -> unit) -> 'a list
(** [select ~compare k iter] is the first [k] of the items [iter] feeds in
    [compare]'s order (a total order), sorted: a bounded heap, O(n log k)
    comparisons and O(k) space.  The top-k of {!top_k} and of [serd]'s
    replies.  @raise Invalid_argument on negative [k]. *)

type hardening_plan = {
  target_fraction : float;
  selected : entry list;
  covered_fit : float;
  covered_fraction : float;
  residual_fit : float;
}

val hardening_plan : Ser_estimator.report -> target_fraction:float -> hardening_plan
(** Greedy (optimal for additive contributions) smallest node set whose
    elimination reduces total SER by [target_fraction].
    @raise Invalid_argument if the fraction is outside [0, 1]. *)

val pp_entry : entry Fmt.t
val pp_plan : hardening_plan Fmt.t
