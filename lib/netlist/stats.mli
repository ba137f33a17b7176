(** Structural statistics of a netlist (sizes, depth, fanout profile,
    reconvergence), printed by [bench_info] and [netlist_tool optimize]. *)

type t = {
  name : string;
  node_count : int;
  input_count : int;
  output_count : int;
  ff_count : int;
  gate_count : int;
  gate_kind_counts : (Gate.kind * int) list;
  depth : int;
  max_fanin : int;
  max_fanout : int;
  average_fanout : float;
}

val compute : Circuit.t -> t

val reconvergent_site_count : Circuit.t -> int
(** The fanout sites whose branches reconverge — two distinct branches
    reach a common node, or one gate reads the site twice: the situation
    the paper's polarity-tracked EPP rules exist for.  One breadth-first
    search per fanout site, over 3 words a node in all. *)

val pp : t Fmt.t
