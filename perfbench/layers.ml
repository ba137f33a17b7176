(* Per-layer accounting for the traced passes.

   A traced pass installs a live metrics registry and span collector
   through Obs.Hooks, so the counters and spans the library already emits
   (epp.batch.*, epp.phase.*, sp.*, parallel.*, supervisor.*, serd.request)
   are recorded next to the benchmark's own "bench.*" spans around each
   public call.  Spans stay in memory and are read back when the pass ends. *)

type pass = { registry : Obs.Metrics.t; tracer : Obs.Trace.t }

(* Fresh sinks, so one pass's counts never mix with another's. *)
let create () = { registry = Obs.Metrics.create (); tracer = Obs.Trace.create () }

(* Runs [f] with the pass's sinks installed as the hooks, so untraced work
   can run between traced calls of the same pass. *)
let within p f =
  Obs.Hooks.set_metrics p.registry;
  Obs.Hooks.set_tracer p.tracer;
  Fun.protect ~finally:Obs.Hooks.reset f

let span name f = Obs.Trace.span (Obs.Hooks.tracer ()) ~cat:"perfbench" name f

(* The circuit's shared analysis context, with the facts every engine reads
   forced: the netlist layer's share of a cold analysis. *)
let build_analysis c =
  let ctx = Netlist.Analysis.get c in
  ignore (Netlist.Analysis.order ctx);
  ignore (Netlist.Analysis.csr ctx);
  ignore (Netlist.Analysis.levels ctx);
  ignore (Netlist.Analysis.level_gates ctx)

(* Per span name: summed duration, summed self time (duration minus the
   part its direct children cover, on the same domain), and count. *)
type accounting = {
  total : (string, float) Hashtbl.t;
  self : (string, float) Hashtbl.t;
  count : (string, int) Hashtbl.t;
}

let account tracer =
  let total = Hashtbl.create 32 and self = Hashtbl.create 32 and count = Hashtbl.create 32 in
  let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k)) in
  let stacks = Hashtbl.create 4 in
  List.iter
    (fun (e : Obs.Trace.event) ->
      let stack = Option.value ~default:[] (Hashtbl.find_opt stacks e.tid) in
      match e.ph with
      | 'B' -> Hashtbl.replace stacks e.tid ((e.name, e.ts, ref 0.0) :: stack)
      | 'E' -> (
        match stack with
        | (name, start, children) :: rest ->
          let dur = (e.ts -. start) /. 1e6 in
          add total name dur;
          add self name (dur -. !children);
          Hashtbl.replace count name (1 + Option.value ~default:0 (Hashtbl.find_opt count name));
          (match rest with (_, _, parent) :: _ -> parent := !parent +. dur | [] -> ());
          Hashtbl.replace stacks e.tid rest
        | [] -> ())
      | _ -> ())
    (Obs.Trace.events tracer);
  { total; self; count }

let total_s a name = Option.value ~default:0.0 (Hashtbl.find_opt a.total name)
let self_s a name = Option.value ~default:0.0 (Hashtbl.find_opt a.self name)
let count a name = Option.value ~default:0 (Hashtbl.find_opt a.count name)
let sum_self a names = List.fold_left (fun acc n -> acc +. self_s a n) 0.0 names

let counter snap name = float_of_int (Obs.Metrics.counter_value snap name)

let hist_sum snap name =
  match Obs.Metrics.histogram_value snap name with
  | Some h -> h.Obs.Metrics.sum
  | None -> 0.0

(* The per-site kernel and the batch engine time their own phases; their
   sums are each engine's busy time. *)
let kernel_seconds snap =
  hist_sum snap "epp.phase.extract_seconds"
  +. hist_sum snap "epp.phase.order_seconds"
  +. hist_sum snap "epp.phase.propagate_seconds"

let batch_seconds snap =
  hist_sum snap "epp.batch.phase.mask_seconds"
  +. hist_sum snap "epp.batch.phase.propagate_seconds"
  +. hist_sum snap "epp.batch.phase.collect_seconds"

(* Batch-engine figures shared by every workload, per operation. *)
let batch_metrics snap ~ops =
  let per x = Stats.ratio x ops in
  let evals = counter snap "epp.batch.gate_lane_evals" in
  let evaluated = hist_sum snap "epp.batch.level_width" in
  let skipped = counter snap "epp.batch.nodes_skipped" in
  [
    ("epp_batch.sweep_s", per (batch_seconds snap), "s");
    ("epp_batch.mask_s", per (hist_sum snap "epp.batch.phase.mask_seconds"), "s");
    ("epp_batch.propagate_s", per (hist_sum snap "epp.batch.phase.propagate_seconds"), "s");
    ("epp_batch.collect_s", per (hist_sum snap "epp.batch.phase.collect_seconds"), "s");
    ("epp_batch.gate_lane_evals", per evals, "count");
    ( "epp_batch.ns_per_lane_eval",
      Stats.ratio (hist_sum snap "epp.batch.phase.propagate_seconds" *. 1e9) evals,
      "ns" );
    ("epp_batch.visit_useful_ratio", Stats.ratio evaluated (evaluated +. skipped), "ratio");
    ( "epp_batch.lane_fill_ratio",
      Stats.ratio (counter snap "epp.batch.sites")
        (counter snap "epp.batch.blocks" *. float_of_int Epp.Epp_batch.max_lanes),
      "ratio" );
    ("epp.dispatch.batched", counter snap "epp.batch.dispatch.batched", "count");
  ]

(* Per-site kernel figures, per operation. *)
let kernel_metrics snap ~ops =
  let per x = Stats.ratio x ops in
  [
    ("epp.kernel_sweep_s", per (kernel_seconds snap), "s");
    ("epp.cone_nodes_visited", per (counter snap "epp.cone_nodes_visited"), "count");
    ("epp.phase.extract_s", per (hist_sum snap "epp.phase.extract_seconds"), "s");
    ("epp.phase.order_s", per (hist_sum snap "epp.phase.order_seconds"), "s");
    ("epp.phase.propagate_s", per (hist_sum snap "epp.phase.propagate_seconds"), "s");
    ("epp.dispatch.per_site", counter snap "epp.batch.dispatch.per_site", "count");
  ]

(* Prints where one operation's time went: each layer's self time and its
   share of the end-to-end time, and the unattributed remainder. *)
let print_table ~title ~e2e rows =
  Printf.printf "layer self times, %s (per operation):\n" title;
  let attributed = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 rows in
  List.iter
    (fun (layer, s) ->
      Printf.printf "  %-28s %10.3f ms  %5.1f%%\n" layer (s *. 1e3) (100.0 *. Stats.ratio s e2e))
    rows;
  Printf.printf "  %-28s %10.3f ms  %5.1f%%\n" "(unattributed)" ((e2e -. attributed) *. 1e3)
    (100.0 *. Stats.ratio (e2e -. attributed) e2e);
  Printf.printf "  %-28s %10.3f ms\n" "end to end" (e2e *. 1e3)
