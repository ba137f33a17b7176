(* serd-session: a real serd child process driven over its stdio pipe by
   one closed-loop client (one connection, one outstanding request),
   replaying interactive hardening on modular designs.  A round visits
   every design once; the session runs whole rounds.

   Per visit: a whole-circuit analyze of the .bench payload, the same
   request again (an engine-cache hit), 8 edits chained by fingerprint
   (tmr, buffer, de_morgan, ...), 2 analyzes of 62 sites by fingerprint,
   and a stats request.  This mix is synthetic, not recorded from real
   use.  The repository's own hardening client, bin/ser_harden, only
   triplicates the max-FIT gate and never picks a hardened gate again;
   buffer and de_morgan are function-preserving rewrites that stand in for
   other local edits.

   Each edit targets the highest-ranked name in the previous reply's top
   list that the edit kind accepts, judged from the client's copy of the
   original netlist.  Re-triplicating a signal is not avoided, so the
   Transform.triplicate_delta naming defect shows up as a failed edit.  A
   gate this visit already rewrote by De Morgan is skipped for De Morgan:
   it is no longer an AND/OR/NAND/NOR gate, so asking again would be the
   client's mistake. *)

module J = Obs.Json

let now = Obs.Clock.monotonic_seconds

type op =
  | Analyze  (** whole circuit, .bench payload: an engine-cache miss *)
  | Analyze_repeat  (** the same request again: a hit *)
  | Edit of { kind : string; target : string }
  | Analyze_sites
  | Stats

let op_name = function
  | Analyze -> "analyze"
  | Analyze_repeat -> "analyze-repeat"
  | Edit { kind; _ } -> "edit-" ^ kind
  | Analyze_sites -> "analyze-sites"
  | Stats -> "stats"

type exchange = {
  visit : int;
  op : op;
  line : string;  (** the request as sent; "" when no request could be formed *)
  ms : float;  (** client-observed round trip *)
  reply : J.t option;
}

type design = { payload : Inputs.payload; circuit : Netlist.Circuit.t; cold_sites : int list }

(* --- wire --------------------------------------------------------------- *)

let str key v = Option.bind (J.member key v) J.to_string_value
let status = function Some r -> Option.value ~default:"?" (str "status" r) | None -> "no reply"
let ok ex = status ex.reply = "ok"

let error_text r =
  match Option.bind r (J.member "error") with
  | Some e ->
    Printf.sprintf "%s: %s"
      (Option.value ~default:"?" (str "code" e))
      (Option.value ~default:"?" (str "message" e))
  | None -> status r

let top r =
  match Option.bind (J.member "top" r) J.to_list with
  | None -> []
  | Some l ->
    List.filter_map
      (fun t ->
        match (str "name" t, Option.bind (J.member "site" t) J.to_number) with
        | Some n, Some s -> Some (n, int_of_float s)
        | _ -> None)
      l

let circuit format source = J.Obj [ ("format", J.String format); ("source", J.String source) ]
let top_k = 62

let analyze_line text =
  J.to_string
    (J.Obj
       [ ("op", J.String "analyze"); ("circuit", circuit "bench" text); ("top_k", J.int top_k) ])

let edit_line fp kind target =
  J.to_string
    (J.Obj
       [
         ("op", J.String "edit");
         ("circuit", circuit "fingerprint" fp);
         ("edit", J.Obj [ ("kind", J.String kind); ("target", J.String target) ]);
         ("top_k", J.int top_k);
       ])

let sites_line fp sites =
  J.to_string
    (J.Obj
       [
         ("op", J.String "analyze");
         ("circuit", circuit "fingerprint" fp);
         ("sites", J.List (List.map J.int sites));
       ])

let stats_line = {|{"op":"stats"}|}

(* --- the client --------------------------------------------------------- *)

let kinds = [| "tmr"; "buffer"; "de_morgan" |]

let accepts (c : Netlist.Circuit.t) kind name =
  match Netlist.Circuit.find_opt c name with
  | None -> false
  | Some v -> (
    match (kind, Netlist.Circuit.node c v) with
    | "buffer", _ -> true
    | "tmr", Netlist.Circuit.Gate _ -> true
    | "de_morgan", Netlist.Circuit.Gate { kind = Netlist.Gate.(And | Or | Nand | Nor); _ } -> true
    | _ -> false)

(* One visit through [rpc], which returns the reply and the round trip in
   ms. *)
let visit ~rpc ~visit (d : design) =
  let out = ref [] in
  let send op line =
    let reply, ms = rpc line in
    let ex = { visit; op; line; ms; reply } in
    out := ex :: !out;
    ex
  in
  let analyze = analyze_line d.payload.text in
  let first = send Analyze analyze in
  let repeat = send Analyze_repeat analyze in
  (match List.find_opt ok [ repeat; first ] with
  | None -> ()
  | Some base ->
    let reply ex = Option.get ex.reply in
    let fp = ref (Option.value ~default:"" (str "fingerprint" (reply base))) in
    let last = ref (reply base) in
    let rewritten = Hashtbl.create 4 in
    for e = 0 to 7 do
      let kind = kinds.(e mod 3) in
      let acceptable (name, _) =
        accepts d.circuit kind name && not (kind = "de_morgan" && Hashtbl.mem rewritten name)
      in
      match List.find_opt acceptable (top !last) with
      | None ->
        out := { visit; op = Edit { kind; target = "" }; line = ""; ms = Float.nan; reply = None } :: !out
      | Some (target, _) ->
        let ex = send (Edit { kind; target }) (edit_line !fp kind target) in
        if ok ex then begin
          fp := Option.value ~default:"" (str "fingerprint" (reply ex));
          last := reply ex;
          if kind = "de_morgan" then Hashtbl.replace rewritten target ()
        end
    done;
    let hot = List.filteri (fun i _ -> i < top_k) (List.map snd (top !last)) in
    ignore (send Analyze_sites (sites_line !fp hot));
    ignore (send Analyze_sites (sites_line !fp d.cold_sites)));
  ignore (send Stats stats_line);
  List.rev !out

(* Whole rounds, so every run sends every design the same requests. *)
let session ~rpc ~seconds designs =
  let start = now () in
  let visits = ref [] and v = ref 0 in
  while !v = 0 || now () -. start < seconds do
    Array.iter
      (fun d ->
        visits := visit ~rpc ~visit:!v d :: !visits;
        incr v)
      designs
  done;
  (List.rev !visits, now () -. start)

(* --- the serd child ----------------------------------------------------- *)

type child = { pid : int; ic : in_channel; oc : out_channel }

let spawn serd =
  let to_r, to_w = Unix.pipe ~cloexec:true () in
  let from_r, from_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process serd [| serd; "--domains"; "1" |] to_r from_w Unix.stderr in
  Unix.close to_r;
  Unix.close from_w;
  { pid; ic = Unix.in_channel_of_descr from_r; oc = Unix.out_channel_of_descr to_w }

let child_rpc ch line =
  let t0 = now () in
  output_string ch.oc line;
  output_char ch.oc '\n';
  flush ch.oc;
  let text = input_line ch.ic in
  let ms = (now () -. t0) *. 1e3 in
  match J.parse text with Ok r -> (Some r, ms) | Error _ -> (None, ms)

(* Asks for a clean shutdown, then reaps the process; a child that does not
   answer is killed. *)
let stop ch =
  (try ignore (child_rpc ch {|{"op":"shutdown"}|})
   with Sys_error _ | End_of_file -> ( try Unix.kill ch.pid Sys.sigkill with Unix.Unix_error _ -> ()));
  close_out_noerr ch.oc;
  close_in_noerr ch.ic;
  try ignore (Unix.waitpid [] ch.pid) with Unix.Unix_error _ -> ()

let inproc_rpc server line =
  let t0 = now () in
  let r = match Service.Server.handle_line server line with `Reply j | `Shutdown j -> j in
  (Some r, (now () -. t0) *. 1e3)

let fresh_server () = Service.Server.create { Service.Server.default_config with domains = Some 1 }

(* --- output checks ------------------------------------------------------ *)

(* The Transform.triplicate_delta naming defect: a second TMR of a signal
   mints replica and voter names that already exist. *)
let known_defect ex =
  match (ex.op, ex.reply) with
  | Edit { kind = "tmr"; _ }, Some r ->
    let msg = error_text (Some r) in
    let has sub =
      let n = String.length sub and m = String.length msg in
      let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
      go 0
    in
    status (Some r) = "error" && has "invalid_netlist" && has "driven twice" && has "#"
  | _ -> false

let quarantined ex =
  match Option.bind ex.reply (J.member "stats") with
  | Some s -> Option.value ~default:0.0 (Option.bind (J.member "quarantined" s) J.to_number) > 0.0
  | None -> false

let summary r = Option.map J.to_string (J.member "summary" r)

let apply_edit kind c node =
  match kind with
  | "tmr" -> Netlist.Transform.triplicate_delta c ~nodes:[ node ]
  | "buffer" -> Netlist.Transform.insert_identity_delta c ~net:node
  | _ -> Netlist.Transform.de_morgan_delta c ~gate:node

let summary_of results =
  let count = List.length results in
  let sum, maxp =
    List.fold_left
      (fun (s, m) (r : Epp.Epp_engine.site_result) -> (s +. r.p_sensitized, Float.max m r.p_sensitized))
      (0.0, 0.0) results
  in
  J.to_string
    (J.Obj
       [
         ("sites", J.int count);
         ("mean_p_sensitized", J.Number (if count = 0 then 0.0 else sum /. float_of_int count));
         ("max_p_sensitized", J.Number maxp);
       ])

(* One sampled visit, replayed in-process on a fresh server, must answer
   every request with the same status, fingerprint and summary; and the
   last accepted edit must match a cold whole-circuit sweep of the same
   edit chain applied to the client's copy of the netlist. *)
let check_visit (d : design) exchanges =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let server = fresh_server () in
  List.iter
    (fun ex ->
      if ex.line <> "" then begin
        let r, _ = inproc_rpc server ex.line in
        let field k x = Option.bind x (fun x -> Option.map J.to_string (J.member k x)) in
        if status r <> status ex.reply then
          problem "visit %d %s: serd said %s, in-process replay %s" ex.visit (op_name ex.op)
            (status ex.reply) (status r)
        else if ok ex && (field "summary" r <> field "summary" ex.reply || field "fingerprint" r <> field "fingerprint" ex.reply)
        then problem "visit %d %s: summary differs from the in-process replay" ex.visit (op_name ex.op)
      end)
    exchanges;
  let current = ref d.circuit and last = ref None in
  List.iter
    (fun ex ->
      match ex.op with
      | Edit { kind; target } when ok ex ->
        current := fst (apply_edit kind !current (Netlist.Circuit.find !current target));
        last := ex.reply
      | _ -> ())
    exchanges;
  (match !last with
  | None -> ()
  | Some r ->
    let engine = Epp.Epp_engine.create !current in
    let cold = summary_of (Epp.Ser_estimator.analyze_all ~domains:1 engine) in
    if summary r <> Some cold then problem "last edit's summary differs from a cold sweep of the edited netlist";
    if str "fingerprint" r <> Some (Report.Checkpoint.fingerprint engine) then
      problem "last edit's fingerprint differs from the edited netlist's");
  List.rev !problems

(* --- the traced replay -------------------------------------------------- *)

(* The whole session is replayed in-process on two fresh servers, each
   request untraced on one and then traced on the other, so the trace
   overhead compares the same minute of the machine.
   The library calls behind a visit are replayed for every design's first
   visit, but those behind each accepted edit only for the first visit: an
   edit on a design whose SP fixpoint hits its cap costs over a second
   here, which would make the traced run several times longer. *)
let traced ~(designs : design array) visits =
  let replayed = List.filteri (fun i _ -> i < Array.length designs) visits in
  let lines = List.filter (fun ex -> ex.line <> "") (List.concat visits) in
  let n = float_of_int (List.length lines) in
  let problems = ref [] in
  (* Untraced: handle time, GC and JSON codec per request.  Traced: the
     spans and counters of the same request. *)
  let server = fresh_server () and traced_server = fresh_server () and pass = Layers.create () in
  let plain =
    List.map
      (fun ex ->
        let g0 = Gc.quick_stat () in
        let r, ms = inproc_rpc server ex.line in
        let g1 = Gc.quick_stat () in
        let t0 = now () in
        ignore (J.parse ex.line);
        let t1 = now () in
        ignore (J.to_string (Option.get r));
        let t2 = now () in
        Layers.within pass (fun () ->
            Layers.span "bench.request" (fun () -> ignore (inproc_rpc traced_server ex.line)));
        (ex, ms, Sysinfo.gc_delta g0 g1, t1 -. t0, t2 -. t1))
      lines
  in
  let snap = Obs.Metrics.snapshot pass.Layers.registry and acc = Layers.account pass.Layers.tracer in
  (* Library replay of each visit's design and accepted edits. *)
  let lib = Layers.create () in
  let parse = ref [] and analysis = ref [] and overhead = ref [] and unconverged = ref 0 in
  let transform = ref [] and apply = ref [] and patched = ref 0 and sp = ref [] and iterations = ref [] in
  let rebase = ref [] and plan = ref [] and sweep = ref [] and dirty = ref [] and fingerprint = ref [] in
  let timed f =
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  in
  Layers.within lib (fun () ->
    List.iteri
      (fun i visit ->
        let d = designs.(i) in
        let c, t = timed (fun () -> Bench_format.Parser.parse_string ~name:"<request>" d.payload.text) in
        parse := t :: !parse;
        let (), t = timed (fun () -> Layers.build_analysis c) in
        analysis := t :: !analysis;
        if not (Sigprob.Sp_sequential.compute c).converged then incr unconverged;
        let engine = Epp.Epp_engine.create c in
        (* Supervisor.sweep_all against the unsupervised dispatching sweep on
           the same engine, alternating, medians of three. *)
        let plain_t = ref [] and sup_t = ref [] and prior = ref [] in
        for _ = 1 to 3 do
          plain_t := snd (timed (fun () -> Epp.Ser_estimator.analyze_all ~domains:1 engine)) :: !plain_t;
          let o, t = timed (fun () -> Epp.Supervisor.sweep_all ~domains:1 engine) in
          sup_t := t :: !sup_t;
          prior := o.Epp.Supervisor.entries
        done;
        overhead := (100.0 *. Stats.ratio (Stats.median !sup_t -. Stats.median !plain_t) (Stats.median !plain_t)) :: !overhead;
        let engine = ref engine and current = ref c in
        List.iter
          (fun ex ->
            match ex.op with
            | Edit { kind; target } when ok ex && i = 0 ->
              let node = Netlist.Circuit.find !current target in
              let (after, delta), t = timed (fun () -> apply_edit kind !current node) in
              transform := t :: !transform;
              let _, spare = apply_edit kind !current node in
              let (_, how), t =
                timed (fun () -> Netlist.Analysis.apply_delta (Netlist.Analysis.get !current) spare)
              in
              apply := t :: !apply;
              if how = `Patched then incr patched;
              let o, t = timed (fun () -> Sigprob.Sp_sequential.compute after) in
              sp := t :: !sp;
              iterations := float_of_int o.iterations :: !iterations;
              let (edited, _), t = timed (fun () -> Epp.Incremental.rebase !engine delta) in
              rebase := t :: !rebase;
              let p, t = timed (fun () -> Epp.Incremental.plan ~before:!engine ~after:edited delta) in
              plan := t :: !plan;
              dirty := Epp.Incremental.dirty_fraction p :: !dirty;
              let o, t = timed (fun () -> Epp.Incremental.sweep ~domains:1 p ~prior:!prior edited) in
              sweep := t :: !sweep;
              let fp, t = timed (fun () -> Report.Checkpoint.fingerprint edited) in
              fingerprint := t :: !fingerprint;
              if Option.bind ex.reply (str "fingerprint") <> Some fp then
                problems := Printf.sprintf "visit %d %s: library replay fingerprint differs" ex.visit (op_name ex.op) :: !problems;
              engine := edited;
              current := after;
              prior := o.Epp.Supervisor.entries
            | _ -> ())
          visit)
      replayed);
  let lib_snap = Obs.Metrics.snapshot lib.Layers.registry and lib_acc = Layers.account lib.Layers.tracer in
  let mean l = if l = [] then 0.0 else Stats.mean l in
  let edits = float_of_int (List.length !transform) in
  let bytes =
    Array.fold_left (fun a d -> a +. float_of_int (String.length d.payload.text)) 0.0
      (Array.sub designs 0 (List.length replayed))
  in
  (* Sp_sequential runs Sp_topological once per iteration, so only the
     outer spans count whole computations. *)
  let sp_computes = float_of_int (Layers.count lib_acc "sp.sequential") in
  let handle_ms pred = Stats.median (List.filter_map (fun (ex, ms, _, _, _) -> if pred ex.op then Some ms else None) plain) in
  let untraced_total = Stats.sum (List.map (fun (_, ms, _, _, _) -> ms) plain) /. 1e3 in
  let traced_total = Layers.total_s acc "bench.request" in
  let client = Stats.mean (List.map (fun ex -> ex.ms /. 1e3) lines) in
  let hits = Layers.counter snap "analysis.cache.engine.hit" and misses = Layers.counter snap "analysis.cache.engine.miss" in
  let busy = Layers.hist_sum snap "parallel.worker_busy_seconds" and idle = Layers.hist_sum snap "parallel.worker_idle_seconds" in
  let per x = Stats.ratio x n in
  let metrics =
    [
      ("bench_format.parse_s", mean !parse, "s");
      ("bench_format.mb_per_s", Stats.ratio (bytes /. 1e6) (Stats.sum !parse), "MB/s");
      ("netlist.analysis_s", mean !analysis, "s");
      ("netlist.transform_s", mean !transform, "s");
      ("netlist.apply_delta_s", mean !apply, "s");
      ("netlist.patched_ratio", Stats.ratio (float_of_int !patched) edits, "ratio");
      ("sigprob.sp_s", mean !sp, "s");
      ("sigprob.fixpoint_iterations", mean !iterations, "count");
      ("sigprob.unconverged", float_of_int !unconverged, "count");
      ("sigprob.node_evals", Stats.ratio (Layers.counter lib_snap "sp.node_evaluations") sp_computes, "count");
      ("parallel.busy_ratio", Stats.ratio busy (busy +. idle), "ratio");
      ("parallel.tasks_stolen", per (Layers.counter snap "parallel.tasks_stolen"), "count");
      ("supervisor.sweep_s", per (Layers.total_s acc "supervisor.sweep"), "s");
      ("supervisor.overhead_pct", Stats.median !overhead, "%");
      ( "supervisor.degraded",
        Layers.counter snap "supervisor.degraded_to_reference" +. Layers.counter snap "supervisor.quarantined",
        "count" );
      ("incremental.rebase_s", mean !rebase, "s");
      ("incremental.plan_s", mean !plan, "s");
      ("incremental.sweep_s", mean !sweep, "s");
      ("incremental.dirty_fraction", mean !dirty, "ratio");
      ("report.fingerprint_s", mean !fingerprint, "s");
      ("service.handle_ms.analyze", handle_ms (function Analyze | Analyze_repeat | Analyze_sites -> true | _ -> false), "ms");
      ("service.handle_ms.edit", handle_ms (function Edit _ -> true | _ -> false), "ms");
      ( "service.transport_ms",
        Stats.median (List.map (fun (ex, ms, _, _, _) -> ex.ms -. ms) plain),
        "ms" );
      ("service.json_parse_s", mean (List.map (fun (_, _, _, t, _) -> t) plain), "s");
      ("service.json_emit_s", mean (List.map (fun (_, _, _, _, t) -> t) plain), "s");
      ("engine_cache.hit_ratio", Stats.ratio hits (hits +. misses), "ratio");
      ("gc.minor_collections", mean (List.map (fun (_, _, g, _, _) -> float_of_int g.Sysinfo.minor) plain), "count");
      ("gc.major_collections", mean (List.map (fun (_, _, g, _, _) -> float_of_int g.Sysinfo.major) plain), "count");
      ("gc.allocated_mb", mean (List.map (fun (_, _, g, _, _) -> g.Sysinfo.allocated_mb) plain), "MB");
      ("obs.trace_overhead_pct", 100.0 *. Stats.ratio (traced_total -. untraced_total) untraced_total, "%");
      ( "obs.unattributed_pct",
        100.0 *. Stats.ratio (Layers.self_s acc "bench.request") traced_total,
        "%" );
    ]
    @ Layers.kernel_metrics snap ~ops:n
    @ Layers.batch_metrics snap ~ops:n
  in
  Layers.print_table ~title:(Printf.sprintf "serd request, %d requests replayed in-process" (List.length lines)) ~e2e:client
    [
      ("transport (pipe, framing)", client -. (untraced_total /. n));
      ("service (serd.request)", per (Layers.self_s acc "serd.request"));
      ("supervisor", per (Layers.sum_self acc [ "supervisor.sweep"; "supervisor.chunk" ]));
      ("epp_batch (blocks)", per (Layers.self_s acc "epp.batch.block"));
      ("parallel (workers)", per (Layers.self_s acc "parallel.worker"));
      ("epp (engine create)", per (Layers.sum_self acc [ "epp.create"; "epp.levelize" ]));
      ("sigprob (sp)", per (Layers.sum_self acc [ "sp.sequential"; "sp.topological" ]));
      ("(bench.request self)", per (Layers.self_s acc "bench.request"));
    ];
  Printf.printf "in-process handle: untraced %.3f ms, traced %.3f ms per request; trace overhead %.2f%%\n"
    (untraced_total /. n *. 1e3) (traced_total /. n *. 1e3)
    (100.0 *. Stats.ratio (traced_total -. untraced_total) untraced_total);
  Printf.printf "supervised sweeps: sites on the batch rung %.0f, on the per-site kernel %.0f\n"
    (Layers.counter snap "supervisor.batch_ok") (Layers.counter snap "supervisor.kernel_ok");
  (metrics, List.rev !problems)

(* --- the workload ------------------------------------------------------- *)

let setup_reps = 5

(* serd names every .bench payload's circuit "<request>", and the name is
   part of an engine's fingerprint; the client's copy carries the same
   name so that its fingerprints are comparable. *)
let make_designs ~seed =
  Inputs.session ()
  |> List.mapi (fun i (p : Inputs.payload) ->
         let circuit = Bench_format.Parser.parse_string ~name:"<request>" p.text in
         {
           payload = p;
           circuit;
           cold_sites = Inputs.sample ~seed ~purpose:(300 + i) ~count:top_k (Netlist.Circuit.node_count circuit);
         })
  |> Array.of_list

let ping ch =
  match child_rpc ch {|{"op":"ping"}|} with
  | Some r, _ when status (Some r) = "ok" -> ()
  | _ -> failwith "serd did not answer ping"

let run ~serd ~seed ~seconds ~trace =
  (* Set-up: generate the designs, print their payloads, parse the
     client's copies, start serd and wait for its first reply.  Repeated;
     the last child serves the session. *)
  let times = ref [] and designs = ref [||] and child = ref None in
  for rep = 1 to setup_reps do
    let t0 = now () in
    designs := make_designs ~seed;
    let ch = spawn serd in
    (try ping ch with e -> stop ch; raise e);
    times := (now () -. t0) :: !times;
    if rep < setup_reps then stop ch else child := Some ch
  done;
  let ch = Option.get !child in
  let designs = !designs in
  Printf.printf "set-ups (s): %s\n" (String.concat " " (List.rev_map (Printf.sprintf "%.4f") !times));
  Printf.printf "workload serd-session: %d designs of %d s1196-profile blocks (%s)\n" (Array.length designs)
    Inputs.blocks_per_design
    (String.concat ", " (Array.to_list (Array.map (fun d -> Printf.sprintf "%s %d nodes" d.payload.label d.payload.nodes) designs)));
  Printf.printf "serd: one child, --domains 1; one closed-loop client\n";
  let visits, wall, peak_rss_mb =
    Fun.protect
      ~finally:(fun () -> stop ch)
      (fun () ->
        (* Warm-up: a small analyze of the embedded s27. *)
        let t0 = now () in
        let warm =
          J.to_string
            (J.Obj [ ("op", J.String "analyze"); ("circuit", circuit "embedded" "s27"); ("top_k", J.int 1) ])
        in
        ignore (child_rpc ch warm);
        Printf.printf "warmup_s %.3f s\n" (now () -. t0);
        let visits, wall = session ~rpc:(child_rpc ch) ~seconds designs in
        (visits, wall, Sysinfo.peak_rss_mb ~pid:(string_of_int ch.pid)))
  in
  let all = List.concat visits in
  let sent = List.filter (fun ex -> ex.line <> "") all in
  let failed = List.filter (fun ex -> not (ok ex) || quarantined ex) all in
  let problems = ref [] in
  List.iter
    (fun ex ->
      if known_defect ex then
        Printf.printf "known defect (Transform.triplicate_delta naming): visit %d %s %s\n" ex.visit
          (match ex.op with Edit { target; _ } -> target | _ -> "") (error_text ex.reply)
      else if ex.line = "" then
        problems := Printf.sprintf "visit %d %s: no acceptable target in the top list" ex.visit (op_name ex.op) :: !problems
      else if not (ok ex) then
        problems := Printf.sprintf "visit %d %s: %s" ex.visit (op_name ex.op) (error_text ex.reply) :: !problems
      else if quarantined ex then
        Printf.printf "quarantined sites: visit %d %s\n" ex.visit (op_name ex.op))
    all;
  (* A failed request counts as slower than any success: +inf here, and
     the whole session's wall time if a percentile lands on one. *)
  let latencies pred =
    List.filter_map
      (fun ex -> if pred ex.op then Some (if ok ex then ex.ms else Float.infinity) else None)
      sent
  in
  let pct pred p =
    let v = Stats.percentile (latencies pred) p in
    if v = Float.infinity then wall *. 1e3 else v
  in
  let every _ = true in
  let n = List.length sent in
  Printf.printf "requests: %d in %d visits over %.2f s; p90 has %d samples beyond it\n" n (List.length visits) wall
    (Stats.beyond n 90.0);
  List.iter
    (fun (label, pred) ->
      let l = latencies pred in
      Printf.printf "%-16s n=%3d p50 %8.2f ms\n" label (List.length l) (Stats.median l))
    [
      ("analyze (miss)", (function Analyze -> true | _ -> false));
      ("analyze (hit)", (function Analyze_repeat -> true | _ -> false));
      ("edit", (function Edit _ -> true | _ -> false));
      ("analyze 62 sites", (function Analyze_sites -> true | _ -> false));
      ("stats", (function Stats -> true | _ -> false));
    ];
  let sampled = Inputs.sample ~seed ~purpose:6 ~count:1 (List.length visits) in
  List.iter
    (fun v ->
      let exchanges = List.nth visits v in
      problems := !problems @ check_visit designs.(v mod Array.length designs) exchanges)
    sampled;
  let end_to_end =
    [
      ("request_ms_p50", pct every 50.0, "ms");
      ("request_ms_p90", pct every 90.0, "ms");
      ("edit_ms_p50", pct (function Edit _ -> true | _ -> false) 50.0, "ms");
      ("analyze_ms_p50", pct (function Analyze | Analyze_repeat -> true | _ -> false) 50.0, "ms");
      ("analyze_miss_ms_p50", pct (function Analyze -> true | _ -> false) 50.0, "ms");
      ("analyze_hit_ms_p50", pct (function Analyze_repeat -> true | _ -> false) 50.0, "ms");
      ("requests_per_s", Stats.ratio (float_of_int n) wall, "req/s");
      ("setup_s", Stats.median !times, "s");
      ("peak_rss_mb", peak_rss_mb, "MB");
      ("fail_ratio", Stats.ratio (float_of_int (List.length failed)) (float_of_int (List.length all)), "ratio");
    ]
  in
  let per_layer, traced_problems =
    if trace then traced ~designs visits else ([], [])
  in
  let problems = !problems @ traced_problems in
  List.iter (Printf.printf "FAILED: %s\n") problems;
  {
    Outcome.correct = problems = [];
    attempted = List.length all;
    failed = List.length failed + List.length traced_problems;
    end_to_end;
    per_layer;
  }
