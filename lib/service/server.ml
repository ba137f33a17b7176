(* The serd request engine.

   Single-threaded on purpose: one analyze at a time keeps the domains of
   the supervised sweep as the only parallelism, so load has exactly one
   knob (the bounded queue) and shedding is deterministic.  The serve loop
   alternates: pull one frame (blocking), opportunistically drain whatever
   else has already arrived into the bounded queue — shedding the excess
   with [overloaded] — then serve the head.

   Fault isolation is layered: the JSON decoder rejects hostile framing
   with typed limits, the protocol decoder rejects malformed requests, the
   netlist parsers' exceptions are mapped to [invalid_netlist], and a
   final catch-all at the request boundary turns anything unexpected into
   an [internal_error] reply.  Nothing a client sends can take the process
   down. *)

module Json = Obs.Json
open Netlist

type config = {
  max_request_bytes : int;
  max_source_bytes : int;
  max_json_depth : int;
  queue_high_water : int;
  cache_capacity : int;
  default_budget_ms : float option;
  checkpoint_dir : string option;
  domains : int option;
  dump_dir : string option;
  allow_fault_injection : bool;
}

let default_config =
  {
    max_request_bytes = 8 * 1024 * 1024;
    max_source_bytes = 4 * 1024 * 1024;
    max_json_depth = 64;
    queue_high_water = 64;
    cache_capacity = 8;
    default_budget_ms = None;
    checkpoint_dir = None;
    domains = None;
    dump_dir = None;
    allow_fault_injection = false;
  }

type t = {
  config : config;
  cache : Engine_cache.t;
  started_mono : float;
  mutable queue_depth : int;
}

let create config =
  if
    config.max_request_bytes < 1 || config.max_source_bytes < 1
    || config.max_json_depth < 1 || config.queue_high_water < 1
  then invalid_arg "Server.create: limits must be positive";
  {
    config;
    cache = Engine_cache.create ~capacity:config.cache_capacity;
    started_mono = Obs.Clock.monotonic_seconds ();
    queue_depth = 0;
  }

let counter name = Obs.Metrics.counter (Obs.Hooks.metrics ()) name

(* Typed rejection travelling out of the build thunk the cache runs. *)
exception Reject of Protocol.error_code * string

let reject code fmt = Printf.ksprintf (fun m -> raise (Reject (code, m))) fmt

(* --- circuit building ----------------------------------------------------- *)

let parse_circuit t (spec : Protocol.circuit_spec) =
  if String.length spec.source > t.config.max_source_bytes then
    reject Protocol.Request_too_large
      "circuit source is %d bytes (limit %d)"
      (String.length spec.source)
      t.config.max_source_bytes;
  let invalid fmt = reject Protocol.Invalid_netlist fmt in
  match spec.format with
  | Protocol.Fingerprint ->
    (* Fingerprints name resident engines, not parseable payloads; they are
       resolved in [engine_for] before this function is ever reached. *)
    reject Protocol.Bad_request "fingerprint %S is not resident" spec.source
  | Protocol.Embedded -> (
    match Circuit_gen.Embedded.find spec.source with
    | Some f -> f ()
    | None ->
      invalid "unknown embedded circuit %S (available: %s)" spec.source
        (String.concat ", " (List.map fst Circuit_gen.Embedded.all)))
  | Protocol.Bench -> (
    try Bench_format.Parser.parse_string ~name:"<request>" spec.source with
    | Bench_format.Parser.Error { message; pos } ->
      invalid "parse error at line %d, column %d: %s"
        pos.Bench_format.Token.line pos.Bench_format.Token.column message
    | Netlist.Builder.Error e ->
      invalid "invalid netlist: %s" (Netlist.Builder.error_to_string e))
  | Protocol.Blif -> (
    try Blif_format.Blif_parser.parse_string spec.source with
    | Blif_format.Blif_parser.Error { message; line } ->
      invalid "parse error at line %d: %s" line message
    | Blif_format.Blif_parser.Elaboration_error message ->
      invalid "%s" message
    | Netlist.Builder.Error e ->
      invalid "invalid netlist: %s" (Netlist.Builder.error_to_string e))

(* Automatic flight-recorder dump: when a request ends in one of the states
   an operator will want a post-mortem for (quarantine, deadline expiry,
   internal error), the ring contents are written to [dump_dir] keyed by the
   request's correlation id.  Dump failures are reported, never raised —
   the reply already in flight matters more than the artifact. *)
let maybe_dump t ~ctx reason =
  match t.config.dump_dir with
  | None -> ()
  | Some dir -> (
    let path =
      Filename.concat dir
        (Printf.sprintf "%s-%s.json" reason (Obs.Ctx.id ctx))
    in
    match Obs.Recorder.dump_to_file path with
    | () ->
      Obs.Metrics.incr (counter "serd.recorder_dumps");
      Obs.Log.emit ~ctx
        ~fields:
          [
            ("path", Json.String path); ("reason", Json.String reason);
          ]
        Obs.Log.Info "serd.recorder_dump"
    | exception Sys_error msg ->
      Obs.Log.emit ~ctx
        ~fields:[ ("path", Json.String path); ("error", Json.String msg) ]
        Obs.Log.Warn "serd.recorder_dump_failed")

let engine_for t ~ctx (spec : Protocol.circuit_spec) =
  match spec.format with
  | Protocol.Fingerprint -> (
    match Engine_cache.find_fingerprint t.cache spec.source with
    | Some outcome -> outcome
    | None ->
      reject Protocol.Bad_request
        "fingerprint %S is not resident (analyze the circuit first, or \
         repeat the edit from its payload)"
        spec.source)
  | _ ->
    Engine_cache.find_or_build ~ctx t.cache
      ~format:(Protocol.format_string spec.format)
      ~source:spec.source
      ~build:(fun () ->
        let circuit = parse_circuit t spec in
        try Epp.Epp_engine.create circuit with
        | Epp.Epp_engine.Invalid_signal_probability { name; value; _ } ->
          reject Protocol.Invalid_netlist
            "signal probability for %S is %g (outside [0, 1])" name value)

(* --- analyze --------------------------------------------------------------- *)

let stats_json (s : Epp.Diag.stats) =
  Json.Obj
    [
      ("total", Json.int s.total);
      ("batch_ok", Json.int s.batch_ok);
      ("degraded", Json.int s.degraded);
      ("quarantined", Json.int s.quarantined);
      ("resumed", Json.int s.resumed);
    ]

(* The [k] analyzed sites of highest P_sensitized, ties by site id. *)
let top_sites circuit k (outcome : Epp.Supervisor.outcome) =
  let by_p_sensitized (sa, (ra : Epp.Site_row.t)) (sb, (rb : Epp.Site_row.t)) =
    match Float.compare rb.p_sensitized ra.p_sensitized with
    | 0 -> Int.compare sa sb
    | c -> c
  in
  Epp.Ranking.select ~compare:by_p_sensitized k (fun f ->
      List.iter
        (function
          | site, Epp.Supervisor.Analyzed { row; _ } -> f (site, row)
          | _, Epp.Supervisor.Quarantined _ -> ())
        outcome.entries)
  |> List.map (fun (site, (row : Epp.Site_row.t)) ->
         Json.Obj
           [
             ("site", Json.int site);
             ("name", Json.String (Circuit.node_name circuit site));
             ("p_sensitized", Json.Number row.p_sensitized);
           ])

let outcome_response t ?id ~ctx ~fingerprint ~(hit : bool) ~top_k ?(extra = [])
    circuit (outcome : Epp.Supervisor.outcome) =
  (* one pass over the rows: count, and the sum and max of P_sensitized
     kept unboxed in a float array *)
  let count = ref 0 and acc = [| 0.0; 0.0 |] in
  List.iter
    (function
      | _, Epp.Supervisor.Analyzed { row; _ } ->
        let p = row.Epp.Site_row.p_sensitized in
        incr count;
        acc.(0) <- acc.(0) +. p;
        acc.(1) <- Float.max acc.(1) p
      | _, Epp.Supervisor.Quarantined _ -> ())
    outcome.entries;
  let count = !count and sum = acc.(0) and maxp = acc.(1) in
  let summary =
    Json.Obj
      [
        ("sites", Json.int count);
        ( "mean_p_sensitized",
          Json.Number (if count = 0 then 0.0 else sum /. float_of_int count) );
        ("max_p_sensitized", Json.Number maxp);
      ]
  in
  let base =
    [
      ("fingerprint", Json.String fingerprint);
      ("cache", Json.String (if hit then "hit" else "miss"));
      ("stats", stats_json outcome.stats);
      ("summary", summary);
    ]
  in
  let base =
    match top_k with
    | None -> base
    | Some k -> base @ [ ("top", Json.List (top_sites circuit k outcome)) ]
  in
  let base = base @ extra in
  if outcome.stats.Epp.Diag.quarantined > 0 then
    maybe_dump t ~ctx "quarantine";
  let request_id = Obs.Ctx.id ctx in
  match outcome.completion with
  | Epp.Diag.Complete -> Protocol.ok_response ?id ~request_id base
  | Epp.Diag.Deadline_expired { analyzed; remaining; budget_seconds } ->
    Obs.Metrics.incr (counter "serd.deadline_partial");
    maybe_dump t ~ctx "deadline";
    Protocol.partial_response ?id ~request_id
      (base
      @ [
          ( "deadline",
            Json.Obj
              [
                ("analyzed", Json.int analyzed);
                ("remaining", Json.int remaining);
                ("budget_ms", Json.Number (budget_seconds *. 1000.0));
              ] );
        ])

(* Request-scoped fault injection (operational drills / smoke tests): the
   listed sites fail on every ladder rung, so each one exercises the full
   degrade -> quarantine path under a real request.  Gated behind config —
   a production daemon rejects the field as a bad request. *)
let injection_overrides t ~inject =
  match inject with
  | None -> (None, None)
  | Some fail_sites ->
    if not t.config.allow_fault_injection then
      reject Protocol.Bad_request
        "\"inject_faults\" requires the server to enable fault injection";
    let should_fail site = List.mem site fail_sites in
    let boom site = Failure (Printf.sprintf "injected fault at site %d" site) in
    let batch_run block sites =
      let results = Epp.Epp_batch.Block.run block sites in
      Array.mapi
        (fun l r -> if should_fail sites.(l) then Error (boom sites.(l)) else r)
        results
    in
    let reference engine site =
      if should_fail site then raise (boom site)
      else Epp.Epp_engine.analyze_site engine site
    in
    (Some batch_run, Some reference)

let deadline_of t ~budget_ms =
  let budget =
    match budget_ms with
    | Some _ -> budget_ms
    | None -> t.config.default_budget_ms
  in
  match budget with
  | None -> Obs.Deadline.never
  | Some ms -> Obs.Deadline.of_budget_ms ms

(* A completed whole-circuit sweep is the splice donor for later [edit]
   requests on this engine, and the answer to a repeat [analyze]: remember
   its entries alongside the resident engine (partial sweeps are not
   remembered — a splice may not invent holes). *)
let remember_if_complete t ~fingerprint (outcome : Epp.Supervisor.outcome) =
  match outcome.completion with
  | Epp.Diag.Complete ->
    Engine_cache.remember_results t.cache ~fingerprint outcome.entries
  | Epp.Diag.Deadline_expired _ -> ()

let handle_analyze t ?id ~ctx ~circuit ~sites ~budget_ms ~top_k ~inject () =
  let { Engine_cache.engine; fingerprint; hit } = engine_for t ~ctx circuit in
  let c = Epp.Epp_engine.circuit engine in
  let n = Circuit.node_count c in
  let batch_run, reference = injection_overrides t ~inject in
  let deadline = deadline_of t ~budget_ms in
  let domains = t.config.domains in
  match sites with
  | Some sites ->
    (match List.find_opt (fun s -> s < 0 || s >= n) sites with
    | Some s ->
      reject Protocol.Bad_request "site %d out of range (circuit has %d nodes)"
        s n
    | None -> ());
    let outcome =
      Epp.Supervisor.sweep ~ctx ?domains ?batch_run ?reference ~deadline
        engine sites
    in
    outcome_response t ?id ~ctx ~fingerprint ~hit ~top_k c outcome
  | None ->
    (* A resident engine whose complete sweep is remembered answers from
       it: every site is held, so nothing is swept and [stats.resumed] is
       the node count.  A fault drill still runs the ladder, and its
       outcome is not remembered.  Otherwise whole-circuit sweeps
       checkpoint per fingerprint, so a killed daemon resumes a repeat
       query instead of recomputing.  A corrupt or mismatched checkpoint
       is data, not a crash: it is dropped and the sweep starts fresh
       rather than refusing to serve. *)
    let checkpoint =
      Option.map
        (fun dir -> Filename.concat dir (fingerprint ^ ".ck"))
        t.config.checkpoint_dir
    in
    let remembered =
      if Option.is_some inject then None
      else Engine_cache.results_for t.cache ~fingerprint
    in
    let prior =
      match (remembered, checkpoint) with
      | Some entries, _ -> entries
      | None, None -> []
      | None, Some ck -> (
        match Report.Checkpoint.replay ~ctx ~circuit:c ck ~fingerprint with
        | Ok entries -> entries
        | Error _ ->
          Obs.Metrics.incr (counter "serd.checkpoint_rejected");
          (try Sys.remove ck with Sys_error _ -> ());
          [])
    in
    let outcome =
      Epp.Supervisor.sweep_all ~ctx ?domains ?batch_run ?reference ~deadline
        ?on_chunk:
          (Option.map
             (Report.Checkpoint.recorder ~ctx ~circuit:c ~fingerprint)
             checkpoint)
        ~prior engine
    in
    if Option.is_none inject then remember_if_complete t ~fingerprint outcome;
    outcome_response t ?id ~ctx ~fingerprint ~hit ~top_k c outcome

(* --- edit ------------------------------------------------------------------ *)

(* The interactive hardening round trip: apply one Transform to a (usually
   cached) base circuit and re-analyze incrementally — the edited circuit
   gets its own analysis context (one topological sort), only the dirty
   cone is re-swept, and clean sites are spliced from the base engine's
   remembered whole-circuit outcome.  The post-edit engine becomes
   resident under its own (fresh) fingerprint, so a chain of edits keeps
   paying O(dirty cone) per step. *)
let handle_edit t ?id ~ctx ~circuit ~kind ~target ~budget_ms ~top_k () =
  let { Engine_cache.engine = base_engine; fingerprint = base_fp; hit } =
    engine_for t ~ctx circuit
  in
  let c = Epp.Epp_engine.circuit base_engine in
  let node =
    match Circuit.find_opt c target with
    | Some v -> v
    | None ->
      reject Protocol.Bad_request "unknown signal %S in circuit %S" target
        (Circuit.name c)
  in
  let _, delta =
    try
      match kind with
      | Protocol.Tmr -> Transform.triplicate_delta c ~nodes:[ node ]
      | Protocol.Buffer_net -> Transform.insert_identity_delta c ~net:node
      | Protocol.De_morgan -> Transform.de_morgan_delta c ~gate:node
    with
    | Invalid_argument message -> reject Protocol.Bad_request "%s" message
    | Transform.Not_a_gate name ->
      reject Protocol.Bad_request "%S is not a gate (only gates can be %s)"
        name
        (Protocol.edit_kind_string kind)
    | Netlist.Builder.Error e ->
      reject Protocol.Invalid_netlist "edit produced an invalid netlist: %s"
        (Netlist.Builder.error_to_string e)
  in
  let edited, _ = Epp.Incremental.rebase base_engine delta in
  let plan = Epp.Incremental.plan ~before:base_engine ~after:edited delta in
  let prior =
    Option.value ~default:[]
      (Engine_cache.results_for t.cache ~fingerprint:base_fp)
  in
  let deadline = deadline_of t ~budget_ms in
  let outcome =
    Epp.Incremental.sweep ~ctx ?domains:t.config.domains ~deadline plan ~prior
      edited
  in
  let fingerprint = Report.Checkpoint.fingerprint edited in
  ignore (Engine_cache.insert ~ctx t.cache ~fingerprint edited);
  remember_if_complete t ~fingerprint outcome;
  Obs.Metrics.incr (counter "serd.edits");
  let swept = outcome.stats.Epp.Diag.total - outcome.stats.Epp.Diag.resumed in
  let extra =
    [
      ("base_fingerprint", Json.String base_fp);
      ( "edit",
        Json.Obj
          [
            ("kind", Json.String (Protocol.edit_kind_string kind));
            ("target", Json.String target);
          ] );
      ( "incremental",
        Json.Obj
          [
            ("dirty_sites", Json.int swept);
            ("clean_reused", Json.int outcome.stats.Epp.Diag.resumed);
            ( "dirty_fraction",
              Json.Number
                (if Epp.Incremental.total plan = 0 then 0.0
                 else
                   float_of_int swept
                   /. float_of_int (Epp.Incremental.total plan)) );
          ] );
    ]
  in
  outcome_response t ?id ~ctx ~fingerprint ~hit ~top_k ~extra
    (Epp.Epp_engine.circuit edited)
    outcome

(* --- dispatch -------------------------------------------------------------- *)

let publish_memory () =
  let g = Gc.quick_stat () in
  let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.0 in
  let gauge name v =
    Obs.Metrics.set_gauge (Obs.Metrics.gauge (Obs.Hooks.metrics ()) name) v
  in
  gauge "serd.memory.heap_mb" (mb g.Gc.heap_words);
  gauge "serd.memory.top_heap_mb" (mb g.Gc.top_heap_words)

(* Live introspection: the figures an operator checks before anything else
   — how long up, how loaded, how the cache and the ladder are doing, how
   much heap the daemon holds.  Counters and gauges come off the live
   metrics snapshot, structure off the server itself, so the answer works
   the same over stdio and a socket. *)
let stats_response t ?id ~ctx () =
  publish_memory ();
  let snap = Obs.Metrics.snapshot (Obs.Hooks.metrics ()) in
  let c name = Json.int (Obs.Metrics.counter_value snap name) in
  let g name =
    Json.Number
      (Option.value ~default:0.0 (Obs.Metrics.gauge_value snap name))
  in
  Protocol.ok_response ?id ~request_id:(Obs.Ctx.id ctx)
    [
      ( "uptime_seconds",
        Json.Number (Obs.Clock.monotonic_seconds () -. t.started_mono) );
      ("queue_depth", Json.int t.queue_depth);
      ("requests", c "serd.requests");
      ("errors", c "serd.errors");
      ("internal_errors", c "serd.internal_errors");
      ("shed", c "serd.shed");
      ("deadline_partial", c "serd.deadline_partial");
      ("edits", c "serd.edits");
      ( "incremental",
        Json.Obj
          [
            ("dirty_sites", c "epp.incremental.dirty_sites");
            ("clean_reused", c "epp.incremental.clean_reused");
            ("dirty_fraction", g "epp.incremental.dirty_fraction");
          ] );
      ( "engine_cache",
        Json.Obj
          [
            ("resident", Json.int (Engine_cache.resident t.cache));
            ("hit", c "analysis.cache.engine.hit");
            ("miss", c "analysis.cache.engine.miss");
          ] );
      ( "recorder",
        Json.Obj
          [
            ("capacity", Json.int Obs.Recorder.capacity);
            ("recorded", Json.int (Obs.Recorder.recorded ()));
          ] );
      ( "memory",
        Json.Obj
          [
            ("heap_mb", g "serd.memory.heap_mb");
            ("top_heap_mb", g "serd.memory.top_heap_mb");
          ] );
    ]

let handle_request t ?id ~ctx (req : Protocol.request) =
  Obs.Metrics.incr (counter "serd.requests");
  let request_id = Obs.Ctx.id ctx in
  match req with
  | Protocol.Ping ->
    `Reply (Protocol.ok_response ?id ~request_id [ ("pong", Json.Bool true) ])
  | Protocol.Metrics ->
    let snap = Obs.Metrics.snapshot (Obs.Hooks.metrics ()) in
    `Reply
      (Protocol.ok_response ?id ~request_id
         [ ("metrics", Obs.Metrics.to_json snap) ])
  | Protocol.Stats -> `Reply (stats_response t ?id ~ctx ())
  | Protocol.Dump ->
    `Reply
      (Protocol.ok_response ?id ~request_id
         [ ("recorder", Obs.Recorder.to_json ()) ])
  | Protocol.Sleep s ->
    Unix.sleepf s;
    `Reply (Protocol.ok_response ?id ~request_id [ ("slept", Json.Number s) ])
  | Protocol.Shutdown ->
    `Shutdown
      (Protocol.ok_response ?id ~request_id [ ("shutdown", Json.Bool true) ])
  | Protocol.Analyze { circuit; sites; budget_ms; top_k; inject } ->
    `Reply
      (handle_analyze t ?id ~ctx ~circuit ~sites ~budget_ms ~top_k ~inject ())
  | Protocol.Edit { circuit; kind; target; budget_ms; top_k } ->
    `Reply (handle_edit t ?id ~ctx ~circuit ~kind ~target ~budget_ms ~top_k ())

let handle_line t line =
  (* One frame = one correlation context.  Every reply, span, log event,
     and recorder entry this request produces carries this id — it is the
     join key between the wire, the trace, and the flight recorder. *)
  let ctx = Obs.Ctx.create () in
  let request_id = Obs.Ctx.id ctx in
  Obs.Trace.span (Obs.Hooks.tracer ()) ~cat:"serd"
    ~args:(Obs.Ctx.to_args ctx) "serd.request"
  @@ fun () ->
  let t0 = Obs.Clock.monotonic_seconds () in
  let op = ref "<unparsed>" in
  let limits =
    {
      Json.max_bytes = t.config.max_request_bytes;
      max_depth = t.config.max_json_depth;
    }
  in
  let result =
    match Json.parse_with_limits limits line with
    | Error (Json.Limit { message }) ->
      Obs.Metrics.incr (counter "serd.errors");
      `Reply
        (Protocol.error_response ~request_id Protocol.Request_too_large
           message)
    | Error (Json.Syntax _ as e) ->
      Obs.Metrics.incr (counter "serd.errors");
      `Reply
        (Protocol.error_response ~request_id Protocol.Parse_error
           (Json.error_message e))
    | Ok v -> (
      (match Json.member "op" v with
      | Some (Json.String o) -> op := o
      | _ -> ());
      let id = Protocol.request_id v in
      match Protocol.of_json v with
      | Error (code, message) ->
        Obs.Metrics.incr (counter "serd.errors");
        `Reply (Protocol.error_response ?id ~request_id code message)
      | Ok req -> (
        (* The request boundary: nothing below may take the daemon down. *)
        try handle_request t ?id ~ctx req with
        | Reject (code, message) ->
          Obs.Metrics.incr (counter "serd.errors");
          `Reply (Protocol.error_response ?id ~request_id code message)
        | exn ->
          Obs.Metrics.incr (counter "serd.internal_errors");
          maybe_dump t ~ctx "internal-error";
          `Reply
            (Protocol.error_response ?id ~request_id Protocol.Internal_error
               (Printexc.to_string exn))))
  in
  let status =
    match result with
    | `Reply j | `Shutdown j -> (
      match Json.member "status" j with
      | Some (Json.String s) -> s
      | _ -> "?")
  in
  Obs.Log.emit ~ctx
    ~fields:
      [
        ("op", Json.String !op);
        ("status", Json.String status);
        ( "ms",
          Json.Number ((Obs.Clock.monotonic_seconds () -. t0) *. 1000.0) );
      ]
    Obs.Log.Info "serd.request";
  result

(* --- framed reader --------------------------------------------------------- *)

(* Line framing over a raw fd with a hard per-line byte cap: an over-long
   line is discarded as it streams in (never buffered whole) and surfaces
   as one [`Too_long] event once its newline arrives. *)
module Reader = struct
  type event =
    [ `Line of string
    | `Too_long
    ]

  type r = {
    fd : Unix.file_descr;
    acc : Buffer.t;
    chunk : Bytes.t;
    pending : event Queue.t;
    max_line : int;
    mutable discarding : bool;
    mutable eof : bool;
  }

  let make fd ~max_line =
    {
      fd;
      acc = Buffer.create 4096;
      chunk = Bytes.create 65536;
      pending = Queue.create ();
      max_line;
      discarding = false;
      eof = false;
    }

  let rec restarting f =
    try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restarting f

  let readable r =
    restarting (fun () ->
        match Unix.select [ r.fd ] [] [] 0.0 with
        | [], _, _ -> false
        | _ -> true)

  (* One read(2); false when it would have blocked or the stream ended. *)
  let refill r ~block =
    if r.eof then false
    else if (not block) && not (readable r) then false
    else begin
      let k =
        restarting (fun () -> Unix.read r.fd r.chunk 0 (Bytes.length r.chunk))
      in
      if k = 0 then begin
        r.eof <- true;
        false
      end
      else begin
        for i = 0 to k - 1 do
          match Bytes.get r.chunk i with
          | '\n' ->
            if r.discarding then begin
              r.discarding <- false;
              Queue.add `Too_long r.pending
            end
            else begin
              Queue.add (`Line (Buffer.contents r.acc)) r.pending;
              Buffer.clear r.acc
            end
          | c ->
            if not r.discarding then begin
              Buffer.add_char r.acc c;
              if Buffer.length r.acc > r.max_line then begin
                r.discarding <- true;
                Buffer.clear r.acc
              end
            end
        done;
        true
      end
    end

  (* Blocking: the next frame, or [None] at end of stream. *)
  let rec next r =
    match Queue.take_opt r.pending with
    | Some ev -> Some ev
    | None ->
      if r.eof then None
      else begin
        ignore (refill r ~block:true);
        next r
      end

  (* Every frame already available without blocking. *)
  let drain r =
    while refill r ~block:false do
      ()
    done;
    let out = List.of_seq (Queue.to_seq r.pending) in
    Queue.clear r.pending;
    out
end

(* --- serve loop ------------------------------------------------------------ *)

let serve t ~in_fd ~out_fd =
  let oc = Unix.out_channel_of_descr out_fd in
  let r = Reader.make in_fd ~max_line:t.config.max_request_bytes in
  let queue : Reader.event Queue.t = Queue.create () in
  let reply j = Json.emit_line oc j in
  let accept ev =
    if Queue.length queue >= t.config.queue_high_water then begin
      Obs.Metrics.incr (counter "serd.shed");
      (* A shed frame never reaches [handle_line], so it gets its own
         context here — the overloaded reply still carries a request id a
         client can quote back at the operator. *)
      let ctx = Obs.Ctx.create () in
      Obs.Log.emit ~ctx
        ~fields:[ ("pending", Json.int (Queue.length queue)) ]
        Obs.Log.Warn "serd.shed";
      reply
        (Protocol.error_response ~request_id:(Obs.Ctx.id ctx)
           Protocol.Overloaded
           (Printf.sprintf "request queue full (%d pending), request shed"
              (Queue.length queue)))
    end
    else Queue.add ev queue
  in
  let outcome = ref `Eof in
  let running = ref true in
  while !running do
    if Queue.is_empty queue then begin
      match Reader.next r with
      | None -> running := false
      | Some ev -> Queue.add ev queue
    end;
    if !running then begin
      (* Everything that piled up while the last request was served either
         fits the bounded queue or is shed right now. *)
      List.iter accept (Reader.drain r);
      t.queue_depth <- Queue.length queue;
      Obs.Metrics.set_gauge
        (Obs.Metrics.gauge (Obs.Hooks.metrics ()) "serd.queue_depth")
        (float_of_int (Queue.length queue));
      match Queue.pop queue with
      | `Too_long ->
        Obs.Metrics.incr (counter "serd.errors");
        reply
          (Protocol.error_response Protocol.Request_too_large
             (Printf.sprintf "request line exceeds %d bytes"
                t.config.max_request_bytes))
      | `Line line -> (
        match handle_line t line with
        | `Reply j -> reply j
        | `Shutdown j ->
          reply j;
          outcome := `Shutdown;
          running := false)
    end
  done;
  (* Answer anything still queued behind a shutdown so no accepted request
     goes silently unanswered. *)
  Queue.iter
    (fun ev ->
      match ev with
      | `Too_long | `Line _ ->
        reply
          (Protocol.error_response Protocol.Overloaded
             "daemon shutting down before this request was served"))
    queue;
  flush oc;
  !outcome
