(* service_smoke: CI gate for the serd daemon (dune build @service-smoke).

   Drives a real serd subprocess over its stdio transport through a
   scripted mixed session and asserts the robustness contract end to end:

   - one process survives, in order: malformed JSON, over-deep nesting, an
     over-long line, an invalid netlist, a whole-circuit analyze (miss),
     the same analyze again (cache hit, answered from the remembered
     sweep), a
     zero-budget analyze (partial, not a crash), an inline .bench
     payload, and an overload burst behind a sleep (shed, not buffered);
   - repeat queries are served from the warmed-engine cache: the final
     metrics dump shows analysis.topo.computed stuck at one per distinct
     circuit while the cache-hit counter grows with every repeat;
   - a second daemon kill -9'd mid-session leaves a checkpoint a third
     daemon resumes (stats.resumed = stats.total on the repeat query).

   A fourth daemon runs the observability acceptance session: with fault
   injection, a dump dir, a Prometheus file, and a trace file enabled, a
   slow request, an injected-quarantine request, and a zero-budget request
   each get a distinct server-minted request_id; the live stats op reports
   uptime / queue depth / cache residency, the dump op returns flight-
   recorder events correlated to all three ids, the trace written at
   shutdown holds one serd.request span per id (supervisor spans joined by
   the same request_id arg), the Prometheus exposition lints clean, and
   both incident dumps land in the dump dir named
   <reason>-<request_id>.json.  The stats op and the Prometheus file both
   report the heap (size and high-water mark, top >= size > 0).  A fifth
   daemon answers the stats op over a Unix socket.

   A latency loop over the cache-hit path feeds BENCH_service.json
   (p50/p99/mean latency, qps, cache hit rate, shed and partial counts,
   the observability session's figures), which is re-parsed after
   writing; the response transcript is kept as newline-delimited JSON in
   BENCH_service_session.jsonl and re-parsed with the same framing
   helpers serd itself uses.  Any failed check exits non-zero and fails
   the alias. *)

module Json = Obs.Json

let failures = ref 0
let checks = ref []

let check what ok =
  checks := (what, ok) :: !checks;
  if ok then Fmt.pr "ok: %s@." what
  else begin
    incr failures;
    Fmt.pr "FAIL: %s@." what
  end

(* --- JSON plumbing -------------------------------------------------------- *)

let jstr key v = Option.bind (Json.member key v) Json.to_string_value
let jnum key v = Option.bind (Json.member key v) Json.to_number
let status v = jstr "status" v

let error_code v =
  Option.bind (Json.member "error" v) (fun e -> jstr "code" e)

let stat key v =
  Option.bind (Json.member "stats" v) (fun s -> jnum key s)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i =
    i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1))
  in
  at 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let metric name v =
  Option.bind (Json.member "metrics" v) @@ fun m ->
  Option.bind (Json.member "counters" m) @@ fun c ->
  match Json.member name c with
  | Some j -> Json.to_number j
  | None -> Some 0.0 (* an untouched counter is absent from the snapshot *)

(* --- daemon subprocess ---------------------------------------------------- *)

type daemon = {
  pid : int;
  ic : in_channel;
  oc : out_channel;
  transcript : Buffer.t option;
}

let spawn ?transcript exe args =
  let to_d_read, to_d_write = Unix.pipe ~cloexec:false () in
  let from_d_read, from_d_write = Unix.pipe ~cloexec:false () in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: args))
      to_d_read from_d_write Unix.stderr
  in
  Unix.close to_d_read;
  Unix.close from_d_write;
  {
    pid;
    ic = Unix.in_channel_of_descr from_d_read;
    oc = Unix.out_channel_of_descr to_d_write;
    transcript;
  }

let send d v = Json.emit_line d.oc v

let send_raw d line =
  output_string d.oc line;
  output_char d.oc '\n';
  flush d.oc

let recv d =
  let line = input_line d.ic in
  (match d.transcript with
  | Some b ->
    Buffer.add_string b line;
    Buffer.add_char b '\n'
  | None -> ());
  match Json.parse line with
  | Ok v -> v
  | Error msg -> failwith (Printf.sprintf "unparseable response %S: %s" line msg)

let rpc d v =
  send d v;
  recv d

let wait d =
  close_out_noerr d.oc;
  close_in_noerr d.ic;
  snd (Unix.waitpid [] d.pid)

(* --- request builders ----------------------------------------------------- *)

let obj = List.map (fun (k, v) -> (k, v))

let analyze ?id ?sites ?budget_ms ?top_k ?inject ~format ~source () =
  let base =
    [
      ("op", Json.String "analyze");
      ( "circuit",
        Json.Obj
          [ ("format", Json.String format); ("source", Json.String source) ] );
    ]
  in
  let opt k f = function
    | None -> []
    | Some v -> [ (k, f v) ]
  in
  Json.Obj
    (obj
       (opt "id" Json.int id
       @ base
       @ opt "sites" (fun l -> Json.List (List.map Json.int l)) sites
       @ opt "budget_ms" (fun b -> Json.Number b) budget_ms
       @ opt "top_k" Json.int top_k
       @ opt "inject_faults" (fun l -> Json.List (List.map Json.int l)) inject))

let op ?id name fields =
  let id_f =
    match id with
    | None -> []
    | Some i -> [ ("id", Json.int i) ]
  in
  Json.Obj (id_f @ (("op", Json.String name) :: fields))

let tiny_bench =
  "INPUT(a)\nINPUT(b)\nINPUT(c)\nx = AND(a, b)\ny = OR(x, c)\nOUTPUT(y)\n"

let design_bench () =
  Bench_format.Printer.circuit_to_string
    (Circuit_gen.Random_dag.generate ~seed:1 Circuit_gen.Profiles.s5378)

(* --- the scripted session ------------------------------------------------- *)

let rm_rf_checkpoints dir =
  if Sys.file_exists dir then
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".ck" then Sys.remove (Filename.concat dir f))
      (Sys.readdir dir)

let () =
  (* A wedged daemon must fail CI, not hang it. *)
  ignore (Unix.alarm 240);
  let serd =
    if Array.length Sys.argv > 1 then Sys.argv.(1)
    else failwith "usage: service_smoke SERD_EXE"
  in
  let ck_a = "service_smoke_ck_a" and ck_b = "service_smoke_ck_b" in
  rm_rf_checkpoints ck_a;
  rm_rf_checkpoints ck_b;
  let transcript = Buffer.create 4096 in
  let burst = 12 and high_water = 4 in
  let d =
    spawn ~transcript serd
      [
        "--checkpoint-dir"; ck_a;
        "--queue-high-water"; string_of_int high_water;
        "--domains"; "1";
        "--max-request-bytes"; "2048";
      ]
  in

  (* 1. ping *)
  let r = rpc d (op ~id:1 "ping" []) in
  check "ping answers ok" (status r = Some "ok");
  check "ping echoes id" (jnum "id" r = Some 1.0);

  (* 2. malformed JSON -> typed parse error, daemon survives *)
  send_raw d "this is not json";
  let r = recv d in
  check "malformed JSON answers parse_error"
    (status r = Some "error" && error_code r = Some "parse_error");

  (* 3. over-deep nesting -> request_too_large *)
  send_raw d (String.make 80 '[' ^ "1" ^ String.make 80 ']');
  let r = recv d in
  check "over-deep nesting answers request_too_large"
    (status r = Some "error" && error_code r = Some "request_too_large");

  (* 4. over-long line -> request_too_large (streamed, never buffered) *)
  send_raw d (String.make 4000 ' ');
  let r = recv d in
  check "over-long line answers request_too_large"
    (status r = Some "error" && error_code r = Some "request_too_large");

  (* 5. invalid netlist -> typed error, daemon survives *)
  let r =
    rpc d (analyze ~id:5 ~format:"bench" ~source:"INPUT(broken" ())
  in
  check "invalid netlist answers invalid_netlist"
    (status r = Some "error" && error_code r = Some "invalid_netlist");

  (* 6. whole-circuit analyze: cold -> miss, complete, nothing resumed *)
  let r = rpc d (analyze ~id:6 ~format:"embedded" ~source:"s27" ~top_k:3 ()) in
  let total =
    match stat "total" r with
    | Some t -> int_of_float t
    | None -> 0
  in
  check "cold analyze completes" (status r = Some "ok");
  check "cold analyze is a cache miss" (jstr "cache" r = Some "miss");
  check "cold analyze covers the circuit" (total > 0);
  check "cold analyze resumed nothing" (stat "resumed" r = Some 0.0);

  (* 7. repeat analyze: warmed engine + its remembered sweep *)
  let r = rpc d (analyze ~id:7 ~format:"embedded" ~source:"s27" ()) in
  check "repeat analyze hits the engine cache" (jstr "cache" r = Some "hit");
  check "repeat analyze answers every site from the remembered sweep"
    (stat "resumed" r = Some (float_of_int total) && status r = Some "ok");

  (* 8. zero budget on an explicit site list: partial, not a crash *)
  let sites = List.init total Fun.id in
  let r =
    rpc d
      (analyze ~id:8 ~format:"embedded" ~source:"s27" ~sites ~budget_ms:0.0 ())
  in
  check "zero budget answers partial" (status r = Some "partial");
  check "zero budget reports the uncovered remainder"
    (Option.bind (Json.member "deadline" r) (jnum "remaining")
    = Some (float_of_int total));

  (* 9. inline .bench payload parses and analyzes *)
  let r = rpc d (analyze ~id:9 ~format:"bench" ~source:tiny_bench ()) in
  check "inline .bench analyze completes" (status r = Some "ok");

  (* 10. overload: a burst behind a sleep is shed, not buffered.  Shed
     responses are emitted the moment the queue overflows — i.e. while the
     sleep is still being served — so responses are classified by content,
     not arrival order. *)
  send d (op ~id:100 "sleep" [ ("seconds", Json.Number 0.3) ]);
  for i = 1 to burst do
    send d (op ~id:(100 + i) "ping" [])
  done;
  let slept = ref 0 and pongs = ref 0 and shed = ref 0 in
  for _ = 0 to burst do
    let r = recv d in
    match (status r, error_code r) with
    | Some "ok", _ ->
      if Json.member "slept" r <> None then incr slept else incr pongs
    | Some "error", Some "overloaded" -> incr shed
    | _ -> ()
  done;
  check "sleep completes" (!slept = 1);
  check "every burst request is answered" (!pongs + !shed = burst);
  check "some of the burst is served" (!pongs >= 1);
  check "the overflow is shed as overloaded"
    (!shed >= burst - (2 * high_water));

  (* 11. latency loop on the hot path *)
  let load = Service.Load.create () in
  let iterations = 50 in
  let t0 = Obs.Clock.monotonic_seconds () in
  for i = 1 to iterations do
    let q0 = Obs.Clock.monotonic_seconds () in
    let r = rpc d (analyze ~id:(1000 + i) ~format:"embedded" ~source:"s27" ()) in
    Service.Load.record load (Obs.Clock.monotonic_seconds () -. q0);
    if status r <> Some "ok" then
      check (Printf.sprintf "latency iteration %d" i) false
  done;
  let wall = Obs.Clock.monotonic_seconds () -. t0 in

  (* 12. the cache served the repeats: topo count stuck at one per circuit *)
  let m = rpc d (op "metrics" []) in
  let topo = metric "analysis.topo.computed" m in
  let hits = metric "analysis.cache.engine.hit" m in
  let misses = metric "analysis.cache.engine.miss" m in
  check "one topological sort per distinct circuit, despite the repeats"
    (topo = Some 2.0);
  check "the repeats were engine-cache hits"
    (match hits with
    | Some h -> h >= float_of_int iterations
    | None -> false);
  check "shed requests are metered"
    (match metric "serd.shed" m with
    | Some s -> int_of_float s = !shed
    | None -> false);
  check "deadline partials are metered"
    (match metric "serd.deadline_partial" m with
    | Some p -> p >= 1.0
    | None -> false);

  (* 13. clean shutdown *)
  let r = rpc d (op ~id:99 "shutdown" []) in
  check "shutdown is acknowledged" (status r = Some "ok");
  check "daemon exits cleanly on shutdown" (wait d = Unix.WEXITED 0);

  (* 14. kill -9 mid-session, then a fresh daemon resumes the checkpoint *)
  let d1 = spawn serd [ "--checkpoint-dir"; ck_b; "--domains"; "1" ] in
  let r = rpc d1 (analyze ~id:1 ~format:"embedded" ~source:"s27" ()) in
  check "victim daemon analyzes before the kill" (status r = Some "ok");
  Unix.kill d1.pid Sys.sigkill;
  check "kill -9 takes the victim down"
    (wait d1 = Unix.WSIGNALED Sys.sigkill);
  check "the checkpoint survived the kill"
    (Array.exists
       (fun f -> Filename.check_suffix f ".ck")
       (Sys.readdir ck_b));
  let d2 = spawn serd [ "--checkpoint-dir"; ck_b; "--domains"; "1" ] in
  let r = rpc d2 (analyze ~id:2 ~format:"embedded" ~source:"s27" ()) in
  check "restarted daemon serves the repeat query"
    (status r = Some "ok");
  check "restarted daemon resumes every site from the checkpoint"
    (stat "resumed" r = Some (float_of_int total)
    && stat "total" r = Some (float_of_int total));
  ignore (rpc d2 (op "shutdown" []));
  check "restarted daemon exits cleanly" (wait d2 = Unix.WEXITED 0);

  (* 15. observability session: every figure an operator relies on, end to
     end in one daemon — correlation ids on the wire, live stats, the
     flight-recorder dump, incident files, the trace, and Prometheus. *)
  let dump_dir = "service_smoke_dumps" in
  let prom_path = "service_smoke_prom.txt" in
  let trace_path = "service_smoke_trace.json" in
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ prom_path; trace_path ];
  if Sys.file_exists dump_dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat dump_dir f))
      (Sys.readdir dump_dir);
  let d3 =
    spawn serd
      [
        "--domains"; "1";
        "--allow-fault-injection";
        "--dump-dir"; dump_dir;
        "--prom-file"; prom_path;
        "--prom-interval-ms"; "100";
        "--trace"; trace_path;
      ]
  in
  let rid r = jstr "request_id" r in
  let r_slow = rpc d3 (op ~id:1 "sleep" [ ("seconds", Json.Number 0.15) ]) in
  check "slow request answers ok with a request_id"
    (status r_slow = Some "ok" && rid r_slow <> None);
  let r_q =
    rpc d3
      (analyze ~id:2 ~format:"embedded" ~source:"s27" ~sites:[ 0; 1; 2 ]
         ~inject:[ 0 ] ())
  in
  check "injected request quarantines exactly the injected site"
    (status r_q = Some "ok" && stat "quarantined" r_q = Some 1.0);
  let r_d =
    rpc d3 (analyze ~id:3 ~format:"embedded" ~source:"s27" ~budget_ms:0.0 ())
  in
  check "zero-budget request answers partial" (status r_d = Some "partial");
  let rid_slow = Option.value ~default:"?" (rid r_slow) in
  let rid_q = Option.value ~default:"?" (rid r_q) in
  let rid_d = Option.value ~default:"?" (rid r_d) in
  check "the three request ids are distinct"
    (rid_slow <> rid_q && rid_q <> rid_d && rid_slow <> rid_d);

  let s = rpc d3 (op ~id:4 "stats" []) in
  check "stats answers ok with its own request_id"
    (status s = Some "ok" && rid s <> None);
  check "stats reports a nonnegative uptime"
    (match jnum "uptime_seconds" s with
    | Some u -> u >= 0.0
    | None -> false);
  check "stats reports queue depth and served requests"
    (jnum "queue_depth" s <> None
    &&
    match jnum "requests" s with
    | Some n -> n >= 4.0
    | None -> false);
  check "stats meters the deadline partial" (jnum "deadline_partial" s = Some 1.0);
  check "stats reports a warmed engine resident"
    (Option.bind (Json.member "engine_cache" s) (jnum "resident") = Some 1.0);
  check "stats reports a populated recorder ring"
    (Option.bind (Json.member "recorder" s) (jnum "capacity") = Some 512.0
    &&
    match Option.bind (Json.member "recorder" s) (jnum "recorded") with
    | Some n -> n > 0.0
    | None -> false);

  let dmp = rpc d3 (op ~id:5 "dump" []) in
  let dump_events =
    Option.value ~default:[]
      (Option.bind (Json.member "recorder" dmp) @@ fun rec_ ->
       Option.bind (Json.member "events" rec_) Json.to_list)
  in
  let has_event ~name ~rid =
    List.exists
      (fun e -> jstr "event" e = Some name && jstr "request_id" e = Some rid)
      dump_events
  in
  check "dump correlates the quarantine to its request id"
    (has_event ~name:"supervisor.quarantine" ~rid:rid_q);
  check "dump correlates the deadline expiry to its request id"
    (has_event ~name:"supervisor.deadline_expired" ~rid:rid_d);
  check "dump correlates the slow request's completion log"
    (has_event ~name:"serd.request" ~rid:rid_slow);

  (* The heap figures, once a design-sized sweep (s5378-profile, about
     3,000 sites) has put something in the major heap: an s27-only
     session allocates too little for a minor collection, and the major
     heap is still empty. *)
  let r_design =
    rpc d3 (analyze ~id:6 ~format:"bench" ~source:(design_bench ()) ())
  in
  check "a design-sized analyze completes" (status r_design = Some "ok");
  let s_mem = rpc d3 (op ~id:7 "stats" []) in
  let heap_ok heap top =
    match (heap, top) with
    | Some heap, Some top -> heap > 0.0 && top >= heap
    | _ -> false
  in
  check "stats reports the heap: positive, top_heap_mb >= heap_mb"
    (let memory k = Option.bind (Json.member "memory" s_mem) (jnum k) in
     heap_ok (memory "heap_mb") (memory "top_heap_mb"));

  let r = rpc d3 (op ~id:9 "shutdown" []) in
  check "observability daemon acknowledges shutdown with a request_id"
    (status r = Some "ok" && rid r <> None);
  check "observability daemon exits cleanly" (wait d3 = Unix.WEXITED 0);

  (* The daemon wrote the trace and the final Prometheus exposition on the
     way out; the incident dumps landed as the requests completed. *)
  let tevents =
    match Json.parse_file trace_path with
    | Error msg ->
      check (Printf.sprintf "trace file re-parses (%s)" msg) false;
      []
    | Ok trace ->
      Option.value ~default:[]
        (Option.bind (Json.member "traceEvents" trace) Json.to_list)
  in
  let span_with ~name ~rid =
    List.exists
      (fun e ->
        jstr "ph" e = Some "B"
        && jstr "name" e = Some name
        && Option.bind (Json.member "args" e) (jstr "request_id") = Some rid)
      tevents
  in
  check "trace has one serd.request span per request id"
    (List.for_all
       (fun r -> span_with ~name:"serd.request" ~rid:r)
       [ rid_slow; rid_q; rid_d ]);
  check "supervisor spans join the trace through the request id"
    (span_with ~name:"supervisor.sweep" ~rid:rid_q
    && span_with ~name:"supervisor.sweep" ~rid:rid_d);
  let prom = read_file prom_path in
  let prom_ok = Obs.Prom.lint prom = Ok () in
  check "prometheus exposition lints clean" prom_ok;
  check "prometheus exposition carries the serd counters"
    (contains prom "serd_requests");
  let gauge name =
    List.find_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ n; v ] when n = name -> float_of_string_opt v
        | _ -> None)
      (String.split_on_char '\n' prom)
  in
  check "prometheus exposition reports the heap: positive, top >= size"
    (heap_ok (gauge "serd_memory_heap_mb") (gauge "serd_memory_top_heap_mb"));
  let dump_file reason r =
    Filename.concat dump_dir (Printf.sprintf "%s-%s.json" reason r)
  in
  check "quarantine incident dumped under its request id"
    (Sys.file_exists (dump_file "quarantine" rid_q)
    && Result.is_ok (Json.parse_file (dump_file "quarantine" rid_q)));
  check "deadline incident dumped under its request id"
    (Sys.file_exists (dump_file "deadline" rid_d)
    && Result.is_ok (Json.parse_file (dump_file "deadline" rid_d)));

  (* 16. the stats op answers the same over a Unix socket *)
  let sock_path = "service_smoke.sock" in
  (try Sys.remove sock_path with Sys_error _ -> ());
  let d4 = spawn serd [ "--socket"; sock_path; "--domains"; "1" ] in
  let rec wait_for_socket n =
    if not (Sys.file_exists sock_path) then
      if n = 0 then failwith "socket never appeared"
      else begin
        Unix.sleepf 0.05;
        wait_for_socket (n - 1)
      end
  in
  wait_for_socket 100;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_UNIX sock_path);
  let sic = Unix.in_channel_of_descr sock in
  let soc = Unix.out_channel_of_descr sock in
  let sock_rpc v =
    Json.emit_line soc v;
    match Json.parse (input_line sic) with
    | Ok r -> r
    | Error msg -> failwith (Printf.sprintf "unparseable socket reply: %s" msg)
  in
  let r = sock_rpc (op ~id:1 "stats" []) in
  check "socket stats round-trips with live figures"
    (status r = Some "ok"
    && jnum "uptime_seconds" r <> None
    && rid r <> None);
  let r = sock_rpc (op ~id:2 "shutdown" []) in
  check "socket shutdown is acknowledged" (status r = Some "ok");
  (try Unix.close sock with Unix.Unix_error _ -> ());
  check "socket daemon exits cleanly" (wait d4 = Unix.WEXITED 0);

  (* --- artifacts ---------------------------------------------------------- *)

  let session_path = "BENCH_service_session.jsonl" in
  let oc = open_out session_path in
  output_string oc (Buffer.contents transcript);
  close_out oc;
  let frames = Json.parse_lines (Buffer.contents transcript) in
  check "every transcript frame re-parses"
    (frames <> [] && List.for_all Result.is_ok frames);

  let cache_hit_rate =
    match (hits, misses) with
    | Some h, Some m when h +. m > 0.0 -> h /. (h +. m)
    | _ -> 0.0
  in
  let artifact_path = "BENCH_service.json" in
  let artifact =
    Service.Load.summary_json load ~wall_seconds:wall
      ~extra:
        [
          ("benchmark", Json.String "service");
          ( "cache",
            Json.Obj
              [
                ("hit", Json.Number (Option.value hits ~default:0.0));
                ("miss", Json.Number (Option.value misses ~default:0.0));
                ("hit_rate", Json.Number cache_hit_rate);
              ] );
          ("shed", Json.int !shed);
          ( "observability",
            Json.Obj
              [
                ( "request_ids",
                  Json.Obj
                    [
                      ("slow", Json.String rid_slow);
                      ("quarantine", Json.String rid_q);
                      ("deadline", Json.String rid_d);
                    ] );
                ("recorder_events", Json.int (List.length dump_events));
                ("trace_events", Json.int (List.length tevents));
                ("prom_lint_ok", Json.Bool prom_ok);
              ] );
          ( "checks",
            Json.List
              (List.rev_map
                 (fun (what, ok) ->
                   Json.Obj
                     [ ("name", Json.String what); ("ok", Json.Bool ok) ])
                 !checks) );
        ]
  in
  Json.to_file ~pretty:true artifact_path artifact;
  (match Json.parse_file artifact_path with
  | Error msg -> check (Printf.sprintf "artifact re-parses (%s)" msg) false
  | Ok v ->
    check "artifact re-parses with the latency summary"
      (jnum "qps" v <> None
      && Option.bind (Json.member "latency_ms" v) (jnum "p50") <> None
      && Option.bind (Json.member "latency_ms" v) (jnum "p99") <> None));
  Fmt.pr "wrote %s and %s@." artifact_path session_path;

  if !failures > 0 then begin
    Fmt.pr "@.%d service smoke check(s) failed@." !failures;
    exit 1
  end
  else Fmt.pr "@.service smoke: all %d checks passed@." (List.length !checks)
