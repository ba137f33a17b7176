(* In-process tests for the serd request engine (Service.Server): typed
   decode rejections, per-request fault isolation, the warmed-engine
   cache, deadline partials, the serve loop's overload shedding, and
   checkpoint resume across a server restart.

   handle_line is the unit seam — everything except the transport; the
   serve-loop tests run the real loop over a socketpair against a client
   on a second domain. *)

module Json = Obs.Json
module Server = Service.Server

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let jstr key v = Option.bind (Json.member key v) Json.to_string_value
let jnum key v = Option.bind (Json.member key v) Json.to_number
let status v = Option.value ~default:"?" (jstr "status" v)

let error_code v =
  Option.value ~default:"?"
    (Option.bind (Json.member "error" v) (fun e -> jstr "code" e))

let stat key v =
  match Option.bind (Json.member "stats" v) (fun s -> jnum key s) with
  | Some x -> int_of_float x
  | None -> -1

(* Every test gets a fresh live registry: the cache counters and shed
   counters under test are process-global. *)
let fresh_registry () =
  let m = Obs.Metrics.create () in
  Obs.Hooks.set_metrics m;
  m

let reply server line =
  match Server.handle_line server line with
  | `Reply r -> r
  | `Shutdown _ -> Alcotest.fail "unexpected shutdown"

let analyze_s27 = {|{"op":"analyze","circuit":{"format":"embedded","source":"s27"}}|}

(* --- decode and fault isolation ------------------------------------------- *)

let test_typed_rejections () =
  ignore (fresh_registry ());
  let server = Server.create Server.default_config in
  let expect name code line =
    let r = reply server line in
    check_string (name ^ " status") "error" (status r);
    check_string (name ^ " code") code (error_code r)
  in
  expect "malformed JSON" "parse_error" "this is not json";
  expect "non-object" "bad_request" "[1,2,3]";
  expect "missing op" "bad_request" {|{"id":1}|};
  expect "unknown op" "unknown_op" {|{"op":"frobnicate"}|};
  expect "bad circuit" "bad_request" {|{"op":"analyze"}|};
  expect "bad format" "bad_request"
    {|{"op":"analyze","circuit":{"format":"vhdl","source":""}}|};
  expect "negative budget" "bad_request"
    {|{"op":"analyze","circuit":{"format":"embedded","source":"s27"},"budget_ms":-1}|};
  expect "broken netlist" "invalid_netlist"
    {|{"op":"analyze","circuit":{"format":"bench","source":"INPUT(broken"}}|};
  expect "unknown embedded" "invalid_netlist"
    {|{"op":"analyze","circuit":{"format":"embedded","source":"nope"}}|};
  expect "site out of range" "bad_request"
    {|{"op":"analyze","circuit":{"format":"embedded","source":"s27"},"sites":[99999]}|};
  (* The server still serves after every rejection. *)
  check_string "still alive" "ok" (status (reply server {|{"op":"ping"}|}))

(* The duplicate INPUT on line 2 is a netlist error, the unclosed gate
   on line 3 a syntax error: the reply names the syntax error, as it did
   when the whole file was parsed before elaboration began. *)
let test_parse_error_beats_netlist_error () =
  ignore (fresh_registry ());
  let server = Server.create Server.default_config in
  let r =
    reply server
      {|{"op":"analyze","circuit":{"format":"bench","source":"INPUT(a)\nINPUT(a)\ny = NOT(a"}}|}
  in
  check_string "status" "error" (status r);
  check_string "code" "invalid_netlist" (error_code r);
  let message =
    Option.value ~default:"" (Option.bind (Json.member "error" r) (jstr "message"))
  in
  check_bool message true (String.starts_with ~prefix:"parse error at line 3" message)

let test_id_echo () =
  ignore (fresh_registry ());
  let server = Server.create Server.default_config in
  let r = reply server {|{"id":42,"op":"ping"}|} in
  check_bool "id echoed" true (jnum "id" r = Some 42.0);
  (* Echoed even when the request itself is rejected. *)
  let r = reply server {|{"id":43,"op":"frobnicate"}|} in
  check_bool "id echoed on error" true (jnum "id" r = Some 43.0)

let test_request_limits () =
  ignore (fresh_registry ());
  let server =
    Server.create
      { Server.default_config with max_source_bytes = 16; max_json_depth = 4 }
  in
  let r =
    reply server
      {|{"op":"analyze","circuit":{"format":"bench","source":"INPUT(a)\nINPUT(b)\nx = AND(a, b)\nOUTPUT(x)\n"}}|}
  in
  check_string "oversized source" "request_too_large" (error_code r);
  let deep = {|{"op":"ping","x":[[[[[[1]]]]]]}|} in
  check_string "over-deep request" "request_too_large"
    (error_code (reply server deep))

(* --- cache ----------------------------------------------------------------- *)

let test_cache_hit_skips_analysis () =
  let m = fresh_registry () in
  let server =
    Server.create { Server.default_config with allow_fault_injection = true }
  in
  let analyze_top =
    {|{"op":"analyze","circuit":{"format":"embedded","source":"s27"},"top_k":5}|}
  in
  let blocks () =
    Obs.Metrics.counter_value (Obs.Metrics.snapshot m) "epp.batch.blocks"
  in
  let r1 = reply server analyze_top in
  check_string "cold analyze" "ok" (status r1);
  check_bool "cold is a miss" true (jstr "cache" r1 = Some "miss");
  check_int "the miss swept every site" 0 (stat "resumed" r1);
  let swept = blocks () in
  let r2 = reply server analyze_top in
  check_bool "repeat is a hit" true (jstr "cache" r2 = Some "hit");
  check_bool "same fingerprint" true
    (jstr "fingerprint" r1 = jstr "fingerprint" r2);
  let field k r = Option.map Json.to_string (Json.member k r) in
  check_bool "same summary, byte for byte" true
    (field "summary" r1 = field "summary" r2 && field "summary" r1 <> None);
  check_bool "same top, byte for byte" true
    (field "top" r1 = field "top" r2 && field "top" r1 <> None);
  check_int "the hit answers from the remembered sweep" (stat "total" r2)
    (stat "resumed" r2);
  check_int "the hit runs no batch block" swept (blocks ());
  let s = Obs.Metrics.snapshot m in
  check_int "one topological sort despite the repeat" 1
    (Obs.Metrics.counter_value s "analysis.topo.computed");
  check_int "hit metered" 1
    (Obs.Metrics.counter_value s "analysis.cache.engine.hit");
  check_int "miss metered" 1
    (Obs.Metrics.counter_value s "analysis.cache.engine.miss");
  (* A fault drill on the resident engine still runs the ladder, and does
     not replace the remembered sweep. *)
  let drill =
    reply server
      {|{"op":"analyze","circuit":{"format":"embedded","source":"s27"},"inject_faults":[0,5]}|}
  in
  check_int "the drill quarantines its sites" 2 (stat "quarantined" drill);
  check_int "the drill resumes nothing" 0 (stat "resumed" drill);
  let r3 = reply server analyze_top in
  check_bool "after the drill, the same summary" true
    (field "summary" r3 = field "summary" r1);
  check_int "after the drill, nothing quarantined" 0 (stat "quarantined" r3)

(* The reply's top is the head of the full ranking: P_sensitized
   descending, site id ascending, whatever the k. *)
let test_top_is_sorted_prefix () =
  ignore (fresh_registry ());
  let server = Server.create Server.default_config in
  let c = Circuit_gen.Embedded.s27 () in
  let engine = Epp.Epp_engine.create c in
  let ranked =
    List.sort
      (fun (a : Epp.Epp_engine.site_result) b ->
        compare (b.p_sensitized, a.site) (a.p_sensitized, b.site))
      (Epp.Ser_estimator.analyze_all engine)
  in
  List.iter
    (fun k ->
      let r =
        reply server
          (Printf.sprintf
             {|{"op":"analyze","circuit":{"format":"embedded","source":"s27"},"top_k":%d}|}
             k)
      in
      let top =
        match Json.member "top" r with
        | Some (Json.List l) ->
          List.map
            (fun e ->
              ( int_of_float (Option.get (jnum "site" e)),
                Option.get (jnum "p_sensitized" e) ))
            l
        | _ -> Alcotest.fail "no top in the reply"
      in
      let expected =
        List.filteri (fun i _ -> i < k) ranked
        |> List.map (fun (r : Epp.Epp_engine.site_result) -> (r.site, r.p_sensitized))
      in
      check_bool (Printf.sprintf "top %d equals the full sort's head" k) true
        (top = expected))
    [ 0; 1; 5; 16; 17; 40 ]

let test_cache_eviction () =
  let m = fresh_registry () in
  let server =
    Server.create { Server.default_config with cache_capacity = 1 }
  in
  let analyze src =
    ignore
      (reply server
         (Printf.sprintf
            {|{"op":"analyze","circuit":{"format":"embedded","source":"%s"}}|}
            src))
  in
  (* Alternating two circuits through a one-slot cache: every request
     evicts the other, so no hit is ever served. *)
  analyze "s27";
  analyze "c17";
  analyze "s27";
  analyze "c17";
  let s = Obs.Metrics.snapshot m in
  check_int "no hits through a one-slot cache" 0
    (Obs.Metrics.counter_value s "analysis.cache.engine.hit");
  check_int "every request missed" 4
    (Obs.Metrics.counter_value s "analysis.cache.engine.miss")

(* --- deadlines ------------------------------------------------------------- *)

let test_zero_budget_partial () =
  ignore (fresh_registry ());
  let server = Server.create Server.default_config in
  let r =
    reply server
      {|{"op":"analyze","circuit":{"format":"embedded","source":"s27"},"sites":[0,1,2,3],"budget_ms":0}|}
  in
  check_string "partial, not an error" "partial" (status r);
  check_int "nothing analyzed" 0 (stat "total" r);
  check_bool "remainder reported" true
    (Option.bind (Json.member "deadline" r) (jnum "remaining") = Some 4.0);
  (* The config-level default budget applies when the request sets none. *)
  let strict =
    Server.create { Server.default_config with default_budget_ms = Some 0.0 }
  in
  let r =
    reply strict
      {|{"op":"analyze","circuit":{"format":"embedded","source":"s27"},"sites":[0,1]}|}
  in
  check_string "default budget applies" "partial" (status r);
  (* And a per-request budget overrides it. *)
  let r =
    reply strict
      {|{"op":"analyze","circuit":{"format":"embedded","source":"s27"},"sites":[0,1],"budget_ms":60000}|}
  in
  check_string "request budget overrides the default" "ok" (status r)

(* --- restart / resume ------------------------------------------------------ *)

let test_restart_resumes_checkpoint () =
  ignore (fresh_registry ());
  let dir = Filename.temp_file "serprop_serd" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let config = { Server.default_config with checkpoint_dir = Some dir } in
  let server1 = Server.create config in
  let r1 = reply server1 analyze_s27 in
  check_string "first server analyzes" "ok" (status r1);
  check_int "nothing resumed cold" 0 (stat "resumed" r1);
  let total = stat "total" r1 in
  (* A new server (fresh cache, same checkpoint dir) — the crash-restart
     shape without the subprocess. *)
  let server2 = Server.create config in
  let r2 = reply server2 analyze_s27 in
  check_string "second server answers" "ok" (status r2);
  check_int "every site replayed from the checkpoint" total (stat "resumed" r2);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* A checkpoint that records a site on the per-site kernel rung (step
   "k", written by older versions) is corrupt to this daemon: it drops the
   file and sweeps afresh instead of refusing to serve. *)
let test_kernel_rung_checkpoint_reswept () =
  let m = fresh_registry () in
  let dir = Filename.temp_file "serprop_serd" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let config = { Server.default_config with checkpoint_dir = Some dir } in
  let r1 = reply (Server.create config) analyze_s27 in
  check_string "first server analyzes" "ok" (status r1);
  let total = stat "total" r1 in
  let ck =
    match Sys.readdir dir with
    | [| f |] -> Filename.concat dir f
    | _ -> Alcotest.fail "expected one checkpoint file"
  in
  let lines = In_channel.with_open_text ck In_channel.input_lines in
  let rewrote = ref false in
  let lines =
    List.map
      (fun line ->
        match String.split_on_char ' ' line with
        | "ok" :: site :: "b" :: rest when not !rewrote ->
          rewrote := true;
          String.concat " " ("ok" :: site :: "k" :: rest)
        | _ -> line)
      lines
  in
  check_bool "an entry was retagged" true !rewrote;
  Out_channel.with_open_text ck (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines);
  let r2 = reply (Server.create config) analyze_s27 in
  check_string "second server answers" "ok" (status r2);
  check_int "nothing replayed" 0 (stat "resumed" r2);
  check_int "every site re-swept" total (stat "batch_ok" r2);
  check_int "the snapshot was rejected" 1
    (Obs.Metrics.counter_value (Obs.Metrics.snapshot m) "serd.checkpoint_rejected");
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

let test_shutdown_ack () =
  ignore (fresh_registry ());
  let server = Server.create Server.default_config in
  match Server.handle_line server {|{"op":"shutdown"}|} with
  | `Shutdown r -> check_string "acknowledged" "ok" (status r)
  | `Reply _ -> Alcotest.fail "expected a shutdown"

(* --- introspection --------------------------------------------------------- *)

let test_request_ids () =
  ignore (fresh_registry ());
  let server = Server.create Server.default_config in
  let rid r = jstr "request_id" r in
  let r1 = reply server {|{"op":"ping"}|} in
  let r2 = reply server {|{"op":"ping"}|} in
  let r3 = reply server "this is not json" in
  check_bool "every reply carries a request_id" true
    (rid r1 <> None && rid r2 <> None && rid r3 <> None);
  check_bool "request ids are distinct per frame" true
    (rid r1 <> rid r2 && rid r2 <> rid r3 && rid r1 <> rid r3)

let test_stats_op () =
  ignore (fresh_registry ());
  let server = Server.create Server.default_config in
  ignore (reply server analyze_s27);
  let r = reply server {|{"id":7,"op":"stats"}|} in
  check_string "stats answers ok" "ok" (status r);
  check_bool "id echoed" true (jnum "id" r = Some 7.0);
  check_bool "uptime is nonnegative" true
    (match jnum "uptime_seconds" r with
    | Some u -> u >= 0.0
    | None -> false);
  check_bool "queue depth reported" true (jnum "queue_depth" r <> None);
  check_bool "requests counted" true
    (match jnum "requests" r with
    | Some n -> n >= 1.0
    | None -> false);
  check_bool "warmed engine resident" true
    (Option.bind (Json.member "engine_cache" r) (jnum "resident") = Some 1.0);
  check_bool "recorder figures reported" true
    (Option.bind (Json.member "recorder" r) (jnum "capacity")
     = Some (float_of_int Obs.Recorder.capacity)
    &&
    match Option.bind (Json.member "recorder" r) (jnum "recorded") with
    | Some n -> n > 0.0
    | None -> false);
  let memory k = Option.bind (Json.member "memory" r) (jnum k) in
  check_bool "heap reported, positive, under its high-water mark" true
    (match (memory "heap_mb", memory "top_heap_mb") with
    | Some heap, Some top -> heap > 0.0 && top >= heap
    | _ -> false)

let test_dump_op () =
  ignore (fresh_registry ());
  Obs.Recorder.clear ();
  let server = Server.create Server.default_config in
  let r1 = reply server {|{"op":"ping"}|} in
  let rid1 = Option.value ~default:"?" (jstr "request_id" r1) in
  let r = reply server {|{"op":"dump"}|} in
  check_string "dump answers ok" "ok" (status r);
  let events =
    Option.value ~default:[]
      (Option.bind (Json.member "recorder" r) @@ fun rec_ ->
       Option.bind (Json.member "events" rec_) Json.to_list)
  in
  check_bool "the ping's completion event is in the dump, correlated" true
    (List.exists
       (fun e ->
         jstr "event" e = Some "serd.request" && jstr "request_id" e = Some rid1)
       events)

(* --- edit ------------------------------------------------------------------ *)

(* Two disjoint blocks, so a buffer insertion in block A provably leaves
   block-B sites clean and the edit response must show spliced results. *)
let two_blocks_bench =
  {|{"op":"analyze","circuit":{"format":"bench","source":"INPUT(a1)\nINPUT(a2)\nINPUT(b1)\nINPUT(b2)\nga1 = AND(a1, a2)\nga2 = NOT(ga1)\ngb1 = OR(b1, b2)\ngb2 = NOT(gb1)\nOUTPUT(ga2)\nOUTPUT(gb2)\n"}}|}

let edit_req ~fp ~kind ~target =
  Printf.sprintf
    {|{"op":"edit","circuit":{"format":"fingerprint","source":"%s"},"edit":{"kind":"%s","target":"%s"}}|}
    fp kind target

let incr_field key r = Option.bind (Json.member "incremental" r) (jnum key)

let test_edit_op () =
  ignore (fresh_registry ());
  let server = Server.create Server.default_config in
  let r0 = reply server two_blocks_bench in
  check_string "base analyze" "ok" (status r0);
  let fp = Option.value ~default:"?" (jstr "fingerprint" r0) in
  let r1 = reply server (edit_req ~fp ~kind:"buffer" ~target:"ga1") in
  check_string "edit answers ok" "ok" (status r1);
  check_bool "base engine was resident" true (jstr "cache" r1 = Some "hit");
  check_bool "base fingerprint echoed" true
    (jstr "base_fingerprint" r1 = Some fp);
  let fp1 = Option.value ~default:"?" (jstr "fingerprint" r1) in
  check_bool "edit mints a fresh fingerprint" true (fp1 <> fp && fp1 <> "?");
  check_bool "edit echoed" true
    (match Json.member "edit" r1 with
    | Some e -> jstr "kind" e = Some "buffer" && jstr "target" e = Some "ga1"
    | None -> false);
  check_bool "some sites re-swept" true
    (match incr_field "dirty_sites" r1 with Some n -> n > 0.0 | None -> false);
  check_bool "block-B results spliced from the base sweep" true
    (match incr_field "clean_reused" r1 with Some n -> n > 0.0 | None -> false);
  check_bool "dirty fraction strictly partial" true
    (match incr_field "dirty_fraction" r1 with
    | Some f -> f > 0.0 && f < 1.0
    | None -> false);
  (* Chaining: the post-edit engine is resident under fp1 and its complete
     outcome was remembered, so a second edit splices again. *)
  let r2 = reply server (edit_req ~fp:fp1 ~kind:"buffer" ~target:"gb1") in
  check_string "chained edit ok" "ok" (status r2);
  check_bool "chained edit splices too" true
    (match incr_field "clean_reused" r2 with Some n -> n > 0.0 | None -> false);
  (* Introspection reflects the edits. *)
  let s = reply server {|{"op":"stats"}|} in
  check_bool "stats counts the edits" true (jnum "edits" s = Some 2.0);
  check_bool "stats reports the incremental sweeps" true
    (match incr_field "dirty_sites" s, incr_field "clean_reused" s with
    | Some d, Some r -> d > 0.0 && r > 0.0
    | _ -> false)

(* Triplicating the same signal twice used to redefine the first round's
   replicas and voter ([ga1#tmr1] "driven twice") and answer
   invalid_netlist; the second round now gets suffixed helper names. *)
let test_edit_tmr_twice () =
  ignore (fresh_registry ());
  let server = Server.create Server.default_config in
  let fp = Option.value ~default:"?" (jstr "fingerprint" (reply server two_blocks_bench)) in
  let r1 = reply server (edit_req ~fp ~kind:"tmr" ~target:"ga1") in
  check_string "first tmr ok" "ok" (status r1);
  let fp1 = Option.value ~default:"?" (jstr "fingerprint" r1) in
  let r2 = reply server (edit_req ~fp:fp1 ~kind:"tmr" ~target:"ga1") in
  check_string "second tmr of the same signal ok" "ok" (status r2);
  let fp2 = Option.value ~default:"?" (jstr "fingerprint" r2) in
  check_bool "second tmr mints a fresh fingerprint" true (fp2 <> fp1 && fp2 <> "?");
  let r3 = reply server (edit_req ~fp:fp2 ~kind:"tmr" ~target:"ga1") in
  check_string "third tmr of the same signal ok" "ok" (status r3)

(* A zero-budget edit answers partial, and its deadline object keeps the
   protocol's count: the spliced clean sites are the analyzed ones, and
   analyzed + remaining is the post-edit node count. *)
let test_edit_zero_budget_partial () =
  ignore (fresh_registry ());
  let server = Server.create Server.default_config in
  let c = Circuit_gen.Random_dag.generate ~seed:3 Circuit_gen.Profiles.s1196 in
  let source = Bench_format.Printer.circuit_to_string c in
  let r0 =
    reply server
      (Json.to_string
         (Json.Obj
            [
              ("op", Json.String "analyze");
              ( "circuit",
                Json.Obj
                  [ ("format", Json.String "bench"); ("source", Json.String source) ] );
            ]))
  in
  check_string "base analyze" "ok" (status r0);
  let fp = Option.value ~default:"?" (jstr "fingerprint" r0) in
  (* the lowest-id gate of the circuit serd parsed *)
  let parsed = Bench_format.Parser.parse_string ~name:"<request>" source in
  let gate =
    List.find (Netlist.Circuit.is_gate parsed)
      (List.init (Netlist.Circuit.node_count parsed) Fun.id)
  in
  let _, d = Netlist.Transform.triplicate_delta parsed ~nodes:[ gate ] in
  let r =
    reply server
      (Printf.sprintf
         {|{"op":"edit","circuit":{"format":"fingerprint","source":"%s"},"edit":{"kind":"tmr","target":"%s"},"budget_ms":0}|}
         fp
         (Netlist.Circuit.node_name parsed gate))
  in
  check_string "partial, not an error" "partial" (status r);
  let deadline key =
    match Option.bind (Json.member "deadline" r) (jnum key) with
    | Some x -> int_of_float x
    | None -> -1
  in
  check_bool "clean sites spliced" true (stat "resumed" r > 0);
  check_int "analyzed = entries returned" (stat "total" r) (deadline "analyzed");
  check_int "analyzed + remaining = post-edit node count"
    (Netlist.Circuit.node_count (Netlist.Delta.after d))
    (deadline "analyzed" + deadline "remaining")

let test_edit_rejections () =
  ignore (fresh_registry ());
  let server = Server.create Server.default_config in
  let expect name code line =
    let r = reply server line in
    check_string (name ^ " status") "error" (status r);
    check_string (name ^ " code") code (error_code r)
  in
  (* Fingerprints name resident engines; an unknown one is a typed reject,
     not a parse attempt. *)
  expect "non-resident fingerprint" "bad_request"
    (edit_req ~fp:"deadbeef" ~kind:"buffer" ~target:"x");
  ignore (reply server two_blocks_bench);
  let fp =
    Option.value ~default:"?" (jstr "fingerprint" (reply server two_blocks_bench))
  in
  expect "unknown target" "bad_request"
    (edit_req ~fp ~kind:"buffer" ~target:"nope");
  expect "unknown edit kind" "bad_request"
    (edit_req ~fp ~kind:"frobnicate" ~target:"ga1");
  expect "de morgan on a NOT" "bad_request"
    (edit_req ~fp ~kind:"de_morgan" ~target:"ga2");
  expect "missing edit object" "bad_request"
    (Printf.sprintf
       {|{"op":"edit","circuit":{"format":"fingerprint","source":"%s"}}|} fp);
  (* And the fingerprint format stays analyze-only for unknown prints. *)
  expect "analyze by unknown fingerprint" "bad_request"
    {|{"op":"analyze","circuit":{"format":"fingerprint","source":"feedface"}}|};
  check_string "still alive" "ok" (status (reply server {|{"op":"ping"}|}))

let test_fault_injection_gate () =
  ignore (fresh_registry ());
  let inject_req =
    {|{"op":"analyze","circuit":{"format":"embedded","source":"s27"},"sites":[0,1,2],"inject_faults":[0]}|}
  in
  (* Default config: the field is an operational hazard, rejected typed. *)
  let server = Server.create Server.default_config in
  let r = reply server inject_req in
  check_string "injection rejected without the flag" "bad_request"
    (error_code r);
  (* Opted in: the injected site runs the full ladder into quarantine, and
     the incident is correlated to the reply's request id in the ring. *)
  Obs.Recorder.clear ();
  let server =
    Server.create { Server.default_config with allow_fault_injection = true }
  in
  let r = reply server inject_req in
  check_string "injected analyze still answers ok" "ok" (status r);
  check_int "exactly the injected site quarantined" 1 (stat "quarantined" r);
  check_int "the others analyzed" 2 (stat "batch_ok" r);
  let rid = Option.value ~default:"?" (jstr "request_id" r) in
  check_bool "quarantine recorded under the reply's request id" true
    (List.exists
       (fun e ->
         e.Obs.Recorder.event = "supervisor.quarantine"
         && e.Obs.Recorder.request_id = Some rid)
       (Obs.Recorder.dump ()))

(* --- the serve loop over a socketpair -------------------------------------- *)

(* --- signal probabilities and resident memory ----------------------------- *)

module Builder = Netlist.Builder
module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module Transform = Netlist.Transform

let s1196 seed = Circuit_gen.Random_dag.generate ~seed Circuit_gen.Profiles.s1196

let bench_analyze text =
  Json.to_string
    (Json.Obj
       [
         ("op", Json.String "analyze");
         ("circuit", Json.Obj [ ("format", Json.String "bench"); ("source", Json.String text) ]);
         ("top_k", Json.int 62);
       ])

let chained_edit ~fp ~kind ~target =
  Json.to_string
    (Json.Obj
       [
         ("op", Json.String "edit");
         ("circuit", Json.Obj [ ("format", Json.String "fingerprint"); ("source", Json.String fp) ]);
         ("edit", Json.Obj [ ("kind", Json.String kind); ("target", Json.String target) ]);
         ("top_k", Json.int 62);
       ])

let fingerprint r = Option.value ~default:"?" (jstr "fingerprint" r)

(* The reply's sp object against the fixpoint [Sp_sequential.compute]
   runs on the same circuit. *)
let check_sp what (o : Sigprob.Sp_sequential.outcome) r =
  match Json.member "sp" r with
  | None -> Alcotest.failf "%s: no sp object" what
  | Some sp ->
    check_bool (what ^ ": converged") true
      (Json.member "converged" sp = Some (Json.Bool o.converged));
    check_bool (what ^ ": iterations") true (jnum "iterations" sp = Some (float o.iterations));
    check_bool (what ^ ": residual, bit for bit") true (jnum "residual" sp = Some o.residual)

(* fingerprint, summary and top as serialized, digested: the parent's
   replies (before they carried sp) read the pinned values below. *)
let reply_digest r =
  let field k = Option.fold ~none:"" ~some:Json.to_string (Json.member k r) in
  Digest.to_hex (Digest.string (String.concat "\n" [ field "fingerprint"; field "summary"; field "top" ]))

let test_sp_object () =
  ignore (fresh_registry ());
  let server = Server.create Server.default_config in
  let parsed text = Bench_format.Parser.parse_string ~name:"<request>" text in
  let capped_text = Bench_format.Printer.circuit_to_string (s1196 4) in
  let capped = reply server (bench_analyze capped_text) in
  check_string "s1196:4 analyzed" "ok" (status capped);
  (* a period-2 oscillation: the fixpoint stops at its cap, residual
     0.625 to six places *)
  let o4 = Sigprob.Sp_sequential.compute (parsed capped_text) in
  check_bool "s1196:4 stops at the cap" true
    ((not o4.converged) && o4.iterations = 1000 && Float.abs (o4.residual -. 0.625) < 1e-6);
  check_sp "s1196:4" o4 capped;
  let text3 = Bench_format.Printer.circuit_to_string (s1196 3) in
  let r3 = reply server (bench_analyze text3) in
  let c3 = parsed text3 in
  let o3 = Sigprob.Sp_sequential.compute c3 in
  check_bool "s1196:3 converges in 14 iterations" true (o3.converged && o3.iterations = 14);
  check_sp "s1196:3" o3 r3;
  (* An edit reply carries the edited engine's fixpoint: triplicating the
     first flip-flop data gate whose voter moves the fixpoint's residual. *)
  let target, after_o =
    List.find_map
      (fun ff ->
        match Circuit.node c3 ff with
        | Circuit.Ff { data } when Circuit.is_gate c3 data ->
          let after, _ = Transform.triplicate_delta c3 ~nodes:[ data ] in
          let o = Sigprob.Sp_sequential.compute after in
          if o.residual <> o3.residual then Some (data, o) else None
        | _ -> None)
      (Circuit.ffs c3)
    |> Option.get
  in
  let name = Circuit.node_name c3 target in
  let edited = reply server (chained_edit ~fp:(fingerprint r3) ~kind:"tmr" ~target:name) in
  check_string "tmr edit" "ok" (status edited);
  check_sp "edited s1196:3" after_o edited;
  (* a combinational circuit runs no fixpoint *)
  let comb = reply server two_blocks_bench in
  check_bool "combinational: converged, 0 iterations, residual 0" true
    (match Json.member "sp" comb with
    | Some sp ->
      Json.member "converged" sp = Some (Json.Bool true)
      && jnum "iterations" sp = Some 0.0
      && jnum "residual" sp = Some 0.0
    | None -> false);
  (* everything else in the replies reads as before *)
  List.iter
    (fun (what, r, md5) -> check_string (what ^ ": fingerprint, summary, top") md5 (reply_digest r))
    [
      ("s1196:4", capped, "3389573a291726b76fb2b3eb57ec5ec1");
      ("s1196:3", r3, "415f02b2eb3635274de8c0fab9c35f7d");
      ("tmr edit", edited, "e7b23003a1d4e735cae4a9db0ef9e5fa");
    ]

(* Three disjoint s1196-profile blocks (generator seeds 1 to 3), nets
   prefixed "b<k>_", as .bench text. *)
let blocks_text () =
  let b = Builder.create ~name:"blocks" () in
  List.iteri
    (fun k seed ->
      let c = s1196 seed in
      let name v = Printf.sprintf "b%d_%s" k (Circuit.node_name c v) in
      for v = 0 to Circuit.node_count c - 1 do
        match Circuit.node c v with
        | Circuit.Input -> Builder.add_input b (name v)
        | Circuit.Ff { data } -> Builder.add_dff b ~q:(name v) ~d:(name data)
        | Circuit.Gate { kind; fanins } ->
          Builder.add_gate b ~output:(name v) ~kind (List.map name (Array.to_list fanins))
      done;
      List.iter (fun v -> Builder.add_output b (name v)) (Circuit.outputs c))
    [ 1; 2; 3 ];
  Bench_format.Printer.circuit_to_string (Builder.freeze b)

(* What a server keeps after an analyze and 8 edits chained by
   fingerprint on the three-block design (tmr, buffer, de_morgan, ...;
   each edit on the first name of the last reply's top its kind accepts):
   8 resident engines, each with its remembered sweep.  It retained
   546,902 words when every edit copied its base's nodes, the cache kept
   each sweep as a (site, entry) list and name indexes kept a key array;
   401,925 words now.  The ceiling is 0.8 x the former. *)
let test_edit_chain_footprint () =
  ignore (fresh_registry ());
  let server = Server.create { Server.default_config with domains = Some 1 } in
  let text = blocks_text () in
  let c = Bench_format.Parser.parse_string ~name:"<request>" text in
  let first = reply server (bench_analyze text) in
  check_string "analyze" "ok" (status first);
  let top r =
    match Json.member "top" r with
    | Some (Json.List l) -> List.filter_map (jstr "name") l
    | _ -> []
  in
  let rewritten = Hashtbl.create 4 in
  let accepts kind name =
    match Circuit.find_opt c name with
    | None -> false
    | Some v -> (
      match (kind, Circuit.node c v) with
      | "buffer", _ -> true
      | "tmr", Circuit.Gate _ -> true
      | "de_morgan", Circuit.Gate { kind = Gate.(And | Or | Nand | Nor); _ } ->
        not (Hashtbl.mem rewritten name)
      | _ -> false)
  in
  let last = ref first in
  for e = 0 to 7 do
    let kind = [| "tmr"; "buffer"; "de_morgan" |].(e mod 3) in
    let target = List.find (accepts kind) (top !last) in
    let r = reply server (chained_edit ~fp:(fingerprint !last) ~kind ~target) in
    check_string (Printf.sprintf "edit %d (%s %s)" e kind target) "ok" (status r);
    if kind = "de_morgan" then Hashtbl.replace rewritten target ();
    last := r
  done;
  let words = Obj.reachable_words (Obj.repr server) in
  let ceiling = 8 * 546_902 / 10 in
  check_bool (Printf.sprintf "the server retains %d words <= %d" words ceiling) true (words <= ceiling)

let with_serve_loop config f =
  let client_fd, server_fd =
    Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  let server = Server.create config in
  let d =
    Domain.spawn (fun () ->
        let outcome = Server.serve server ~in_fd:server_fd ~out_fd:server_fd in
        (try Unix.close server_fd with Unix.Unix_error _ -> ());
        outcome)
  in
  let ic = Unix.in_channel_of_descr client_fd in
  let oc = Unix.out_channel_of_descr client_fd in
  let result = f ic oc in
  close_out_noerr oc;
  close_in_noerr ic;
  (result, Domain.join d)

let recv ic =
  match Json.parse (input_line ic) with
  | Ok v -> v
  | Error msg -> Alcotest.fail ("bad response: " ^ msg)

let test_serve_sheds_overload () =
  let m = fresh_registry () in
  let high_water = 2 and burst = 8 in
  let (pongs, shed), outcome =
    with_serve_loop
      { Server.default_config with queue_high_water = high_water }
      (fun ic oc ->
        (* Park the loop in a sleep, pile a burst behind it, then count
           answer kinds: everything is answered, the overflow is shed. *)
        Json.emit_line oc
          (Json.Obj
             [ ("op", Json.String "sleep"); ("seconds", Json.Number 0.2) ]);
        for i = 1 to burst do
          Json.emit_line oc
            (Json.Obj [ ("id", Json.int i); ("op", Json.String "ping") ])
        done;
        let pongs = ref 0 and shed = ref 0 in
        for _ = 0 to burst do
          let r = recv ic in
          match (status r, error_code r) with
          | "ok", _ -> if Json.member "slept" r = None then incr pongs
          | "error", "overloaded" -> incr shed
          | s, c -> Alcotest.fail (Printf.sprintf "unexpected %s/%s" s c)
        done;
        Json.emit_line oc (Json.Obj [ ("op", Json.String "shutdown") ]);
        ignore (recv ic);
        (!pongs, !shed))
  in
  check_bool "serve loop saw the shutdown" true (outcome = `Shutdown);
  check_int "every burst request answered" burst (pongs + shed);
  check_bool "overflow shed" true (shed >= burst - (2 * high_water));
  check_bool "some of the burst served" true (pongs >= 1);
  check_int "sheds metered" shed
    (Obs.Metrics.counter_value (Obs.Metrics.snapshot m) "serd.shed")

let test_serve_eof () =
  ignore (fresh_registry ());
  let pong, outcome =
    with_serve_loop Server.default_config (fun ic oc ->
        Json.emit_line oc (Json.Obj [ ("op", Json.String "ping") ]);
        let r = recv ic in
        status r)
  in
  check_string "served before EOF" "ok" pong;
  check_bool "EOF ends the loop cleanly" true (outcome = `Eof)

let () =
  Alcotest.run "serd"
    [
      ( "decode",
        [
          Alcotest.test_case "typed rejections" `Quick test_typed_rejections;
          Alcotest.test_case "parse error beats netlist error" `Quick
            test_parse_error_beats_netlist_error;
          Alcotest.test_case "id echo" `Quick test_id_echo;
          Alcotest.test_case "request limits" `Quick test_request_limits;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit skips analysis" `Quick
            test_cache_hit_skips_analysis;
          Alcotest.test_case "top is the sorted head" `Quick
            test_top_is_sorted_prefix;
          Alcotest.test_case "eviction" `Quick test_cache_eviction;
        ] );
      ( "deadline",
        [ Alcotest.test_case "zero budget partial" `Quick test_zero_budget_partial ] );
      ( "lifecycle",
        [
          Alcotest.test_case "restart resumes checkpoint" `Quick
            test_restart_resumes_checkpoint;
          Alcotest.test_case "kernel-rung checkpoint re-swept" `Quick
            test_kernel_rung_checkpoint_reswept;
          Alcotest.test_case "shutdown ack" `Quick test_shutdown_ack;
        ] );
      ( "introspection",
        [
          Alcotest.test_case "request ids" `Quick test_request_ids;
          Alcotest.test_case "stats op" `Quick test_stats_op;
          Alcotest.test_case "dump op" `Quick test_dump_op;
          Alcotest.test_case "fault-injection gate" `Quick
            test_fault_injection_gate;
        ] );
      ( "edit",
        [
          Alcotest.test_case "edit op round trip" `Quick test_edit_op;
          Alcotest.test_case "edit rejections" `Quick test_edit_rejections;
          Alcotest.test_case "zero-budget edit keeps the count" `Quick
            test_edit_zero_budget_partial;
          Alcotest.test_case "tmr of the same signal twice" `Quick
            test_edit_tmr_twice;
        ] );
      ( "sp", [ Alcotest.test_case "sp object in replies" `Quick test_sp_object ] );
      ( "memory",
        [ Alcotest.test_case "edit chain footprint" `Quick test_edit_chain_footprint ] );
      ( "serve loop",
        [
          Alcotest.test_case "sheds overload" `Quick test_serve_sheds_overload;
          Alcotest.test_case "clean EOF" `Quick test_serve_eof;
        ] );
    ]
