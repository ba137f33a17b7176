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
  let server = Server.create Server.default_config in
  let r1 = reply server analyze_s27 in
  check_string "cold analyze" "ok" (status r1);
  check_bool "cold is a miss" true (jstr "cache" r1 = Some "miss");
  let r2 = reply server analyze_s27 in
  check_bool "repeat is a hit" true (jstr "cache" r2 = Some "hit");
  check_bool "same fingerprint" true
    (jstr "fingerprint" r1 = jstr "fingerprint" r2);
  let s = Obs.Metrics.snapshot m in
  check_int "one topological sort despite the repeat" 1
    (Obs.Metrics.counter_value s "analysis.topo.computed");
  check_int "hit metered" 1
    (Obs.Metrics.counter_value s "analysis.cache.engine.hit");
  check_int "miss metered" 1
    (Obs.Metrics.counter_value s "analysis.cache.engine.miss")

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
    | None -> false)

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
  check_bool "analysis was patched, not rebuilt" true
    (Option.bind (Json.member "incremental" r1) (jstr "analysis")
    = Some "patched");
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
  check_bool "stats reports patched incremental analyses" true
    (match Option.bind (Json.member "incremental" s) (jnum "patched") with
    | Some n -> n >= 2.0
    | None -> false)

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
  check_int "the others analyzed" 2 (stat "kernel_ok" r);
  let rid = Option.value ~default:"?" (jstr "request_id" r) in
  check_bool "quarantine recorded under the reply's request id" true
    (List.exists
       (fun e ->
         e.Obs.Recorder.event = "supervisor.quarantine"
         && e.Obs.Recorder.request_id = Some rid)
       (Obs.Recorder.dump ()))

(* --- the serve loop over a socketpair -------------------------------------- *)

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
          Alcotest.test_case "id echo" `Quick test_id_echo;
          Alcotest.test_case "request limits" `Quick test_request_limits;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit skips analysis" `Quick
            test_cache_hit_skips_analysis;
          Alcotest.test_case "eviction" `Quick test_cache_eviction;
        ] );
      ( "deadline",
        [ Alcotest.test_case "zero budget partial" `Quick test_zero_budget_partial ] );
      ( "lifecycle",
        [
          Alcotest.test_case "restart resumes checkpoint" `Quick
            test_restart_resumes_checkpoint;
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
          Alcotest.test_case "tmr of the same signal twice" `Quick
            test_edit_tmr_twice;
        ] );
      ( "serve loop",
        [
          Alcotest.test_case "sheds overload" `Quick test_serve_sheds_overload;
          Alcotest.test_case "clean EOF" `Quick test_serve_eof;
        ] );
    ]
