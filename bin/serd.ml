(* serd: a deadline-aware SER analysis daemon.

   Speaks newline-delimited JSON over stdio (the default) or a Unix-domain
   socket (--socket PATH, one connection at a time).  Every request gets a
   response: malformed JSON, oversized payloads, invalid netlists, and
   unexpected handler exceptions all come back as typed error objects —
   the process only exits on stdin EOF, an explicit shutdown op, or a
   fatal setup error (bad flags, unbindable socket).

   Requests with a budget_ms (or under --default-budget-ms) run their
   sweep under an Obs.Deadline: expiry returns "status": "partial" with
   every finished site.  Hot circuits are served from a bounded LRU of
   warmed engines; whole-circuit sweeps checkpoint per fingerprint under
   --checkpoint-dir and resume across restarts.

   Exit codes: 0 clean exit (EOF or shutdown op); 1 fatal I/O error on the
   transport; 2 setup error (socket bind/listen); 124 cmdliner CLI
   errors. *)

open Cmdliner

let exit_io = 1
let exit_setup = 2

let serve_stdio server =
  ignore (Service.Server.serve server ~in_fd:Unix.stdin ~out_fd:Unix.stdout)

let serve_socket server path =
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 8;
  Fmt.epr "serd: listening on %s@." path;
  let stop = ref false in
  while not !stop do
    let conn, _ = Unix.accept sock in
    (match Service.Server.serve server ~in_fd:conn ~out_fd:conn with
    | `Shutdown -> stop := true
    | `Eof -> ()
    | exception Sys_error _ ->
      (* The peer vanished mid-reply; the daemon keeps accepting. *)
      ());
    (try Unix.close conn with Unix.Unix_error _ -> ())
  done;
  Unix.close sock;
  try Unix.unlink path with Unix.Unix_error _ -> ()

(* Periodic atomic Prometheus exposition: a helper domain rewrites the file
   every interval (tmp + rename, so a scraper never reads a torn file),
   sleeping in short slices so shutdown is prompt.  A final write happens
   after the serve loop ends — the exposition on disk always reflects the
   daemon's last state. *)
let with_prom_writer ~registry ~prom_file ~interval_ms f =
  match prom_file with
  | None -> f ()
  | Some path ->
    let write () =
      Service.Server.publish_memory ();
      try Obs.Prom.write_file path (Obs.Metrics.snapshot registry)
      with Sys_error msg ->
        Fmt.epr "serd: could not write %s: %s@." path msg
    in
    let stop = Atomic.make false in
    let writer =
      Domain.spawn (fun () ->
          write ();
          let interval = Float.max 0.01 (interval_ms /. 1000.0) in
          let elapsed = ref 0.0 in
          while not (Atomic.get stop) do
            Unix.sleepf 0.05;
            elapsed := !elapsed +. 0.05;
            if !elapsed >= interval then begin
              elapsed := 0.0;
              write ()
            end
          done;
          write ())
    in
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Domain.join writer)
      f

let run socket max_request_bytes max_source_bytes max_json_depth
    queue_high_water cache_capacity default_budget_ms checkpoint_dir domains
    trace_file prom_file prom_interval_ms dump_dir allow_fault_injection
    log_level =
  (* One live registry for the daemon's lifetime: the metrics op, the
     analysis.cache counters, and the Prometheus writer read from it. *)
  let registry = Obs.Metrics.create () in
  Obs.Hooks.set_metrics registry;
  (match log_level with
  | None -> ()
  | Some level -> Obs.Hooks.set_logger (Obs.Log.to_channel ~min_level:level stderr));
  let tracer =
    Option.map
      (fun _ ->
        let t = Obs.Trace.create () in
        Obs.Hooks.set_tracer t;
        t)
      trace_file
  in
  (* A client closing its pipe mid-reply must surface as Sys_error (caught
     per connection), not SIGPIPE (fatal). *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let ensure_dir = function
    | Some dir when not (Sys.file_exists dir) -> Unix.mkdir dir 0o755
    | _ -> ()
  in
  ensure_dir checkpoint_dir;
  ensure_dir dump_dir;
  let config =
    {
      Service.Server.max_request_bytes;
      max_source_bytes;
      max_json_depth;
      queue_high_water;
      cache_capacity;
      default_budget_ms;
      checkpoint_dir;
      domains;
      dump_dir;
      allow_fault_injection;
    }
  in
  let server =
    try Service.Server.create config
    with Invalid_argument msg ->
      Fmt.epr "serd: %s@." msg;
      exit exit_setup
  in
  let finish_trace () =
    match (trace_file, tracer) with
    | Some path, Some t -> (
      try
        Obs.Trace.to_file t path;
        Fmt.epr "serd: wrote trace to %s@." path
      with Sys_error msg -> Fmt.epr "serd: could not write %s: %s@." path msg)
    | _ -> ()
  in
  Fun.protect ~finally:finish_trace @@ fun () ->
  with_prom_writer ~registry ~prom_file ~interval_ms:prom_interval_ms
  @@ fun () ->
  match socket with
  | None -> (
    try serve_stdio server
    with Sys_error msg ->
      Fmt.epr "serd: transport error: %s@." msg;
      exit exit_io)
  | Some path -> (
    try serve_socket server path
    with Unix.Unix_error (e, fn, arg) ->
      Fmt.epr "serd: %s %s: %s@." fn arg (Unix.error_message e);
      exit exit_setup)

let socket =
  let doc = "Listen on a Unix-domain socket at $(docv) instead of stdio." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let max_request_bytes =
  let doc = "Reject request lines longer than $(docv) bytes." in
  Arg.(
    value
    & opt int Service.Server.default_config.max_request_bytes
    & info [ "max-request-bytes" ] ~docv:"N" ~doc)

let max_source_bytes =
  let doc = "Reject circuit payloads larger than $(docv) bytes." in
  Arg.(
    value
    & opt int Service.Server.default_config.max_source_bytes
    & info [ "max-source-bytes" ] ~docv:"N" ~doc)

let max_json_depth =
  let doc = "Reject requests nested deeper than $(docv) containers." in
  Arg.(
    value
    & opt int Service.Server.default_config.max_json_depth
    & info [ "max-json-depth" ] ~docv:"N" ~doc)

let queue_high_water =
  let doc =
    "Shed (answer overloaded) requests arriving while $(docv) are already \
     queued."
  in
  Arg.(
    value
    & opt int Service.Server.default_config.queue_high_water
    & info [ "queue-high-water" ] ~docv:"N" ~doc)

let cache_capacity =
  let doc = "Keep at most $(docv) warmed circuit engines resident." in
  Arg.(
    value
    & opt int Service.Server.default_config.cache_capacity
    & info [ "cache-capacity" ] ~docv:"N" ~doc)

let default_budget_ms =
  let doc =
    "Deadline, in milliseconds, for analyze requests that set no budget_ms \
     of their own (default: none)."
  in
  Arg.(
    value
    & opt (some float) None
    & info [ "default-budget-ms" ] ~docv:"MS" ~doc)

let checkpoint_dir =
  let doc =
    "Checkpoint whole-circuit sweeps per analysis fingerprint under \
     $(docv) (created if missing) and resume them across restarts."
  in
  Arg.(
    value & opt (some string) None & info [ "checkpoint-dir" ] ~docv:"DIR" ~doc)

let domains =
  let doc = "Worker domains for the supervised sweep (default: automatic)." in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

let trace_file =
  let doc =
    "Collect Chrome trace-event spans for every request (one [serd.request] \
     tree per frame, correlated by request_id) and write them to $(docv) at \
     shutdown."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let prom_file =
  let doc =
    "Rewrite $(docv) with a Prometheus text exposition of the live metrics \
     every $(b,--prom-interval-ms) (atomic tmp+rename; scrape with a file \
     collector)."
  in
  Arg.(value & opt (some string) None & info [ "prom-file" ] ~docv:"FILE" ~doc)

let prom_interval_ms =
  let doc = "Interval between Prometheus exposition rewrites." in
  Arg.(value & opt float 1000.0 & info [ "prom-interval-ms" ] ~docv:"MS" ~doc)

let dump_dir =
  let doc =
    "Dump the flight recorder (one JSON file per incident, named \
     <reason>-<request_id>.json) under $(docv) (created if missing) \
     whenever a request ends in quarantine, deadline expiry, or internal \
     error."
  in
  Arg.(value & opt (some string) None & info [ "dump-dir" ] ~docv:"DIR" ~doc)

let allow_fault_injection =
  let doc =
    "Accept the \"inject_faults\" analyze field (forces listed sites \
     through the full degradation ladder — operational drills and smoke \
     tests only)."
  in
  Arg.(value & flag & info [ "allow-fault-injection" ] ~doc)

let log_level =
  let level_conv =
    let parse = function
      | "off" -> Ok None
      | s -> (
        match Obs.Log.level_of_string s with
        | Some l -> Ok (Some l)
        | None ->
          Error (`Msg (Printf.sprintf "unknown log level %S (off, debug, info, warn, error)" s)))
    in
    let print ppf = function
      | None -> Fmt.string ppf "off"
      | Some l -> Fmt.string ppf (Obs.Log.level_to_string l)
    in
    Arg.conv (parse, print)
  in
  let doc =
    "Emit structured JSON-lines log events at or above $(docv) (off, debug, \
     info, warn, error) to stderr.  $(b,off) (the default) keeps the sink \
     null; the flight recorder records regardless."
  in
  Arg.(value & opt level_conv None & info [ "log-level" ] ~docv:"LEVEL" ~doc)

let cmd =
  let doc = "deadline-aware SER analysis daemon" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Serves SER propagation-probability analyses over newline-delimited \
         JSON: one request object per line in, one response object per line \
         out, on stdio by default or a Unix socket with $(b,--socket).";
      `P
        "Requests: {\"op\": \"analyze\", \"circuit\": {\"format\": \
         \"bench\"|\"blif\"|\"embedded\", \"source\": ...}, \"sites\"?, \
         \"budget_ms\"?, \"top_k\"?}, plus \"ping\", \"metrics\", \
         \"stats\" (uptime, queue depth, cache residency), \"dump\" (the \
         flight-recorder ring), and \"shutdown\".  Every response carries \
         \"status\": \"ok\", \"partial\" (deadline expired; completed \
         sites reported), or \"error\" with a typed code, plus a \
         server-minted \"request_id\" correlating it with log events, \
         recorder entries, and trace spans.";
      `S Manpage.s_exit_status;
      `P "0 on clean exit (EOF or shutdown op); 1 on a fatal transport \
          error; 2 on a setup error; 124 on command-line errors.";
    ]
  in
  Cmd.v
    (Cmd.info "serd" ~doc ~man ~exits:[])
    Term.(
      const run $ socket $ max_request_bytes $ max_source_bytes
      $ max_json_depth $ queue_high_water $ cache_capacity $ default_budget_ms
      $ checkpoint_dir $ domains $ trace_file $ prom_file $ prom_interval_ms
      $ dump_dir $ allow_fault_injection $ log_level)

let () = exit (Cmd.eval ~catch:true cmd)
