(* Shared plumbing for the command-line tools: circuit sources and common
   cmdliner terms. *)

open Cmdliner

(* A circuit argument is one of:
   - a path to a .bench, .v or .blif file,
   - "embedded:<name>" for a built-in real netlist (s27, c17),
   - "structured:<name>" for a generated arithmetic/tree circuit,
   - "profile:<name>[:seed]" for a synthetic ISCAS-profiled circuit. *)
let circuit_of_spec spec =
  match String.split_on_char ':' spec with
  | [ "embedded"; name ] -> (
    match Circuit_gen.Embedded.find name with
    | Some f -> Ok (f ())
    | None ->
      Error
        (Printf.sprintf "unknown embedded circuit %S (available: %s)" name
           (String.concat ", " (List.map fst Circuit_gen.Embedded.all))))
  | [ "structured"; name ] -> (
    match List.assoc_opt name Circuit_gen.Structured.all with
    | Some f -> Ok (f ())
    | None ->
      Error
        (Printf.sprintf "unknown structured circuit %S (available: %s)" name
           (String.concat ", " (List.map fst Circuit_gen.Structured.all))))
  | "profile" :: name :: ([] | [ _ ] as seed) -> (
    match (Circuit_gen.Profiles.find name, seed) with
    | None, _ -> Error (Printf.sprintf "unknown profile %S" name)
    | Some p, [] -> Ok (Circuit_gen.Random_dag.generate ~seed:1 p)
    | Some p, seed :: _ -> (
      match int_of_string_opt seed with
      | Some seed -> Ok (Circuit_gen.Random_dag.generate ~seed p)
      | None -> Error (Printf.sprintf "profile seed %S is not an integer" seed)))
  | _ when Filename.check_suffix spec ".v" -> (
    try Ok (Verilog_format.Verilog_parser.parse_file spec) with
    | Sys_error msg -> Error msg
    | Verilog_format.Verilog_parser.Error { message; pos } ->
      Error
        (Printf.sprintf "%s: parse error at line %d, column %d: %s" spec
           pos.Verilog_format.Verilog_lexer.line pos.Verilog_format.Verilog_lexer.column message)
    | Verilog_format.Verilog_parser.Elaboration_error message ->
      Error (Printf.sprintf "%s: %s" spec message)
    | Netlist.Builder.Error e ->
      Error (Printf.sprintf "%s: invalid netlist: %s" spec (Netlist.Builder.error_to_string e)))
  | _ when Filename.check_suffix spec ".blif" -> (
    try Ok (Blif_format.Blif_parser.parse_file spec) with
    | Sys_error msg -> Error msg
    | Blif_format.Blif_parser.Error { message; line } ->
      Error (Printf.sprintf "%s: parse error at line %d: %s" spec line message)
    | Blif_format.Blif_parser.Elaboration_error message ->
      Error (Printf.sprintf "%s: %s" spec message)
    | Netlist.Builder.Error e ->
      Error (Printf.sprintf "%s: invalid netlist: %s" spec (Netlist.Builder.error_to_string e)))
  | _ -> (
    try Ok (Bench_format.Parser.parse_file spec) with
    | Sys_error msg -> Error msg
    | Bench_format.Parser.Error { message; pos } ->
      Error
        (Printf.sprintf "%s: parse error at line %d, column %d: %s" spec pos.Bench_format.Token.line
           pos.Bench_format.Token.column message)
    | Netlist.Builder.Error e ->
      Error (Printf.sprintf "%s: invalid netlist: %s" spec (Netlist.Builder.error_to_string e)))

(* Run [f] on the circuit [spec] names.  A circuit that fails to load is
   the run's failure, not an argument error: its message goes to stderr and
   [f]'s caller gets cmdliner's status for a bad argument (124), so a run
   that loads inside [with_telemetry] still writes its artifact files. *)
let load_circuit spec f =
  match circuit_of_spec spec with
  | Ok circuit -> f circuit
  | Error message ->
    Fmt.epr "%s: %s@." Filename.(remove_extension (basename Sys.executable_name)) message;
    Cmd.Exit.cli_error

(* The CIRCUIT argument is the spec itself: each tool loads it with
   [load_circuit] inside its run, where telemetry sees parsing. *)
let circuit_arg =
  let doc =
    "Circuit to analyze: a netlist file (.bench, .v, .blif), $(b,embedded:)$(i,NAME) \
     (s27, c17), $(b,structured:)$(i,NAME) (add8, mul4, parity16, mux4, acc8), or \
     $(b,profile:)$(i,NAME)[$(b,:)$(i,SEED)] for a synthetic ISCAS'89-profiled circuit."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT" ~doc)

let technology_conv =
  let parse name =
    match Seu_model.Technology.find_preset name with
    | Some t -> Ok t
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown technology %S (available: %s)" name
             (String.concat ", "
                (List.map (fun (t : Seu_model.Technology.t) -> t.Seu_model.Technology.name)
                   Seu_model.Technology.presets))))
  in
  Arg.conv (parse, fun ppf (t : Seu_model.Technology.t) -> Fmt.string ppf t.Seu_model.Technology.name)

let technology_arg =
  let doc = "Technology preset for the R_SEU model." in
  Arg.(
    value
    & opt technology_conv Seu_model.Technology.default
    & info [ "t"; "technology" ] ~docv:"TECH" ~doc)

let seed_arg =
  let doc = "PRNG seed for every randomized step (simulation, sampling)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let vectors_arg ~default =
  let doc = "Random vectors per error site for the simulation baseline." in
  Arg.(value & opt int default & info [ "n"; "vectors" ] ~docv:"N" ~doc)

(* --- telemetry ------------------------------------------------------------ *)

let metrics_arg =
  let doc =
    "Write a JSON metrics snapshot of the run (counters, gauges, fixed-bucket \
     histograms: per-phase EPP timings, cone sizes, parallel steal counters, \
     supervisor ladder steps, checkpoint I/O) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let trace_arg =
  let doc =
    "Write Chrome trace-event JSON to $(docv): nestable phase spans with one \
     track per OCaml domain.  Load the file in chrome://tracing or \
     https://ui.perfetto.dev."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let progress_arg =
  let doc =
    "Print a single-line progress meter (done/total, rate, ETA) to stderr \
     during long per-site sweeps."
  in
  Arg.(value & flag & info [ "progress" ] ~doc)

let prom_arg =
  let doc =
    "Write a Prometheus text-exposition snapshot of the run's metrics \
     (counters, gauges, cumulative histogram buckets) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "prom" ] ~docv:"FILE" ~doc)

let dump_arg =
  let doc =
    "Write the flight-recorder ring (the most recent structured events, \
     always on) as JSON to $(docv) when the run ends — including when it \
     fails."
  in
  Arg.(value & opt (some string) None & info [ "dump" ] ~docv:"FILE" ~doc)

(* Install live sinks before the pipeline is built (instrument handles are
   resolved at workspace/engine creation), run [f], and always write the
   artifact files — even when [f] raises or exits non-zero, a partial trace
   is exactly what one wants for a post-mortem.  The mechanics live in
   Obs.Artifacts so the failure-path contract is unit-tested; this wrapper
   only adds the confirmation lines. *)
let with_telemetry ?prom ?dump ~metrics ~trace f =
  let on_written ~kind path =
    if kind = "trace" then
      Fmt.epr "wrote trace to %s (chrome://tracing, Perfetto)@." path
    else Fmt.epr "wrote %s to %s@." kind path
  in
  Obs.Artifacts.with_files ?metrics ?trace ?prom ?recorder_dump:dump
    ~on_written f
