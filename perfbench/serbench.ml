(* The end-to-end SER benchmark.

     serbench --workload NAME --seed N --seconds S --trace 0|1
              [--serd PATH] [--commit ID]

   Runs one workload for S seconds on its fixed circuits, with the samples
   drawn from seed N, checks the outputs, prints every metric by name with
   its unit, and ends with one JSON line: {"correct", "attempted",
   "failed", "metrics"}.  With --trace 0 the metrics are the end-to-end
   ones BENCHMARK.json lists; with --trace 1 a traced pass follows and the
   metrics are the per-layer ones it lists.  Exits 1 when an output check
   fails, 2 on bad arguments.  See README.md. *)

let workloads = [ "dense-estimate"; "cone-local-estimate"; "serd-session" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15.0 and trace = ref 0 in
  let serd = ref "_build/default/bin/serd.exe" and commit = ref "unknown" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, " workload seed (the samples are drawn from it)");
      ("--seconds", Arg.Set_float seconds, " length of the timed loop");
      ("--trace", Arg.Set_int trace, " 1 adds the traced pass and reports per-layer metrics");
      ("--serd", Arg.Set_string serd, " path of the serd executable");
      ("--commit", Arg.Set_string commit, " commit the program was built from, for the record");
    ]
  in
  let usage = "serbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if (not (List.mem !workload workloads)) || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  (* The metrics the JSON line carries are the ones BENCHMARK.json lists,
     read from the root of the checkout. *)
  let end_to_end = Outcome.declared ~file:"BENCHMARK.json" "end_to_end" in
  let per_layer = Outcome.declared ~file:"BENCHMARK.json" "per_layer" in
  (* A child that dies must surface as an error on its pipe, not kill us. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  Printf.printf
    "record: workload=%s seed=%d seconds=%g trace=%b commit=%s nproc=%d recommended_domain_count=%d ocaml=%s %s\n%!"
    !workload seed seconds trace !commit (Sysinfo.nproc ()) (Domain.recommended_domain_count ())
    Sys.ocaml_version (Sysinfo.gc_settings ());
  let outcome =
    match !workload with
    | "dense-estimate" ->
      Estimate.run ~name:!workload ~make:Inputs.dense ~seed ~seconds ~trace ~accuracy:true
    | "cone-local-estimate" ->
      Estimate.run ~name:!workload ~make:Inputs.cone_local ~seed ~seconds ~trace ~accuracy:false
    | _ -> Session.run ~serd:!serd ~seed ~seconds ~trace
  in
  let print (name, value, unit) = Printf.printf "%-32s %16.6g %s\n" name value unit in
  List.iter print outcome.Outcome.end_to_end;
  if trace then List.iter print outcome.per_layer;
  if trace then Outcome.check_listed ~declared:per_layer outcome.per_layer;
  (* A per-layer metric of a layer the workload never calls reads 0; a
     missing end-to-end metric fails the run. *)
  let reported =
    if trace then Outcome.select ~declared:per_layer ~absent:0.0 outcome.per_layer
    else Outcome.select ~declared:end_to_end ~absent:Float.nan outcome.end_to_end
  in
  let unmeasured = List.filter (fun (_, v, _) -> not (Float.is_finite v)) reported in
  List.iter (fun (name, _, unit) -> Printf.printf "FAILED: %s was not measured in %s\n" name unit) unmeasured;
  let correct = outcome.correct && unmeasured = [] in
  let module J = Obs.Json in
  let metric (name, value, unit) =
    (name, J.Obj [ ("value", J.Number (if Float.is_finite value then value else 0.0)); ("unit", J.String unit) ])
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.int outcome.attempted);
            ("failed", J.int outcome.failed);
            ("metrics", J.Obj (List.map metric reported));
          ]));
  exit (if correct then 0 else 1)
