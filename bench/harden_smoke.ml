(* harden_smoke: CI gate for incremental EPP + ser_harden
   (dune build @harden-smoke).

   Three legs:

   + ser_harden --strategy derate on the embedded s27: the SER curve must
     be non-empty and monotone non-increasing (derating is monotone by
     construction — a rising step means the greedy loop or the r_seu_scale
     seam broke);
   + ser_harden --strategy tmr on a generated dense fixture of ten
     DISJOINT dense blocks: every step must re-sweep < 25% of sites and
     splice the rest from the previous step, checked in the per-step
     curve, and the live metrics snapshot must count one topological sort
     per circuit (analysis.topo.computed = steps + 1: the parsed fixture
     and each edited circuit);
   + a real serd subprocess: cold whole-circuit analyze of the fixture,
     then the same single-gate TMR edit three times against the returned
     fingerprint — each edit must stay under 25% dirty, and the best edit
     must be >= 3x faster end-to-end than the cold analyze.

   The blocks are disjoint on purpose: a single-gate edit can only dirty
   its own block (~1/10 of the sites), so the < 25% bound is a structural
   property of the fixture, not a tuning accident.  Writes
   BENCH_harden.json (re-parsed after writing). *)

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

let jstr key v = Option.bind (Json.member key v) Json.to_string_value
let jnum key v = Option.bind (Json.member key v) Json.to_number
let jlist key v = Option.value ~default:[] (Option.bind (Json.member key v) Json.to_list)

(* --- the dense fixture ----------------------------------------------------- *)

let blocks = 10
let block_inputs = 10
let block_gates = 600
let block_outputs = 10

(* Deterministic LCG so the fixture is identical on every run. *)
let dense_bench () =
  let buf = Buffer.create (1 lsl 16) in
  let state = ref 123456789 in
  let rand n =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod n
  in
  for b = 0 to blocks - 1 do
    for i = 0 to block_inputs - 1 do
      Buffer.add_string buf (Printf.sprintf "INPUT(b%d_i%d)\n" b i)
    done
  done;
  for b = 0 to blocks - 1 do
    for o = 0 to block_outputs - 1 do
      Buffer.add_string buf
        (Printf.sprintf "OUTPUT(b%d_g%d)\n" b (block_gates - block_outputs + o))
    done
  done;
  let kinds = [| "AND"; "OR"; "NAND"; "NOR" |] in
  for b = 0 to blocks - 1 do
    for g = 0 to block_gates - 1 do
      let sig_of j =
        if j < block_inputs then Printf.sprintf "b%d_i%d" b j
        else Printf.sprintf "b%d_g%d" b (j - block_inputs)
      in
      let avail = block_inputs + g in
      let window = min avail 120 in
      let a = avail - 1 - rand window in
      let c =
        let rec retry n =
          let c = avail - 1 - rand window in
          if c <> a || n = 0 then c else retry (n - 1)
        in
        retry 8
      in
      Buffer.add_string buf
        (Printf.sprintf "b%d_g%d = %s(%s, %s)\n" b g
           kinds.(rand (Array.length kinds))
           (sig_of a) (sig_of c))
    done
  done;
  Buffer.contents buf

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run_cmd argv =
  Sys.command (String.concat " " (List.map Filename.quote argv))

(* --- serd subprocess (same plumbing as service_smoke) ---------------------- *)

type daemon = { pid : int; ic : in_channel; oc : out_channel }

let spawn exe args =
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
  }

let rpc d v =
  Json.emit_line d.oc v;
  let line = input_line d.ic in
  match Json.parse line with
  | Ok v -> v
  | Error msg -> failwith (Printf.sprintf "unparseable response %S: %s" line msg)

let wait d =
  close_out_noerr d.oc;
  close_in_noerr d.ic;
  snd (Unix.waitpid [] d.pid)

(* --- main ------------------------------------------------------------------ *)

let () =
  ignore (Unix.alarm 300);
  let harden, serd =
    if Array.length Sys.argv > 2 then (Sys.argv.(1), Sys.argv.(2))
    else failwith "usage: harden_smoke SER_HARDEN_EXE SERD_EXE"
  in
  let fixture = "harden_smoke_dense.bench" in
  write_file fixture (dense_bench ());

  (* 1. derate curve on s27: monotone non-increasing *)
  let s27_json = "harden_smoke_s27.json" in
  check "ser_harden derate on s27 exits 0"
    (run_cmd [ harden; "embedded:s27"; "--steps"; "5"; "--json"; s27_json ] = 0);
  let s27 =
    match Json.parse_file s27_json with
    | Ok v -> v
    | Error msg -> failwith (Printf.sprintf "bad %s: %s" s27_json msg)
  in
  let s27_baseline = Option.value ~default:0.0 (jnum "baseline_fit" s27) in
  let s27_curve = jlist "curve" s27 in
  let s27_fits =
    List.filter_map (fun step -> jnum "total_fit" step) s27_curve
  in
  check "s27 derate curve has 5 steps"
    (List.length s27_curve = 5 && List.length s27_fits = 5);
  check "s27 baseline SER is positive" (s27_baseline > 0.0);
  let monotone =
    let rec go prev = function
      | [] -> true
      | fit :: rest -> fit <= prev && go fit rest
    in
    go s27_baseline s27_fits
  in
  check "s27 derate curve is monotone non-increasing" monotone;
  check "s27 derate curve actually reduces SER"
    (match List.rev s27_fits with
    | last :: _ -> last < s27_baseline
    | [] -> false);

  (* 2. tmr on the dense fixture: < 25% dirty, one sort per circuit *)
  let dense_json = "harden_smoke_dense.json" in
  let dense_metrics = "harden_smoke_metrics.json" in
  check "ser_harden tmr on the dense fixture exits 0"
    (run_cmd
       [
         harden; fixture; "--strategy"; "tmr"; "--steps"; "3";
         "--json"; dense_json; "--metrics"; dense_metrics;
       ]
    = 0);
  let dense =
    match Json.parse_file dense_json with
    | Ok v -> v
    | Error msg -> failwith (Printf.sprintf "bad %s: %s" dense_json msg)
  in
  let dense_curve = jlist "curve" dense in
  check "dense tmr curve has 3 steps" (List.length dense_curve = 3);
  let max_dirty =
    List.fold_left
      (fun acc step ->
        max acc (Option.value ~default:1.0 (jnum "dirty_fraction" step)))
      0.0 dense_curve
  in
  check
    (Printf.sprintf
       "every dense tmr step re-swept < 25%% of sites (max %.1f%%)"
       (100.0 *. max_dirty))
    (max_dirty > 0.0 && max_dirty < 0.25);
  check "every dense tmr step spliced clean prior results"
    (List.for_all
       (fun s ->
         match jnum "clean_reused" s with
         | Some r -> r > 0.0
         | None -> false)
       dense_curve);
  let metrics =
    match Json.parse_file dense_metrics with
    | Ok v -> v
    | Error msg -> failwith (Printf.sprintf "bad %s: %s" dense_metrics msg)
  in
  let counter name =
    Option.bind (Json.member "counters" metrics) (jnum name)
  in
  let sorts = Option.value ~default:0.0 (counter "analysis.topo.computed") in
  check
    (Printf.sprintf
       "analysis.topo.computed = steps + 1 = 4, one sort per circuit (got %.0f)"
       sorts)
    (sorts = 4.0);
  check "epp.incremental.dirty_sites and clean_reused are metered"
    (match
       (counter "epp.incremental.dirty_sites",
        counter "epp.incremental.clean_reused")
     with
    | Some d, Some r -> d > 0.0 && r > 0.0
    | _ -> false);

  (* 3. the serd edit path: cold analyze vs incremental edit, >= 3x *)
  let source = read_file fixture in
  let d = spawn serd [ "--domains"; "1" ] in
  let analyze_req =
    Json.Obj
      [
        ("id", Json.int 1);
        ("op", Json.String "analyze");
        ( "circuit",
          Json.Obj
            [ ("format", Json.String "bench"); ("source", Json.String source) ]
        );
      ]
  in
  let t0 = Obs.Clock.monotonic_seconds () in
  let r = rpc d analyze_req in
  let cold_s = Obs.Clock.monotonic_seconds () -. t0 in
  check "serd cold analyze of the fixture completes"
    (jstr "status" r = Some "ok" && jstr "cache" r = Some "miss");
  let fp = Option.value ~default:"?" (jstr "fingerprint" r) in
  check "serd cold analyze reports a fingerprint" (fp <> "?");
  let edit_req i =
    Json.Obj
      [
        ("id", Json.int (10 + i));
        ("op", Json.String "edit");
        ( "circuit",
          Json.Obj
            [
              ("format", Json.String "fingerprint"); ("source", Json.String fp);
            ] );
        ( "edit",
          Json.Obj
            [ ("kind", Json.String "tmr"); ("target", Json.String "b0_g150") ]
        );
      ]
  in
  let edit_times = ref [] in
  let edit_fracs = ref [] in
  for i = 1 to 3 do
    let t0 = Obs.Clock.monotonic_seconds () in
    let r = rpc d (edit_req i) in
    edit_times := (Obs.Clock.monotonic_seconds () -. t0) :: !edit_times;
    let inc v = Option.bind (Json.member "incremental" r) (jnum v) in
    check (Printf.sprintf "serd edit %d completes" i)
      (jstr "status" r = Some "ok");
    (match inc "dirty_fraction" with
    | Some f ->
      edit_fracs := f :: !edit_fracs;
      check
        (Printf.sprintf "serd edit %d re-swept < 25%% of sites (%.1f%%)" i
           (100.0 *. f))
        (f > 0.0 && f < 0.25)
    | None -> check (Printf.sprintf "serd edit %d reports dirty_fraction" i) false);
    check (Printf.sprintf "serd edit %d spliced clean results" i)
      (match inc "clean_reused" with
      | Some r -> r > 0.0
      | None -> false)
  done;
  let best_edit_s = List.fold_left min infinity !edit_times in
  let speedup = cold_s /. best_edit_s in
  check
    (Printf.sprintf "edit path is >= 3x faster than full recompute (%.1fx)"
       speedup)
    (speedup >= 3.0);
  let s = rpc d (Json.Obj [ ("op", Json.String "stats") ]) in
  check "serd stats counts the edits"
    (match jnum "edits" s with
    | Some e -> e >= 3.0
    | None -> false);
  ignore (rpc d (Json.Obj [ ("op", Json.String "shutdown") ]));
  check "serd exits cleanly" (wait d = Unix.WEXITED 0);

  (* --- artifact ------------------------------------------------------------ *)
  let dirty_fraction =
    List.fold_left max 0.0 !edit_fracs
  in
  let artifact_path = "BENCH_harden.json" in
  let artifact =
    Json.Obj
      [
        ("benchmark", Json.String "harden");
        ( "s27",
          Json.Obj
            [
              ("baseline_fit", Json.Number s27_baseline);
              ("steps", Json.int (List.length s27_curve));
              ( "final_fit",
                Json.Number
                  (match List.rev s27_fits with
                  | f :: _ -> f
                  | [] -> 0.0) );
            ] );
        ( "dense",
          Json.Obj
            [
              ( "nodes",
                Json.int (blocks * (block_inputs + block_gates)) );
              ("max_step_dirty_fraction", Json.Number max_dirty);
              ("analysis_topo_computed", Json.Number sorts);
            ] );
        ( "serd",
          Json.Obj
            [
              ("cold_analyze_ms", Json.Number (1000.0 *. cold_s));
              ("best_edit_ms", Json.Number (1000.0 *. best_edit_s));
              ("speedup", Json.Number speedup);
              ("epp.incremental.dirty_fraction", Json.Number dirty_fraction);
            ] );
        ( "checks",
          Json.List
            (List.rev_map
               (fun (what, ok) ->
                 Json.Obj [ ("name", Json.String what); ("ok", Json.Bool ok) ])
               !checks) );
      ]
  in
  Json.to_file ~pretty:true artifact_path artifact;
  (match Json.parse_file artifact_path with
  | Error msg -> check (Printf.sprintf "artifact re-parses (%s)" msg) false
  | Ok v ->
    check "artifact re-parses with the speedup figures"
      (Option.bind (Json.member "serd" v) (jnum "speedup") <> None
      && Option.bind (Json.member "serd" v)
           (jnum "epp.incremental.dirty_fraction")
         <> None));
  Fmt.pr "wrote %s@." artifact_path;

  if !failures > 0 then begin
    Fmt.pr "@.%d harden smoke check(s) failed@." !failures;
    exit 1
  end
  else Fmt.pr "@.harden smoke: all %d checks passed@." (List.length !checks)
