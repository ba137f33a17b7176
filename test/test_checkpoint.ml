(* Tests for Report.Checkpoint: bit-exact save/load round trips, atomicity
   hygiene, fingerprint keying, and corrupt-file rejection. *)

open Helpers

let entries_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (s1, e1) (s2, e2) ->
         s1 = s2
         &&
         match (e1, e2) with
         | ( Epp.Supervisor.Analyzed { row = r1; step = st1 },
             Epp.Supervisor.Analyzed { row = r2; step = st2 } ) ->
           st1 = st2 && same_row r1 r2
         | Epp.Supervisor.Quarantined q1, Epp.Supervisor.Quarantined q2 ->
           q1 = q2
         | _ -> false)
       a b

(* s27's observations: the PO G17 at position 0, then the data inputs of
   its three flip-flops. *)
let s27 = Circuit_gen.Embedded.s27 ()

(* Entries exercising every serialized shape: both steps, PO and FF
   observations, awkward floats (hex round-trip), every fault constructor,
   strings with spaces and quotes. *)
let sample_entries () =
  let row ~p_sensitized ~cone_size positions probabilities =
    Epp.Site_row.make ~p_sensitized ~cone_size ~positions ~probabilities
  in
  [
    ( 0,
      Epp.Supervisor.Analyzed
        {
          row = row ~p_sensitized:0.1 ~cone_size:7 [| 0; 2 |] [| 1.0 /. 3.0; 1e-300 |];
          step = Epp.Diag.Batch;
        } );
    ( 3,
      Epp.Supervisor.Analyzed
        {
          row = row ~p_sensitized:0.9999999999999999 ~cone_size:1 [||] [||];
          step = Epp.Diag.Reference;
        } );
    ( 5,
      Epp.Supervisor.Quarantined
        {
          Epp.Diag.site = 5;
          name = "a name \"with\" spaces";
          cone_size = Some 12;
          faults =
            [
              (Epp.Diag.Batch, Epp.Diag.Nan { where = "four-state vector" });
              ( Epp.Diag.Reference,
                Epp.Diag.Exception { exn = "Failure(\"boom with spaces\")" } );
            ];
        } );
    ( 6,
      Epp.Supervisor.Quarantined
        {
          Epp.Diag.site = 6;
          name = "g6";
          cone_size = None;
          faults =
            [
              (Epp.Diag.Batch, Epp.Diag.Sum_defect { defect = 0.25; tolerance = 1e-6 });
              (Epp.Diag.Reference, Epp.Diag.Out_of_range { where = "p_sensitized"; value = 2.5 });
            ];
        } );
  ]

let test_round_trip () =
  let path = Filename.temp_file "serprop_ck" ".txt" in
  let t =
    {
      Report.Checkpoint.fingerprint = "abc123";
      total_sites = 10;
      entries = sample_entries ();
    }
  in
  Report.Checkpoint.save ~circuit:s27 path t;
  check_bool "no tmp file left behind" false (Sys.file_exists (path ^ ".tmp"));
  let text = In_channel.with_open_bin path In_channel.input_all in
  check_bool "positions written as the observations they name" true
    (List.mem
       (Printf.sprintf "ok 0 b 7 2 %h 2 p %d %h f %d %h" 0.1
          (Netlist.Circuit.find s27 "G17") (1.0 /. 3.0)
          (Netlist.Circuit.find s27 "G6") 1e-300)
       (String.split_on_char '\n' text));
  (match Report.Checkpoint.load ~circuit:s27 path with
  | Error e -> Alcotest.fail (Report.Checkpoint.error_message e)
  | Ok loaded ->
    check_string "fingerprint" t.Report.Checkpoint.fingerprint
      loaded.Report.Checkpoint.fingerprint;
    check_int "total" t.Report.Checkpoint.total_sites loaded.Report.Checkpoint.total_sites;
    check_bool "entries round-trip bit-exactly" true
      (entries_equal t.Report.Checkpoint.entries loaded.Report.Checkpoint.entries));
  Sys.remove path

let test_overwrite_is_atomic_rename () =
  let path = Filename.temp_file "serprop_ck" ".txt" in
  let t fingerprint =
    { Report.Checkpoint.fingerprint; total_sites = 1; entries = [] }
  in
  Report.Checkpoint.save ~circuit:s27 path (t "first");
  Report.Checkpoint.save ~circuit:s27 path (t "second");
  (match Report.Checkpoint.load ~circuit:s27 path with
  | Ok { Report.Checkpoint.fingerprint = "second"; _ } -> ()
  | Ok _ -> Alcotest.fail "stale snapshot survived the overwrite"
  | Error e -> Alcotest.fail (Report.Checkpoint.error_message e));
  Sys.remove path

let test_corrupt_files () =
  let reject name content =
    let path = Filename.temp_file "serprop_ck" ".txt" in
    let oc = open_out path in
    output_string oc content;
    close_out oc;
    (match Report.Checkpoint.load ~circuit:s27 path with
    | Error (Report.Checkpoint.Corrupt _) -> ()
    | Error _ -> Alcotest.fail (name ^ ": wrong error class")
    | Ok _ -> Alcotest.fail (name ^ ": accepted corrupt input"));
    Sys.remove path
  in
  reject "empty file" "";
  reject "wrong magic" "not a checkpoint\n";
  reject "missing header" "serprop-checkpoint v1\n";
  reject "bad entry tag"
    "serprop-checkpoint v1\nfingerprint x\ntotal 3\nbogus 1 2 3\n";
  reject "truncated entry"
    "serprop-checkpoint v1\nfingerprint x\ntotal 3\nok 0 b 1 1\n";
  let g17 = Netlist.Circuit.find s27 "G17" and g5 = Netlist.Circuit.find s27 "G5" in
  reject "an observation the circuit does not have"
    (Printf.sprintf
       "serprop-checkpoint v1\nfingerprint x\ntotal 3\nok 0 b 1 1 0x0p+0 1 f %d 0x0p+0\n"
       g17);
  reject "observations out of order"
    (Printf.sprintf
       "serprop-checkpoint v1\nfingerprint x\ntotal 3\nok 0 b 1 2 0x0p+0 2 f %d 0x0p+0 p %d 0x0p+0\n"
       g5 g17);
  reject "a negative fault count"
    "serprop-checkpoint v1\nfingerprint x\ntotal 3\nqr 0 \"g\" -1 -1\n";
  reject "more observations than the circuit has"
    "serprop-checkpoint v1\nfingerprint x\ntotal 3\nok 0 b 1 999999999999 0x0p+0 999999999999\n";
  reject "reached count and observation list disagree"
    (Printf.sprintf
       "serprop-checkpoint v1\nfingerprint x\ntotal 3\nok 0 b 1 2 0x0p+0 1 p %d 0x0p+0\n"
       g17);
  check_bool "missing file is Corrupt, not an exception" true
    (match Report.Checkpoint.load ~circuit:s27 "/nonexistent/serprop.ck" with
    | Error (Report.Checkpoint.Corrupt _) -> true
    | _ -> false)

(* Older versions recorded the per-site kernel rung as step "k".  A
   snapshot holding one is Corrupt like any unknown tag: resuming it is an
   error (ser_estimate --resume exits 4), never a silent replay. *)
let kernel_rung_snapshot engine =
  let path = Filename.temp_file "serprop_ck_k" ".txt" in
  let oc = open_out path in
  Printf.fprintf oc
    "serprop-checkpoint v1\nfingerprint %s\ntotal %d\nok 0 k 1 0 0x0p+0 0\n"
    (Report.Checkpoint.fingerprint engine)
    (Netlist.Circuit.node_count (Epp.Epp_engine.circuit engine));
  close_out oc;
  path

let test_kernel_step_rejected () =
  let engine = Epp.Epp_engine.create (Circuit_gen.Embedded.s27 ()) in
  let path = kernel_rung_snapshot engine in
  (match Report.Checkpoint.load ~circuit:(Epp.Epp_engine.circuit engine) path with
  | Error (Report.Checkpoint.Corrupt { message; _ }) ->
    check_string "names the tag" "unknown step tag \"k\"" message
  | Error e -> Alcotest.fail (Report.Checkpoint.error_message e)
  | Ok _ -> Alcotest.fail "loaded a kernel-rung snapshot");
  (match
     Report.Checkpoint.supervised_sweep ~domains:1 ~checkpoint:path ~resume:true
       engine
   with
  | Error (Report.Checkpoint.Corrupt _) -> ()
  | Error e -> Alcotest.fail (Report.Checkpoint.error_message e)
  | Ok _ -> Alcotest.fail "resumed a kernel-rung snapshot");
  let err = Filename.temp_file "serprop_ck_k" ".err" in
  let code =
    Sys.command
      (Printf.sprintf
         "%s embedded:s27 --resume --checkpoint %s > /dev/null 2> %s" ser_estimate_exe
         (Filename.quote path) (Filename.quote err))
  in
  let stderr = In_channel.with_open_text err In_channel.input_all in
  check_int "ser_estimate --resume exits 4" 4 code;
  check_bool "on the corrupt snapshot, not a fingerprint mismatch" true
    (String.starts_with ~prefix:"ser_estimate: corrupt checkpoint" stderr);
  Sys.remove err;
  Sys.remove path

let test_fingerprint_keys () =
  let c1 = fig1 () in
  let c2 = small_tree () in
  let e1 = Epp.Epp_engine.create c1 in
  let e2 = Epp.Epp_engine.create c2 in
  let f1 = Report.Checkpoint.fingerprint e1 in
  check_string "deterministic" f1 (Report.Checkpoint.fingerprint e1);
  check_bool "circuit changes it" true (f1 <> Report.Checkpoint.fingerprint e2);
  let sp = fig1_spec c1 in
  let e1_sp =
    Epp.Epp_engine.create ~sp:(Sigprob.Sp_topological.compute ~spec:sp c1) c1
  in
  check_bool "sp changes it" true (f1 <> Report.Checkpoint.fingerprint e1_sp)

(* The fingerprint must stay byte-stable: s27's digest is the one older
   snapshots carry (their tail still names a mode and a cone flag), so
   they still resume. *)
let test_fingerprint_pinned () =
  check_string "s27"
    "55f8c535fb6e05d5ee2927f9cf9c0437"
    (Report.Checkpoint.fingerprint
       (Epp.Epp_engine.create (Circuit_gen.Embedded.s27 ())))

let read_text path = In_channel.with_open_bin path In_channel.input_all

(* A complete sweep's snapshot, as ser_estimate --checkpoint writes it: a
   fresh header, then one append per chunk (62 sites here, so s1196:3
   takes ten).  It has the bytes [save] writes for the whole outcome, and
   its [checkpoint.bytes_written] is its size: each entry is written once. *)
let snapshot_of c =
  let engine = Epp.Epp_engine.create c in
  let path = Filename.temp_file "serprop_ck_pin" ".txt" in
  let reg = Obs.Metrics.create () in
  Obs.Hooks.set_metrics reg;
  let outcome =
    Fun.protect ~finally:Obs.Hooks.reset (fun () ->
        match
          Report.Checkpoint.supervised_sweep ~domains:1 ~chunk_size:62
            ~checkpoint:path engine
        with
        | Ok outcome -> outcome
        | Error e -> Alcotest.fail (Report.Checkpoint.error_message e))
  in
  let text = read_text path in
  check_int "bytes written = the file's size" (String.length text)
    (Obs.Metrics.counter_value (Obs.Metrics.snapshot reg)
       "checkpoint.bytes_written");
  Report.Checkpoint.save ~circuit:c path
    {
      Report.Checkpoint.fingerprint = Report.Checkpoint.fingerprint engine;
      total_sites = Netlist.Circuit.node_count c;
      entries = outcome.Epp.Supervisor.entries;
    };
  check_bool "appended snapshot = saved snapshot" true (read_text path = text);
  Sys.remove path;
  text

(* A snapshot names observations by kind and node, whatever form a sweep
   keeps its results in: the bytes of two complete snapshots are pinned,
   so snapshots written by earlier versions still resume. *)
let test_snapshot_bytes_pinned () =
  let pin name c ~bytes ~md5 =
    let text = snapshot_of c in
    check_int (name ^ " bytes") bytes (String.length text);
    check_string (name ^ " md5") md5 (Digest.to_hex (Digest.string text))
  in
  pin "s27" (Circuit_gen.Embedded.s27 ()) ~bytes:1623
    ~md5:"f47340ce6225154aff134ab08a606bbb";
  pin "s1196:3"
    (Circuit_gen.Random_dag.generate ~seed:3 Circuit_gen.Profiles.s1196)
    ~bytes:171485 ~md5:"f130e638b4cddf1e7eaea919ddd94765"

(* A kill mid-append leaves an unterminated last line.  Readers ignore it
   (a malformed complete line stays Corrupt), and a resume cuts it before
   appending, so the file ends up holding every site once and the report
   is bit-identical to an uninterrupted sweep's. *)
let test_torn_tail () =
  let c = Circuit_gen.Random_dag.generate ~seed:3 Circuit_gen.Profiles.s1196 in
  let engine = Epp.Epp_engine.create c in
  let n = Netlist.Circuit.node_count c in
  let fingerprint = Report.Checkpoint.fingerprint engine in
  let path = Filename.temp_file "serprop_ck_torn" ".txt" in
  let record = Report.Checkpoint.recorder ~circuit:c path ~fingerprint in
  (try
     ignore
       (Epp.Supervisor.sweep_all ~domains:1 ~chunk_size:62
          ~on_chunk:(fun ~done_count ~total entries ->
            record ~done_count ~total entries;
            if done_count >= 124 then raise Exit)
          engine)
   with Exit -> ());
  let whole = read_text path in
  (* the first half of the next entry's line, as a killed append leaves it *)
  let next =
    let lines = String.split_on_char '\n' whole in
    List.nth lines (List.length lines - 2)
  in
  Out_channel.with_open_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path (fun oc ->
      output_string oc (String.sub next 0 (String.length next / 2)));
  let sites () =
    match Report.Checkpoint.load ~circuit:c path with
    | Ok t -> List.map fst t.Report.Checkpoint.entries
    | Error e -> Alcotest.fail (Report.Checkpoint.error_message e)
  in
  check_bool "load ignores the torn line" true (sites () = List.init 124 Fun.id);
  (match Report.Checkpoint.replay ~circuit:c path ~fingerprint with
  | Ok entries -> check_int "replay ignores the torn line" 124 (List.length entries)
  | Error e -> Alcotest.fail (Report.Checkpoint.error_message e));
  (match
     Report.Checkpoint.supervised_sweep ~domains:1 ~chunk_size:62
       ~checkpoint:path ~resume:true engine
   with
  | Error e -> Alcotest.fail (Report.Checkpoint.error_message e)
  | Ok resumed ->
    check_int "the complete lines are resumed" 124
      resumed.Epp.Supervisor.stats.Epp.Diag.resumed;
    check_bool "the report is an uninterrupted sweep's" true
      (Int64.equal
         (Int64.bits_of_float
            (Epp.Ser_estimator.of_outcome engine resumed).Epp.Ser_estimator.total_fit)
         (Int64.bits_of_float (Epp.Ser_estimator.estimate c).Epp.Ser_estimator.total_fit)));
  check_bool "the resume cut the torn line and appended every other site" true
    (sites () = List.init n Fun.id);
  (* the torn line, terminated, is a malformed complete line *)
  Out_channel.with_open_bin path (fun oc ->
      output_string oc whole;
      output_string oc (String.sub next 0 (String.length next / 2));
      output_string oc "\n");
  (match Report.Checkpoint.load ~circuit:c path with
  | Error (Report.Checkpoint.Corrupt _) -> ()
  | Error e -> Alcotest.fail (Report.Checkpoint.error_message e)
  | Ok _ -> Alcotest.fail "accepted a malformed complete line");
  Sys.remove path

(* A snapshot in the format entries with observation lists were written
   in — built here from the list-shaped site results, not by the
   checkpoint writer — replays to exactly the entries of a fresh sweep. *)
let test_list_format_snapshot_replays () =
  let c = Circuit_gen.Random_dag.generate ~seed:3 Circuit_gen.Profiles.s1196 in
  let engine = Epp.Epp_engine.create c in
  let fingerprint = Report.Checkpoint.fingerprint engine in
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "serprop-checkpoint v1\nfingerprint %s\ntotal %d\n"
    fingerprint (Netlist.Circuit.node_count c);
  List.iter
    (fun (r : Epp.Epp_engine.site_result) ->
      Printf.bprintf buf "ok %d b %d %d %h %d" r.site r.cone_size r.reached_outputs
        r.p_sensitized (List.length r.per_observation);
      List.iter
        (fun (o, p) ->
          match o with
          | Netlist.Circuit.Po net -> Printf.bprintf buf " p %d %h" net p
          | Netlist.Circuit.Ff_data ff -> Printf.bprintf buf " f %d %h" ff p)
        r.per_observation;
      Buffer.add_char buf '\n')
    (Epp.Ser_estimator.analyze_all engine);
  let path = Filename.temp_file "serprop_ck_lists" ".txt" in
  Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc buf);
  (match Report.Checkpoint.replay ~circuit:c path ~fingerprint with
  | Error e -> Alcotest.fail (Report.Checkpoint.error_message e)
  | Ok entries ->
    check_bool "replayed entries equal a fresh sweep's" true
      (entries_equal entries
         (Epp.Supervisor.sweep_all ~domains:1 engine).Epp.Supervisor.entries));
  Sys.remove path

(* The v2 fingerprint length-prefixes every name before digesting. Under the
   old raw interpolation, two circuits whose names merely split differently
   ("ab"/"c" vs "a"/"bc") fed identical bytes to the digest and aliased —
   exactly the kind of collision that would let a checkpoint from one netlist
   resume onto another. *)
let test_fingerprint_v2_injective_names () =
  let build n1 n2 =
    let b = Netlist.Builder.create ~name:"alias" () in
    Netlist.Builder.add_input b n1;
    Netlist.Builder.add_input b n2;
    Netlist.Builder.add_gate b ~output:"g" ~kind:Netlist.Gate.And [ n1; n2 ];
    Netlist.Builder.add_output b "g";
    Netlist.Builder.freeze b
  in
  let f names = Report.Checkpoint.fingerprint (Epp.Epp_engine.create names) in
  check_bool "name-boundary shift changes the fingerprint" true
    (f (build "ab" "c") <> f (build "a" "bc"));
  check_bool "pure rename changes the fingerprint" true
    (f (build "x" "y") <> f (build "x" "z"))

(* Kill-edit-restart: a run checkpoints, the process dies, the circuit is
   edited, and the operator restarts with --resume against the old snapshot.
   The post-edit engine must carry a fresh fingerprint so the stale snapshot
   is rejected rather than spliced into results for a different netlist. *)
let test_stale_snapshot_rejected_after_edit () =
  let c = fig1 () in
  let engine = Epp.Epp_engine.create c in
  let path = Filename.temp_file "serprop_ck" ".txt" in
  (match Report.Checkpoint.supervised_sweep ~domains:1 ~checkpoint:path engine with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Report.Checkpoint.error_message e));
  let _, d = Netlist.Transform.insert_identity_delta c ~net:0 in
  let engine', _ = Epp.Incremental.rebase engine d in
  check_bool "edit refreshes the engine fingerprint" true
    (Report.Checkpoint.fingerprint engine
    <> Report.Checkpoint.fingerprint engine');
  (match
     Report.Checkpoint.supervised_sweep ~domains:1 ~checkpoint:path ~resume:true
       engine'
   with
  | Error (Report.Checkpoint.Fingerprint_mismatch _) -> ()
  | Error e -> Alcotest.fail (Report.Checkpoint.error_message e)
  | Ok _ -> Alcotest.fail "resumed a pre-edit snapshot onto the edited circuit");
  Sys.remove path

let test_resume_without_file () =
  let c = fig1 () in
  let engine = Epp.Epp_engine.create c in
  (* A path that does not exist yet — supervised_sweep will create it at the
     end of the run, so delete it afterwards to keep the test stateless. *)
  let path = Filename.temp_file "serprop_ck_missing" ".txt" in
  Sys.remove path;
  (match
     Report.Checkpoint.supervised_sweep ~domains:1 ~resume:true ~checkpoint:path
       engine
   with
  | Ok outcome ->
    check_int "nothing resumed" 0 outcome.Epp.Supervisor.stats.Epp.Diag.resumed;
    check_int "everything analyzed" (Netlist.Circuit.node_count c)
      (List.length outcome.Epp.Supervisor.entries)
  | Error e -> Alcotest.fail (Report.Checkpoint.error_message e));
  if Sys.file_exists path then Sys.remove path

let test_mismatch_rejected () =
  let c1 = fig1 () in
  let c2 = small_tree () in
  let e1 = Epp.Epp_engine.create c1 in
  let e2 = Epp.Epp_engine.create c2 in
  let path = Filename.temp_file "serprop_ck" ".txt" in
  (match Report.Checkpoint.supervised_sweep ~domains:1 ~checkpoint:path e1 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Report.Checkpoint.error_message e));
  (match
     Report.Checkpoint.supervised_sweep ~domains:1 ~checkpoint:path ~resume:true e2
   with
  | Error (Report.Checkpoint.Fingerprint_mismatch _) -> ()
  | Error e -> Alcotest.fail (Report.Checkpoint.error_message e)
  | Ok _ -> Alcotest.fail "accepted a snapshot from a different circuit");
  Sys.remove path

(* --- the %h writer ----------------------------------------------------------- *)

let hex_of x =
  let buf = Buffer.create 32 in
  Report.Checkpoint.add_hex_float buf x;
  Buffer.contents buf

let same_as_printf x = String.equal (hex_of x) (Printf.sprintf "%h" x)

(* The edges of the format: both zeros, the subnormal range, the largest
   finite values, the infinities, and NaNs of both signs (OCaml prints a
   NaN whose sign bit is set as "-nan"). *)
let test_hex_float_edges () =
  let bits = Int64.float_of_bits in
  List.iter
    (fun x ->
      check_string (Printf.sprintf "%Lx" (Int64.bits_of_float x)) (Printf.sprintf "%h" x) (hex_of x))
    [
      0.0; -0.0; 1.0; -1.0; 0.5; 0.1; 1.0 /. 3.0; 2.0; 1e300; -1e-300;
      Float.min_float; -.Float.min_float; Float.max_float; -.Float.max_float;
      bits 1L; bits 0x8000_0000_0000_0001L; bits 0x000F_FFFF_FFFF_FFFFL;
      bits 0x0008_0000_0000_0000L; bits 0x800F_0000_0000_0000L;
      Float.infinity; Float.neg_infinity; Float.nan; -.Float.nan;
      bits 0x7FF0_0000_0000_0001L; bits 0xFFF8_0000_0000_0000L; bits 0xFFFF_FFFF_FFFF_FFFFL;
    ]

let prop_hex_float_random_bits =
  qtest ~count:2000 ~name:"%h writer = Printf on random 64-bit patterns"
    QCheck2.Gen.(map2 (fun hi lo -> Int64.(logor (shift_left (of_int hi) 32) (of_int lo)))
                   (int_bound 0xFFFF_FFFF) (int_bound 0xFFFF_FFFF))
    (fun b -> same_as_printf (Int64.float_of_bits b))

let () =
  Alcotest.run "checkpoint"
    [
      ( "format",
        [
          Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "atomic overwrite" `Quick test_overwrite_is_atomic_rename;
          Alcotest.test_case "corrupt files" `Quick test_corrupt_files;
          Alcotest.test_case "kernel-rung snapshot rejected" `Quick
            test_kernel_step_rejected;
          Alcotest.test_case "torn last line" `Quick test_torn_tail;
          Alcotest.test_case "%h writer on the edges" `Quick test_hex_float_edges;
          prop_hex_float_random_bits;
        ] );
      ( "keying",
        [
          Alcotest.test_case "fingerprint keys" `Quick test_fingerprint_keys;
          Alcotest.test_case "fingerprint pinned" `Quick test_fingerprint_pinned;
          Alcotest.test_case "snapshot bytes pinned" `Quick
            test_snapshot_bytes_pinned;
          Alcotest.test_case "list-format snapshot replays" `Quick
            test_list_format_snapshot_replays;
          Alcotest.test_case "v2 injective encoding" `Quick
            test_fingerprint_v2_injective_names;
          Alcotest.test_case "stale snapshot rejected after edit" `Quick
            test_stale_snapshot_rejected_after_edit;
          Alcotest.test_case "resume without file" `Quick test_resume_without_file;
          Alcotest.test_case "mismatch rejected" `Quick test_mismatch_rejected;
        ] );
    ]
