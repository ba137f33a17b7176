(* Checkpoint / resume for supervised sweeps.

   Line-oriented text format, one entry per line, floats in hexadecimal
   (%h — bit-exact round trip, including nan/infinity), strings quoted with
   %S so names and exception messages survive spaces:

     serprop-checkpoint v1
     fingerprint <md5-hex>
     total <site-count>
     ok <site> <k|r> <cone> <reached> <p_sens> <nobs> { <p|f> <net> <p> }*
     qr <site> <name> <cone|-1> <nfaults> { <k|r> <e|n|s|o> <payload> }*

   Saves are atomic AND durable: the snapshot is written to "<path>.tmp",
   fsync'd, renamed over <path>, and the parent directory is fsync'd too —
   so a sweep killed mid-write leaves the previous snapshot (or no file),
   never a torn one, and a machine that loses power right after [save]
   returns still has the rename on disk.  The fingerprint ties a snapshot
   to the exact analysis: circuit structure *and* the engine's
   signal-probability vector and mode, because resuming EPP results against
   different probabilities would be silently wrong. *)

open Netlist

type t = {
  fingerprint : string;
  total_sites : int;
  entries : (int * Epp.Supervisor.entry) list;
}

type error =
  | Fingerprint_mismatch of { expected : string; found : string }
  | Corrupt of { path : string; message : string }

let error_message = function
  | Fingerprint_mismatch { expected; found } ->
    Printf.sprintf
      "checkpoint belongs to a different analysis (fingerprint %s, expected %s)"
      found expected
  | Corrupt { path; message } ->
    Printf.sprintf "corrupt checkpoint %s: %s" path message

(* --- fingerprint --------------------------------------------------------- *)

(* v2 encoding.  v1 interpolated node names raw ("=%s;"), so a name
   containing the separator characters could alias a different structure —
   concretely, an edited circuit could digest identically to its pre-edit
   form and a stale snapshot would be silently replayed (the kill-edit-
   restart scenario in test_checkpoint.ml).  v2 is injective: a version
   tag, every string length-prefixed, every section length-prefixed, and
   the interface (inputs/outputs/FFs) encoded explicitly rather than
   inferred. *)
let fingerprint engine =
  let c = Epp.Epp_engine.circuit engine in
  (* about 60 bytes a node (definition, name, sp bits): sized up front so
     the buffer is not regrown and copied on the way *)
  let buf = Buffer.create (64 * (Circuit.node_count c + 64)) in
  (* Hand-rolled emission (no Printf, no intermediate strings): this runs
     on every serd edit, over every node.  [decimal] writes what
     [string_of_int] would. *)
  let rec digits i =
    if i >= 10 then digits (i / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 + (i mod 10)))
  in
  let decimal i =
    if i >= 0 then digits i else Buffer.add_string buf (string_of_int i)
  in
  let add_int i =
    decimal i;
    Buffer.add_char buf ','
  in
  let str s =
    decimal (String.length s);
    Buffer.add_char buf ':';
    Buffer.add_string buf s
  in
  Buffer.add_string buf "serprop-fp-v2\000";
  str (Circuit.name c);
  let n = Circuit.node_count c in
  Buffer.add_char buf 'n';
  add_int n;
  for v = 0 to n - 1 do
    (match Circuit.node c v with
    | Circuit.Input -> Buffer.add_char buf 'i'
    | Circuit.Ff { data } ->
      Buffer.add_char buf 'F';
      add_int data
    | Circuit.Gate { kind; fanins } ->
      Buffer.add_char buf 'g';
      add_int (Array.length fanins);
      str (Gate.to_string kind);
      Array.iter add_int fanins);
    str (Circuit.node_name c v);
    Buffer.add_char buf ';'
  done;
  let section tag ids =
    Buffer.add_char buf tag;
    add_int (List.length ids);
    List.iter add_int ids
  in
  section 'I' (Circuit.inputs c);
  section 'O' (Circuit.outputs c);
  section 'Q' (Circuit.ffs c);
  (* The sp values the engine will actually read, bit-exact. *)
  let sp = Epp.Epp_engine.signal_probabilities engine in
  Array.iter
    (fun x ->
      let bits = Int64.bits_of_float x in
      (* the bits of a float in [0, 1] fit a non-negative OCaml int *)
      if Int64.compare bits 0L >= 0 && Int64.compare bits (Int64.of_int max_int) <= 0
      then digits (Int64.to_int bits)
      else Buffer.add_string buf (Int64.to_string bits);
      Buffer.add_char buf ';')
    sp.Sigprob.Sp.values;
  Printf.bprintf buf "mode=%s;cone=%b"
    (match Epp.Epp_engine.mode engine with
    | Epp.Epp_engine.Polarity -> "polarity"
    | Epp.Epp_engine.Naive -> "naive")
    (Epp.Epp_engine.restrict_to_cone engine);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* --- writing ------------------------------------------------------------- *)

let step_tag = function
  | Epp.Diag.Batch -> "b"
  | Epp.Diag.Kernel -> "k"
  | Epp.Diag.Reference -> "r"

let write_fault buf (step, fault) =
  Printf.bprintf buf " %s" (step_tag step);
  match fault with
  | Epp.Diag.Exception { exn } -> Printf.bprintf buf " e %S" exn
  | Epp.Diag.Nan { where } -> Printf.bprintf buf " n %S" where
  | Epp.Diag.Sum_defect { defect; tolerance } ->
    Printf.bprintf buf " s %h %h" defect tolerance
  | Epp.Diag.Out_of_range { where; value } ->
    Printf.bprintf buf " o %S %h" where value

let write_entry buf (site, entry) =
  match entry with
  | Epp.Supervisor.Analyzed { result = r; step } ->
    Printf.bprintf buf "ok %d %s %d %d %h %d" site (step_tag step)
      r.Epp.Epp_engine.cone_size r.Epp.Epp_engine.reached_outputs
      r.Epp.Epp_engine.p_sensitized
      (List.length r.Epp.Epp_engine.per_observation);
    List.iter
      (fun (obs, p) ->
        match obs with
        | Circuit.Po net -> Printf.bprintf buf " p %d %h" net p
        | Circuit.Ff_data node -> Printf.bprintf buf " f %d %h" node p)
      r.Epp.Epp_engine.per_observation;
    Buffer.add_char buf '\n'
  | Epp.Supervisor.Quarantined q ->
    Printf.bprintf buf "qr %d %S %d %d" site q.Epp.Diag.name
      (match q.Epp.Diag.cone_size with
      | Some k -> k
      | None -> -1)
      (List.length q.Epp.Diag.faults);
    List.iter (write_fault buf) q.Epp.Diag.faults;
    Buffer.add_char buf '\n'

let save ?ctx path t =
  let m = Obs.Hooks.metrics () in
  Obs.Trace.span (Obs.Hooks.tracer ()) ~cat:"checkpoint"
    ~args:(Obs.Ctx.args_of ctx) "checkpoint.save"
  @@ fun () ->
  let t0 =
    if Obs.Metrics.is_null m then 0.0 else Obs.Clock.wall_seconds ()
  in
  let buf = Buffer.create (4096 + (64 * List.length t.entries)) in
  Buffer.add_string buf "serprop-checkpoint v1\n";
  Printf.bprintf buf "fingerprint %s\n" t.fingerprint;
  Printf.bprintf buf "total %d\n" t.total_sites;
  List.iter (write_entry buf) t.entries;
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Buffer.output_buffer oc buf;
      flush oc;
      (* Data must hit the disk before the rename can point at it, or a
         crash after [save] returns could expose a renamed-but-empty file. *)
      Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename tmp path;
  (* The rename itself lives in the directory; fsync it so the new name
     survives power loss.  Some filesystems reject fsync on a directory fd —
     losing durability there is acceptable, losing atomicity is not. *)
  (try
     let dir = Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 in
     Fun.protect
       ~finally:(fun () -> try Unix.close dir with Unix.Unix_error _ -> ())
       (fun () -> Unix.fsync dir)
   with Unix.Unix_error _ -> ());
  Obs.Metrics.incr (Obs.Metrics.counter m "checkpoint.snapshots");
  Obs.Metrics.add (Obs.Metrics.counter m "checkpoint.bytes_written")
    (Buffer.length buf);
  if not (Obs.Metrics.is_null m) then
    Obs.Metrics.observe
      (Obs.Metrics.histogram m "checkpoint.save_seconds")
      (Obs.Clock.wall_seconds () -. t0);
  Obs.Log.emit ?ctx
    ~fields:
      [
        ("path", Obs.Json.String path);
        ("entries", Obs.Json.int (List.length t.entries));
      ]
    Obs.Log.Info "checkpoint.save"

(* --- reading ------------------------------------------------------------- *)

(* Floats travel as whitespace-free tokens (%h output), so a plain %s token
   read plus float_of_string round-trips them bit-exactly — Scanf's own
   float directives don't accept the hex form. *)
let read_int ib = Scanf.bscanf ib " %d" Fun.id
let read_string ib = Scanf.bscanf ib " %S" Fun.id
let read_token ib = Scanf.bscanf ib " %s" Fun.id
let read_float ib = float_of_string (read_token ib)

let read_step ib =
  match read_token ib with
  | "b" -> Epp.Diag.Batch
  | "k" -> Epp.Diag.Kernel
  | "r" -> Epp.Diag.Reference
  | s -> failwith (Printf.sprintf "unknown step tag %S" s)

let read_fault ib =
  let step = read_step ib in
  let fault =
    match read_token ib with
    | "e" -> Epp.Diag.Exception { exn = read_string ib }
    | "n" -> Epp.Diag.Nan { where = read_string ib }
    | "s" ->
      let defect = read_float ib in
      let tolerance = read_float ib in
      Epp.Diag.Sum_defect { defect; tolerance }
    | "o" ->
      let where = read_string ib in
      Epp.Diag.Out_of_range { where; value = read_float ib }
    | s -> failwith (Printf.sprintf "unknown fault tag %S" s)
  in
  (step, fault)

let read_entry_line line =
  let ib = Scanf.Scanning.from_string line in
  match read_token ib with
  | "ok" ->
    let site = read_int ib in
    let step = read_step ib in
    let cone_size = read_int ib in
    let reached_outputs = read_int ib in
    let p_sensitized = read_float ib in
    let nobs = read_int ib in
    let per_observation =
      List.init nobs (fun _ ->
          let obs =
            match read_token ib with
            | "p" -> Circuit.Po (read_int ib)
            | "f" -> Circuit.Ff_data (read_int ib)
            | s -> failwith (Printf.sprintf "unknown observation tag %S" s)
          in
          (obs, read_float ib))
    in
    ( site,
      Epp.Supervisor.Analyzed
        {
          result =
            {
              Epp.Epp_engine.site;
              p_sensitized;
              per_observation;
              cone_size;
              reached_outputs;
            };
          step;
        } )
  | "qr" ->
    let site = read_int ib in
    let name = read_string ib in
    let cone = read_int ib in
    let nfaults = read_int ib in
    let faults = List.init nfaults (fun _ -> read_fault ib) in
    ( site,
      Epp.Supervisor.Quarantined
        {
          Epp.Diag.site;
          name;
          cone_size = (if cone < 0 then None else Some cone);
          faults;
        } )
  | s -> failwith (Printf.sprintf "unknown entry tag %S" s)

let load path =
  Obs.Trace.span (Obs.Hooks.tracer ()) ~cat:"checkpoint" "checkpoint.load"
  @@ fun () ->
  let corrupt message = Error (Corrupt { path; message }) in
  match open_in path with
  | exception Sys_error msg -> corrupt msg
  | ic ->
    let lines = ref [] in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try
          while true do
            lines := input_line ic :: !lines
          done
        with End_of_file -> ());
    (match List.rev !lines with
    | header :: rest when String.trim header = "serprop-checkpoint v1" -> (
      match rest with
      | fp_line :: total_line :: entry_lines -> (
        try
          let fingerprint =
            Scanf.sscanf fp_line " fingerprint %s" Fun.id
          in
          let total_sites = Scanf.sscanf total_line " total %d" Fun.id in
          let entries =
            entry_lines
            |> List.filter (fun l -> String.trim l <> "")
            |> List.map read_entry_line
          in
          Ok { fingerprint; total_sites; entries }
        with
        | Scanf.Scan_failure msg | Failure msg -> corrupt msg
        | End_of_file -> corrupt "truncated entry")
      | _ -> corrupt "missing fingerprint/total header")
    | _ -> corrupt "not a serprop checkpoint")

(* --- the resumable supervised sweep -------------------------------------- *)

let by_site (a, _) (b, _) = compare (a : int) b

let supervised_sweep ?ctx ?domains ?tolerance ?chunk_size ?checkpoint
    ?(resume = false) ?on_progress ?batch ?kernel ?reference ?deadline engine =
  let circuit = Epp.Epp_engine.circuit engine in
  let n = Circuit.node_count circuit in
  let fp = fingerprint engine in
  let preloaded =
    if not resume then Ok []
    else
      match checkpoint with
      | Some path when Sys.file_exists path -> (
        match load path with
        | Ok t when t.fingerprint = fp -> Ok t.entries
        | Ok t ->
          Error (Fingerprint_mismatch { expected = fp; found = t.fingerprint })
        | Error e -> Error e)
      | _ -> Ok []
  in
  match preloaded with
  | Error e -> Error e
  | Ok preloaded ->
    let have = Hashtbl.create (max 16 (List.length preloaded)) in
    List.iter (fun (s, _) -> Hashtbl.replace have s ()) preloaded;
    let remaining =
      List.filter (fun s -> not (Hashtbl.mem have s)) (List.init n Fun.id)
    in
    let completed = ref preloaded in
    let snapshot () =
      match checkpoint with
      | None -> ()
      | Some path ->
        save ?ctx path
          {
            fingerprint = fp;
            total_sites = n;
            entries = List.sort by_site !completed;
          }
    in
    (* Progress reports overall coverage: replayed entries count as done
       even though the sweep only iterates the remainder. *)
    let resumed_count = List.length preloaded in
    if resumed_count > 0 then
      Obs.Log.emit ?ctx
        ~fields:
          [
            ( "path",
              match checkpoint with
              | Some p -> Obs.Json.String p
              | None -> Obs.Json.Null );
            ("resumed", Obs.Json.int resumed_count);
          ]
        Obs.Log.Info "checkpoint.resume";
    let on_chunk ~done_count ~total:_ entries =
      completed := entries @ !completed;
      snapshot ();
      match on_progress with
      | Some f -> f ~done_count:(resumed_count + done_count) ~total:n
      | None -> ()
    in
    let inner =
      Epp.Supervisor.sweep ?ctx ?domains ?tolerance ?chunk_size ~on_chunk
        ?batch ?kernel ?reference ?deadline engine remaining
    in
    snapshot ();
    let entries = List.sort by_site !completed in
    (* Replayed entries count as analyzed work when the budget cut the
       fresh sweep short — the caller sees overall coverage of [n]. *)
    let completion =
      match inner.Epp.Supervisor.completion with
      | Epp.Diag.Complete -> Epp.Diag.Complete
      | Epp.Diag.Deadline_expired { analyzed; remaining; budget_seconds } ->
        Epp.Diag.Deadline_expired
          { analyzed = resumed_count + analyzed; remaining; budget_seconds }
    in
    Ok
      {
        Epp.Supervisor.entries;
        stats = Epp.Supervisor.stats_of_entries ~resumed:resumed_count entries;
        completion;
      }
