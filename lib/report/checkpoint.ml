(* Checkpoint / resume for supervised sweeps.

   Line-oriented text format, one entry per line, floats in hexadecimal
   (%h — bit-exact round trip, including nan/infinity), strings quoted with
   %S so names and exception messages survive spaces:

     serprop-checkpoint v1
     fingerprint <md5-hex>
     total <site-count>
     ok <site> <b|r> <cone> <reached> <p_sens> <nobs> { <p|f> <net> <p> }*
     qr <site> <name> <cone|-1> <nfaults> { <b|r> <e|n|s|o> <payload> }*

   The step tags name the ladder rungs, batch and reference.  Any other tag
   makes the snapshot Corrupt — including the "k" of the per-site kernel
   rung older versions wrote, so such a snapshot is re-swept, not replayed.

   An entry's row names its reached observation points by position in the
   circuit's observations; the file names them by kind and node ("p 9",
   "f 4"), as it always has, so writing translates positions through the
   circuit's observations and reading translates them back.  <reached>
   and <nobs> are both the row's reached count.

   A file is created atomically AND durably: it is written to
   "<path>.tmp", fsync'd, renamed over <path>, and the parent directory is
   fsync'd too — so a kill mid-write leaves the previous file (or none),
   and a machine that loses power right after [save] returns still has the
   rename on disk.  A sweep then appends each chunk's entries and fsyncs
   them before the next chunk starts: every finished entry is written
   once.  A kill mid-append can leave an unterminated last line; readers
   ignore it and the next append cuts it.  The fingerprint ties a snapshot
   to the exact analysis: circuit structure *and* the engine's
   signal-probability vector, because resuming EPP results against
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

(* --- emission ----------------------------------------------------------- *)

(* Hand-rolled emission (no Printf, no intermediate strings): the
   fingerprint runs on every serd edit over every node, and a checkpoint
   writes a line per analyzed site and a float per reached observation.
   [add_decimal] writes what [string_of_int] would. *)
let rec add_digits buf i =
  if i >= 10 then add_digits buf (i / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (i mod 10)))

let add_decimal buf i = if i >= 0 then add_digits buf i else Buffer.add_string buf (string_of_int i)

let hex_digits = "0123456789abcdef"

(* What [Printf.bprintf buf "%h" x] writes: the runtime's hexadecimal form
   with as many digits as needed ("0x1.8p-1", "-0x0p+0", subnormals as
   "0x0.<digits>p-1022"), and "infinity" / "nan" after the sign bit's '-'
   (a NaN with its sign bit set prints as "-nan"). *)
let add_hex_float buf x =
  let bits = Int64.bits_of_float x in
  let top = Int64.to_int (Int64.shift_right_logical bits 52) in
  let exponent = top land 0x7ff in
  let mantissa = Int64.to_int (Int64.logand bits 0xF_FFFF_FFFF_FFFFL) in
  if top lsr 11 = 1 then Buffer.add_char buf '-';
  if exponent = 0x7ff then Buffer.add_string buf (if mantissa = 0 then "infinity" else "nan")
  else begin
    Buffer.add_string buf (if exponent = 0 then "0x0" else "0x1");
    if mantissa <> 0 then begin
      Buffer.add_char buf '.';
      (* 13 hex digits, most significant first, trailing zeros dropped *)
      let rest = ref mantissa and shift = ref 48 in
      while !rest <> 0 do
        Buffer.add_char buf hex_digits.[(!rest lsr !shift) land 0xf];
        rest := !rest land ((1 lsl !shift) - 1);
        shift := !shift - 4
      done
    end;
    let e =
      if exponent > 0 then exponent - 1023 else if mantissa = 0 then 0 else -1022
    in
    Buffer.add_string buf (if e < 0 then "p-" else "p+");
    add_digits buf (abs e)
  end

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
  let add_int i =
    add_decimal buf i;
    Buffer.add_char buf ','
  in
  let str s =
    add_decimal buf (String.length s);
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
      then add_digits buf (Int64.to_int bits)
      else Buffer.add_string buf (Int64.to_string bits);
      Buffer.add_char buf ';')
    sp.Sigprob.Sp.values;
  (* The tail once named the engine's mode and cone restriction.  Engines
     no longer have either, but the bytes stay, so snapshots written before
     keep their fingerprint and still resume. *)
  Buffer.add_string buf "mode=polarity;cone=true";
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* --- writing ------------------------------------------------------------- *)

let step_tag = function
  | Epp.Diag.Batch -> "b"
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

(* The fields of an analyzed site's line, each after a space.  Every
   analyzed site and every observation it reaches writes them, so they
   skip Printf; the rare quarantine lines keep it. *)
let int_field buf i =
  Buffer.add_char buf ' ';
  add_decimal buf i

let float_field buf x =
  Buffer.add_char buf ' ';
  add_hex_float buf x

let write_entry buf observations (site, entry) =
  match entry with
  | Epp.Supervisor.Analyzed { row = r; step } ->
    let reached = Epp.Site_row.reached r in
    Buffer.add_string buf "ok";
    int_field buf site;
    Buffer.add_char buf ' ';
    Buffer.add_string buf (step_tag step);
    int_field buf r.Epp.Site_row.cone_size;
    int_field buf reached;
    float_field buf r.Epp.Site_row.p_sensitized;
    int_field buf reached;
    let positions = r.Epp.Site_row.positions in
    for j = 0 to Array.length positions - 1 do
      (match fst observations.(positions.(j)) with
      | Circuit.Po net ->
        Buffer.add_string buf " p";
        int_field buf net
      | Circuit.Ff_data node ->
        Buffer.add_string buf " f";
        int_field buf node);
      float_field buf r.Epp.Site_row.probabilities.(j)
    done;
    Buffer.add_char buf '\n'
  | Epp.Supervisor.Quarantined q ->
    Printf.bprintf buf "qr %d %S %d %d" site q.Epp.Diag.name
      (match q.Epp.Diag.cone_size with
      | Some k -> k
      | None -> -1)
      (List.length q.Epp.Diag.faults);
    List.iter (write_fault buf) q.Epp.Diag.faults;
    Buffer.add_char buf '\n'

let observations circuit = Analysis.observations (Analysis.get circuit)

(* The first [size] bytes of [path] up to and including the last newline:
   what an append cut short leaves before its unterminated last line. *)
let complete_length path size =
  In_channel.with_open_bin path @@ fun ic ->
  let block = Bytes.create 4096 in
  let rec scan stop =
    if stop = 0 then 0
    else
      let start = max 0 (stop - Bytes.length block) in
      In_channel.seek ic (Int64.of_int start);
      really_input ic block 0 (stop - start);
      match Bytes.rindex_from_opt block (stop - start - 1) '\n' with
      | Some i -> start + i + 1
      | None -> scan start
  in
  scan size

(* Replaces [path] atomically and durably: writes [path ^ ".tmp"], fsyncs
   it, renames it over [path], then fsyncs the parent directory. *)
let replace path buf =
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
  try
    let dir = Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close dir with Unix.Unix_error _ -> ())
      (fun () -> Unix.fsync dir)
  with Unix.Unix_error _ -> ()

(* Appends [buf] to [path] and fsyncs it.  An unterminated last line — an
   earlier append killed mid-write — is cut first, so the new lines never
   extend it into a malformed one. *)
let append path buf =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let size = Unix.lseek fd 0 Unix.SEEK_END in
      let keep = complete_length path size in
      if keep < size then Unix.ftruncate fd keep;
      ignore (Unix.lseek fd keep Unix.SEEK_SET);
      let data = Buffer.contents buf in
      ignore (Unix.write_substring fd data 0 (String.length data));
      Unix.fsync fd)

(* Both kinds of write are one durable snapshot each: [fill] builds the
   lines of [entries] entries, and building, writing and syncing them are
   spanned, timed and counted alike, so [checkpoint.bytes_written] of a
   fresh sweep is its file's size. *)
let write ?ctx ~entries path how fill =
  let m = Obs.Hooks.metrics () in
  Obs.Trace.span (Obs.Hooks.tracer ()) ~cat:"checkpoint"
    ~args:(Obs.Ctx.args_of ctx) "checkpoint.save"
  @@ fun () ->
  let t0 =
    if Obs.Metrics.is_null m then 0.0 else Obs.Clock.wall_seconds ()
  in
  let buf = Buffer.create (4096 + (64 * entries)) in
  fill buf;
  how path buf;
  Obs.Metrics.incr (Obs.Metrics.counter m "checkpoint.snapshots");
  Obs.Metrics.add (Obs.Metrics.counter m "checkpoint.bytes_written")
    (Buffer.length buf);
  if not (Obs.Metrics.is_null m) then
    Obs.Metrics.observe
      (Obs.Metrics.histogram m "checkpoint.save_seconds")
      (Obs.Clock.wall_seconds () -. t0);
  Obs.Log.emit ?ctx
    ~fields:
      [ ("path", Obs.Json.String path); ("entries", Obs.Json.int entries) ]
    Obs.Log.Info "checkpoint.save"

let save ?ctx ~circuit path t =
  write ?ctx ~entries:(List.length t.entries) path replace (fun buf ->
      Buffer.add_string buf "serprop-checkpoint v1\n";
      Printf.bprintf buf "fingerprint %s\n" t.fingerprint;
      Printf.bprintf buf "total %d\n" t.total_sites;
      List.iter (write_entry buf (observations circuit)) t.entries)

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

(* Where each observation point sits in the circuit's observations, by
   kind and node: what a snapshot's "p <net>" / "f <ff>" names. *)
type positions = { count : int; po : int array; ff : int array }

let positions_of circuit =
  let n = Circuit.node_count circuit in
  let observations = observations circuit in
  let t =
    {
      count = Array.length observations;
      po = Array.make n (-1);
      ff = Array.make n (-1);
    }
  in
  Array.iteri
    (fun i (obs, _) ->
      match obs with
      | Circuit.Po v -> t.po.(v) <- i
      | Circuit.Ff_data f -> t.ff.(f) <- i)
    observations;
  t

let read_entry_line pos line =
  let ib = Scanf.Scanning.from_string line in
  match read_token ib with
  | "ok" ->
    let site = read_int ib in
    let step = read_step ib in
    let cone_size = read_int ib in
    let reached = read_int ib in
    let p_sensitized = read_float ib in
    let nobs = read_int ib in
    if nobs <> reached || nobs < 0 || nobs > pos.count then
      failwith
        (Printf.sprintf "site %d lists %d observations but reached %d (of %d)"
           site nobs reached pos.count);
    let positions = Array.make nobs 0 in
    let probabilities = Array.make nobs 0.0 in
    for j = 0 to nobs - 1 do
      let table, tag =
        match read_token ib with
        | "p" -> (pos.po, "p")
        | "f" -> (pos.ff, "f")
        | s -> failwith (Printf.sprintf "unknown observation tag %S" s)
      in
      let node = read_int ib in
      let i =
        if node >= 0 && node < Array.length table then table.(node) else -1
      in
      if i < 0 || (j > 0 && i <= positions.(j - 1)) then
        failwith
          (Printf.sprintf "site %d: %s %d is not the circuit's next observation"
             site tag node);
      positions.(j) <- i;
      probabilities.(j) <- read_float ib
    done;
    ( site,
      Epp.Supervisor.Analyzed
        {
          row =
            Epp.Site_row.make ~p_sensitized ~cone_size ~positions ~probabilities;
          step;
        } )
  | "qr" ->
    let site = read_int ib in
    let name = read_string ib in
    let cone = read_int ib in
    let nfaults = read_int ib in
    if nfaults < 0 then
      failwith (Printf.sprintf "site %d lists %d faults" site nfaults);
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

(* A snapshot's header and its entry lines, not yet parsed, so that a
   replay can check the fingerprint before it reads entries against the
   circuit. *)
let read_file path =
  let corrupt message = Error (Corrupt { path; message }) in
  match open_in path with
  | exception Sys_error msg -> corrupt msg
  | ic -> (
    let lines = ref [] in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let length = in_channel_length ic in
        let torn =
          length > 0
          &&
          (seek_in ic (length - 1);
           input_char ic <> '\n')
        in
        seek_in ic 0;
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> ());
        (* an unterminated last line is an append cut short: not data *)
        if torn then lines := List.tl !lines);
    match List.rev !lines with
    | header :: rest when String.trim header = "serprop-checkpoint v1" -> (
      match rest with
      | fp_line :: total_line :: entry_lines -> (
        try
          let fingerprint =
            Scanf.sscanf fp_line " fingerprint %s" Fun.id
          in
          let total_sites = Scanf.sscanf total_line " total %d" Fun.id in
          Ok (fingerprint, total_sites, entry_lines)
        with
        | Scanf.Scan_failure msg | Failure msg -> corrupt msg
        | End_of_file -> corrupt "truncated header")
      | _ -> corrupt "missing fingerprint/total header")
    | _ -> corrupt "not a serprop checkpoint")

let read_entries ~circuit path lines =
  let pos = positions_of circuit in
  try
    Ok
      (lines
      |> List.filter (fun l -> String.trim l <> "")
      |> List.map (read_entry_line pos))
  with
  | Scanf.Scan_failure message | Failure message ->
    Error (Corrupt { path; message })
  | End_of_file -> Error (Corrupt { path; message = "truncated entry" })

let load ~circuit path =
  Obs.Trace.span (Obs.Hooks.tracer ()) ~cat:"checkpoint" "checkpoint.load"
  @@ fun () ->
  Result.bind (read_file path) (fun (fingerprint, total_sites, lines) ->
      Result.map
        (fun entries ->
          (* a resumed sweep appends its sites after the replayed ones *)
          let entries =
            List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) entries
          in
          { fingerprint; total_sites; entries })
        (read_entries ~circuit path lines))

(* --- the resumable supervised sweep -------------------------------------- *)

let replay ?ctx ~circuit path ~fingerprint =
  if not (Sys.file_exists path) then Ok []
  else
    Obs.Trace.span (Obs.Hooks.tracer ()) ~cat:"checkpoint" "checkpoint.load"
    @@ fun () ->
    match read_file path with
    | Error e -> Error e
    | Ok (found, _, _) when found <> fingerprint ->
      Error (Fingerprint_mismatch { expected = fingerprint; found })
    | Ok (_, _, lines) ->
      Result.map
        (fun entries ->
          if entries <> [] then
            Obs.Log.emit ?ctx
              ~fields:
                [
                  ("path", Obs.Json.String path);
                  ("resumed", Obs.Json.int (List.length entries));
                ]
              Obs.Log.Info "checkpoint.resume";
          entries)
        (read_entries ~circuit path lines)

let recorder ?ctx ~circuit path ~fingerprint ~done_count:_ ~total entries =
  let started =
    match Unix.stat path with
    | st -> st.Unix.st_size > 0
    | exception Unix.Unix_error _ -> false
  in
  if started then
    write ?ctx ~entries:(List.length entries) path append (fun buf ->
        List.iter (write_entry buf (observations circuit)) entries)
  else save ?ctx ~circuit path { fingerprint; total_sites = total; entries }

let supervised_sweep ?ctx ?domains ?chunk_size ?checkpoint ?(resume = false)
    ?on_progress ?batch_run ?reference ?deadline engine =
  let circuit = Epp.Epp_engine.circuit engine in
  let started =
    match checkpoint with
    | None -> Ok (None, [])
    | Some path ->
      let fingerprint = fingerprint engine in
      let record = recorder ?ctx ~circuit path ~fingerprint in
      if resume && Sys.file_exists path then
        Result.map
          (fun prior -> (Some record, prior))
          (replay ?ctx ~circuit path ~fingerprint)
      else begin
        (* a fresh file, which the recorder appends this sweep's entries to *)
        let total_sites = Circuit.node_count circuit in
        save ?ctx ~circuit path { fingerprint; total_sites; entries = [] };
        Ok (Some record, [])
      end
  in
  Result.map
    (fun (record, prior) ->
      let on_chunk ~done_count ~total entries =
        Option.iter (fun f -> f ~done_count ~total entries) record;
        Option.iter (fun f -> f ~done_count ~total) on_progress
      in
      Epp.Supervisor.sweep_all ?ctx ?domains ?chunk_size ~on_chunk ?batch_run
        ?reference ?deadline ~prior engine)
    started
