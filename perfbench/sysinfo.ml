(* What the machine and runtime looked like, and how much memory a process
   peaked at. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* One "Key:   value" line of /proc/<pid>/status. *)
let status_field ~pid key =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> None
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.index_opt line ':' with
           | Some i when String.sub line 0 i = key ->
             Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
           | _ -> None)

(* VmHWM, the resident-set high-water mark, in MB (2^20 bytes). *)
let peak_rss_mb ~pid =
  match status_field ~pid "VmHWM" with
  | None -> Float.nan
  | Some v -> (
    match String.split_on_char ' ' v with
    | kb :: _ -> (
      match float_of_string_opt kb with
      | Some kb -> kb /. 1024.0
      | None -> Float.nan)
    | [] -> Float.nan)

(* CPUs this process may run on, from Cpus_allowed_list ("0-1,4"): what
   nproc prints. *)
let nproc () =
  match status_field ~pid:"self" "Cpus_allowed_list" with
  | None -> 0
  | Some list ->
    String.split_on_char ',' list
    |> List.fold_left
         (fun acc range ->
           match String.split_on_char '-' (String.trim range) with
           | [ a; b ] -> acc + (int_of_string b - int_of_string a + 1)
           | [ a ] when a <> "" -> acc + 1
           | _ -> acc)
         0

let gc_settings () =
  let g = Gc.get () in
  Printf.sprintf "OCAMLRUNPARAM=%s minor_heap_words=%d space_overhead=%d"
    (Option.value ~default:"(unset)" (Sys.getenv_opt "OCAMLRUNPARAM"))
    g.Gc.minor_heap_size g.Gc.space_overhead

(* Allocation and collections between two Gc.quick_stat readings. *)
type gc_delta = { minor : int; major : int; allocated_mb : float }

let gc_delta (a : Gc.stat) (b : Gc.stat) =
  let words s = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words in
  {
    minor = b.Gc.minor_collections - a.Gc.minor_collections;
    major = b.Gc.major_collections - a.Gc.major_collections;
    allocated_mb = (words b -. words a) *. float_of_int (Sys.word_size / 8) /. 1048576.0;
  }
