(* What one run reports: the output-check verdict, the operation counts,
   and the metrics by name and unit. *)

type metric = string * float * string

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  end_to_end : metric list;  (** every metric of the workload, printed by name *)
  per_layer : metric list;  (** from the traced pass; empty when untraced *)
}

(* The metrics BENCHMARK.json lists under [key] ("end_to_end" or
   "per_layer"), as (name, unit) in the file's order.  The file is the one
   list of what the JSON result line carries. *)
let declared ~file key =
  let module J = Obs.Json in
  let field k m = Option.bind (J.member k m) J.to_string_value in
  match J.parse_file file with
  | Error e -> failwith (Printf.sprintf "%s: %s" file e)
  | Ok json -> (
    match Option.bind (J.member key json) J.to_list with
    | None -> failwith (Printf.sprintf "%s: no %s list" file key)
    | Some l ->
      List.map
        (fun m ->
          match (field "name" m, field "unit" m) with
          | Some name, Some unit -> (name, unit)
          | _ -> failwith (Printf.sprintf "%s: a %s entry without name or unit" file key))
        l)

(* Every per-layer metric a workload measures must be listed, so that the
   file stays the whole list. *)
let check_listed ~declared measured =
  List.iter
    (fun (name, _, _) ->
      if not (List.mem_assoc name declared) then
        invalid_arg (name ^ " is measured but BENCHMARK.json does not list it"))
    measured

(* The declared metrics, in the file's order, with the values the run
   measured.  A declared metric the run did not measure reads [absent]; one
   measured in another unit than the declared reads nan. *)
let select ~declared ~absent measured =
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (n, _, _) -> n = name) measured with
      | Some (_, v, u) -> (name, (if u = unit then v else Float.nan), unit)
      | None -> (name, absent, unit))
    declared
