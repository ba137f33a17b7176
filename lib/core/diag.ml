(* Typed per-site diagnostics for the supervised sweep.

   Pure data plus printers: the supervisor records what happened, this module
   says it.  Kept free of Epp_engine / Netlist dependencies so both the core
   drivers and the checkpoint serializer can share the vocabulary. *)

type step =
  | Batch
  | Reference

type fault =
  | Exception of { exn : string }
  | Nan of { where : string }
  | Sum_defect of { defect : float; tolerance : float }
  | Out_of_range of { where : string; value : float }

type quarantine = {
  site : int;
  name : string;
  cone_size : int option;
  faults : (step * fault) list;
}

type stats = {
  total : int;
  batch_ok : int;
  degraded : int;
  quarantined : int;
  resumed : int;
}

type completion =
  | Complete
  | Deadline_expired of {
      analyzed : int;
      remaining : int;
      budget_seconds : float;
    }

let step_to_string = function
  | Batch -> "batch"
  | Reference -> "reference"

let fault_to_string = function
  | Exception { exn } -> Printf.sprintf "exception: %s" exn
  | Nan { where } -> Printf.sprintf "NaN component in %s" where
  | Sum_defect { defect; tolerance } ->
    Printf.sprintf "vector sum defect %.3g exceeds tolerance %.3g" defect tolerance
  | Out_of_range { where; value } ->
    Printf.sprintf "%s = %h outside [0, 1]" where value

let pp_step ppf s = Fmt.string ppf (step_to_string s)
let pp_fault ppf f = Fmt.string ppf (fault_to_string f)

let pp_quarantine ppf q =
  Fmt.pf ppf "@[<v>site %d (%s)%a:@,%a@]" q.site q.name
    (fun ppf -> function
      | Some k -> Fmt.pf ppf ", cone %d" k
      | None -> ())
    q.cone_size
    Fmt.(
      list ~sep:cut (fun ppf (step, fault) ->
          pf ppf "  [%a] %a" pp_step step pp_fault fault))
    q.faults

let pp_quarantine_table ppf = function
  | [] -> Fmt.pf ppf "no quarantined sites"
  | qs ->
    Fmt.pf ppf "@[<v>%d quarantined site(s):@,%a@]" (List.length qs)
      Fmt.(list ~sep:cut pp_quarantine)
      qs

let completion_to_string = function
  | Complete -> "complete"
  | Deadline_expired { analyzed; remaining; budget_seconds } ->
    Printf.sprintf
      "deadline expired after %gs: %d site(s) analyzed, %d remaining"
      budget_seconds analyzed remaining

let pp_completion ppf c = Fmt.string ppf (completion_to_string c)

let pp_stats ppf s =
  Fmt.pf ppf
    "%d site(s): %d batch, %d degraded to reference, %d quarantined, %d \
     resumed from checkpoint"
    s.total s.batch_ok s.degraded s.quarantined s.resumed
