(** Typed per-site diagnostics for the supervised sweep ({!Supervisor}).

    A multi-million-site sweep must not die because one site misbehaves:
    every failure is captured as a typed {!fault} attached to the degradation
    rung ({!step}) it occurred on, and a site whose every rung failed becomes
    a {!quarantine} record in the final report instead of an exception in
    some worker domain. *)

type step =
  | Batch  (** the level-synchronous {!Epp_batch} block engine *)
  | Reference  (** the boxed {!Epp_engine.analyze_site} specification path *)

type fault =
  | Exception of { exn : string }
      (** the rung raised; [exn] is [Printexc.to_string] of the exception *)
  | Nan of { where : string }
      (** a NaN component in a vector or result (numeric sentinel) *)
  | Sum_defect of { defect : float; tolerance : float }
      (** a four-state vector sum drifted from 1 beyond tolerance *)
  | Out_of_range of { where : string; value : float }
      (** a finite probability outside [0, 1] *)

type quarantine = {
  site : int;
  name : string;  (** the site's signal name, for the report *)
  cone_size : int option;
      (** on-path signal count when the (pure, arithmetic-free) cone DFS
          still succeeds; [None] when even that fails *)
  faults : (step * fault) list;
      (** what failed at each rung, in the order the rungs were tried *)
}

type stats = {
  total : int;  (** sites swept, including resumed ones *)
  batch_ok : int;  (** sites analyzed by the batched block engine *)
  degraded : int;
      (** sites analyzed on the reference rung, after a batch-rung fault *)
  quarantined : int;
  resumed : int;
      (** sites whose entry the caller already held (a replayed checkpoint,
          a spliced edit), not re-analyzed *)
}

(** Whether a supervised sweep covered every requested site, or was cut
    short by its {!Obs.Deadline} budget.  Expiry is cooperative and loses
    nothing: [analyzed] entries are all present in the outcome, the
    [remaining] sites were simply never started. *)
type completion =
  | Complete
  | Deadline_expired of {
      analyzed : int;
      remaining : int;
      budget_seconds : float;  (** the budget the sweep was given *)
    }

val step_to_string : step -> string
val fault_to_string : fault -> string
val completion_to_string : completion -> string

val pp_step : step Fmt.t
val pp_fault : fault Fmt.t
val pp_quarantine : quarantine Fmt.t

val pp_quarantine_table : quarantine list Fmt.t
(** One row per quarantined site: id, name, cone size, the per-rung faults. *)

val pp_stats : stats Fmt.t
