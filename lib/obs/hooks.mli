(** Process-wide telemetry sinks, no-op by default.

    Instrumented code obtains the current sinks here at registration points
    (workspace creation, sweep entry) — install live sinks {e before}
    constructing the pipeline.  Setting a sink from the main domain before
    spawning workers publishes it to them ([Atomic] cells). *)

val metrics : unit -> Metrics.t
(** The current metrics registry ({!Metrics.null} by default). *)

val tracer : unit -> Trace.t
(** The current span collector ({!Trace.null} by default). *)

val set_metrics : Metrics.t -> unit
val set_tracer : Trace.t -> unit

val logger : unit -> Log.t
(** The current structured-log sink ({!Log.null} by default).  Note the
    flight recorder ({!Recorder}) is fed by {!Log.emit} regardless of this
    sink. *)

val set_logger : Log.t -> unit

(** How a {!Progress} meter renders.  [update] receives a fully formatted
    status line (no newline); [finalize] receives the final line exactly
    once.  [None] — the default — makes meters silent. *)
type progress_renderer = {
  update : string -> unit;
  finalize : string -> unit;
}

val progress : unit -> progress_renderer option
val set_progress : progress_renderer option -> unit

val reset : unit -> unit
(** Back to the no-op sinks (tests).  Does not clear the flight recorder —
    use {!Recorder.clear}. *)

