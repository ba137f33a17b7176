(* The process-wide telemetry sinks.

   Instrumented modules read the current sinks at a natural registration
   point (workspace creation, the top of a sweep or a save) and hold the
   handles; the CLIs install live sinks before building the pipeline.  The
   defaults are the no-op sinks, so an uninstrumented process pays only the
   pattern match inside each instrument operation.

   The cells are [Atomic] for publication safety: a sink installed by the
   main domain before spawning workers is visible to them.

   The logger cell lives in [Log] (the module that reads it on every
   emit); this module re-exports it so installation stays in one place.
   The progress renderer is a cell here because [Progress] consumes it —
   null means a progress meter renders nothing, which is the default. *)

let metrics_cell = Atomic.make Metrics.null
let tracer_cell = Atomic.make Trace.null

let metrics () = Atomic.get metrics_cell
let tracer () = Atomic.get tracer_cell

let set_metrics m = Atomic.set metrics_cell m
let set_tracer t = Atomic.set tracer_cell t

let logger = Log.sink
let set_logger = Log.set_sink

type progress_renderer = {
  update : string -> unit;
  finalize : string -> unit;
}

let progress_cell : progress_renderer option Atomic.t = Atomic.make None
let progress () = Atomic.get progress_cell
let set_progress r = Atomic.set progress_cell r

let reset () =
  Atomic.set metrics_cell Metrics.null;
  Atomic.set tracer_cell Trace.null;
  Log.set_sink Log.null;
  Atomic.set progress_cell None

