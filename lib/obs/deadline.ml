(* A deadline is a precomputed absolute expiry on the monotonic clock:
   checking costs one clock read and one compare, with no allocation, so
   engines can afford to poll per work item.  The [never] value uses an
   infinite expiry, making every check a trivially-false compare. *)

type t = {
  until : float;  (* absolute Clock.monotonic_seconds; infinity = never *)
  budget_seconds : float;
}

let never = { until = Float.infinity; budget_seconds = Float.infinity }

let after ~seconds =
  { until = Clock.monotonic_seconds () +. seconds; budget_seconds = seconds }

let of_budget_ms ms = after ~seconds:(ms /. 1000.0)
let is_never t = t.until = Float.infinity
let expired t = (not (is_never t)) && Clock.monotonic_seconds () >= t.until

let remaining t =
  if is_never t then Float.infinity
  else Float.max 0.0 (t.until -. Clock.monotonic_seconds ())

let budget_seconds t = t.budget_seconds
