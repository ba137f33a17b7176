(** Cooperative time budgets on the monotonic clock.

    A deadline is an absolute point on {!Clock.monotonic_seconds} plus the
    budget it was created with.  Long-running engines accept an optional
    deadline and poll it at natural work boundaries — {!Epp.Supervisor}
    chunk boundaries, {!Epp.Parallel} task dispatch (one batch block per
    task) — so an expired budget ends the work {e between} units: every
    finished unit is kept, nothing is torn mid-computation, and the caller
    gets partial results plus a typed outcome instead of a killed process.

    Checking is cheap (one CLOCK_MONOTONIC read and a compare, no
    allocation), so polling once per work item is fine; {!never} short-cuts
    to a single float compare. *)

type t

val never : t
(** The absent budget: {!expired} is always [false], {!remaining} is
    [infinity].  The identity for [?deadline] defaulting. *)

val after : seconds:float -> t
(** [after ~seconds] expires [seconds] from now ([seconds <= 0] is already
    expired — a zero budget deterministically yields zero work, which the
    tests rely on). *)

val of_budget_ms : float -> t
(** [after ~seconds:(ms /. 1000.)] — the service protocol speaks
    milliseconds. *)

val is_never : t -> bool

val expired : t -> bool

val remaining : t -> float
(** Seconds until expiry, clamped to [>= 0]; [infinity] for {!never}. *)

val budget_seconds : t -> float
(** The budget this deadline was created with ([infinity] for {!never}) —
    for diagnostics, not for arithmetic. *)

