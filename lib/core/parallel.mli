(** Multicore fan-out for the sweep drivers: the engine is immutable, so
    work items (batch blocks, or sites on the reference path) fan out
    across OCaml 5 domains.  Each domain claims the next work index from a
    shared [Atomic] counter (work stealing — static chunks load-imbalance
    badly because cone sizes vary by orders of magnitude) and runs it on its
    own per-domain workspace; results come back in input order.

    Exception safety: helper domains are always joined ([Fun.protect]), and
    when workers raise, the exception of the {e lowest} failing input index
    is re-raised (with its backtrace) after the join — deterministic
    regardless of domain scheduling.  Wall-clock only — the Table-2 SysT
    metric stays single-threaded. *)

val default_domains : unit -> int
(** [recommended_domain_count - 1], at least 1. *)

val map_array :
  ?ctx:Obs.Ctx.t ->
  ?domains:int ->
  ?release:('w -> unit) ->
  workspace:(unit -> 'w) ->
  f:('w -> 'a -> 'b) ->
  'a array ->
  'b array
(** Generic work-stealing fan-out: [workspace ()] is called once per
    participating domain, [f ws item] once per item, results in input order.
    [release ws] (default: nothing) runs once per workspace when its domain
    stops claiming items, also when an item raised — where the batch
    drivers hand their planes back.
    Small batches ([< 2 × domains]) run sequentially on one workspace.
    Used by {!Ser_estimator.analyze_sites} and {!Supervisor.sweep}.  [ctx] labels each worker's trace span with the
    request id, so spans from every domain join one request tree.
    @raise Invalid_argument if [domains < 1]; re-raises the first (lowest
    input index) worker exception after joining every spawned domain. *)

val map_array_until :
  ?ctx:Obs.Ctx.t ->
  ?domains:int ->
  ?deadline:Obs.Deadline.t ->
  ?release:('w -> unit) ->
  workspace:(unit -> 'w) ->
  f:('w -> 'a -> 'b) ->
  'a array ->
  'b option array
(** {!map_array} with a cooperative budget checked at task dispatch: once
    [deadline] expires, workers stop claiming new items — items already
    started still finish, so the result holds [Some] for every completed
    item and [None] for items never started, and no finished work is lost.
    With the default {!Obs.Deadline.never} every slot is [Some].  Exception
    propagation is as in {!map_array}. *)
