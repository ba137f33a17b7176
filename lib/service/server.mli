(** The serd request engine: a single-threaded serve loop over
    newline-delimited {!Protocol} frames that degrades instead of dying.

    Robustness contract, per request:

    - a line that is not valid JSON, over the byte limit, or too deeply
      nested answers a typed error object — the loop continues;
    - a circuit payload that fails to parse answers [invalid_netlist];
    - any unexpected exception inside a handler is caught at the request
      boundary and answered as [internal_error] — the daemon only exits on
      EOF or an explicit [shutdown] op;
    - an analyze whose {!Obs.Deadline} budget expires returns
      ["status": "partial"] with every finished site, never a kill;
    - arrivals beyond [queue_high_water] while a request is being served
      are shed immediately with [overloaded] instead of buffered without
      bound.

    Engines are served from an {!Engine_cache}, with their last complete
    whole-circuit sweep, so a repeat whole-circuit [analyze] on a resident
    engine sweeps nothing; whole-circuit sweeps are checkpointed per
    fingerprint under [checkpoint_dir] (when set) and resumed on repeat,
    so a kill -9 between requests loses at most the in-flight chunk. *)

type config = {
  max_request_bytes : int;  (** per-line cap; longer answers [request_too_large] *)
  max_source_bytes : int;  (** circuit payload cap within a request *)
  max_json_depth : int;  (** nesting cap handed to {!Obs.Json.parse_with_limits} *)
  queue_high_water : int;  (** pending requests beyond this are shed *)
  cache_capacity : int;  (** resident warmed engines ({!Engine_cache}) *)
  default_budget_ms : float option;  (** deadline for requests that set none *)
  checkpoint_dir : string option;
      (** per-fingerprint checkpoint files for whole-circuit sweeps *)
  domains : int option;  (** worker domains for the supervised sweep *)
  dump_dir : string option;
      (** when set, the flight-recorder ring is dumped here (one JSON file
          per incident, named [<reason>-<request-id>.json]) whenever a
          request ends in quarantine, deadline expiry, or internal error *)
  allow_fault_injection : bool;
      (** accept the [inject_faults] analyze field (operational drills);
          off by default — production daemons reject it as [bad_request] *)
}

val default_config : config
(** 8 MiB lines, 4 MiB sources, depth 64, high water 64, 8 resident
    engines, no default budget, no checkpointing, default domains, no dump
    directory, fault injection off. *)

type t

val create : config -> t
(** @raise Invalid_argument on a non-positive limit. *)

val handle_line :
  t -> string -> [ `Reply of Obs.Json.t | `Shutdown of Obs.Json.t ]
(** Decode and serve one request line; never raises.  [`Shutdown] carries
    the acknowledgement to emit before stopping.  Exposed for in-process
    tests; {!serve} is the I/O loop on top.

    Each line is one correlation scope: a fresh {!Obs.Ctx} is minted, the
    whole request runs under a [serd.request] trace span carrying its id,
    the same id is threaded into the sweep / cache / checkpoint layers and
    echoed on the reply as ["request_id"], and a [serd.request] Info log
    event (op, status, wall ms) closes the scope. *)

val publish_memory : unit -> unit
(** Read the OCaml heap's size and its high-water mark off
    [Gc.quick_stat] into the gauges [serd.memory.heap_mb] and
    [serd.memory.top_heap_mb] (MB of 2{^20} bytes).  The [stats] op calls
    it before it answers, and serd's [--prom-file] writer before each
    write, so both report the heap without reading [/proc]. *)

val serve : t -> in_fd:Unix.file_descr -> out_fd:Unix.file_descr -> [ `Eof | `Shutdown ]
(** Serve frames from [in_fd], answering on [out_fd], until EOF or a
    [shutdown] op.  Requests are handled in arrival order; input readable
    after each request is drained non-blocking so a burst lands in the
    bounded queue (or is shed) rather than the kernel buffer deciding. *)
