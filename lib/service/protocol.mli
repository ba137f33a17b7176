(** The serd wire protocol: newline-delimited {!Obs.Json} requests and
    responses over stdio or a Unix socket.

    One compact JSON object per line in each direction.  Every request may
    carry an ["id"] member which is echoed verbatim in the response, so a
    client can pipeline.  Responses always carry a ["status"] member —
    ["ok"], ["partial"] (an analyze whose deadline expired: the completed
    subset is reported, not an error), or ["error"] with a typed code.

    The parser here maps a JSON value to a typed {!request}; it never
    raises, and every rejection carries the {!error_code} the server should
    answer with — per-request fault isolation starts at decode time. *)

(** How a request names its circuit. *)
type format =
  | Bench  (** ISCAS [.bench] text in ["source"] *)
  | Blif  (** BLIF text in ["source"] *)
  | Embedded  (** ["source"] is a built-in name ({!Circuit_gen.Embedded}) *)
  | Fingerprint
      (** ["source"] is an engine fingerprint a previous response reported —
          the zero-payload handle to a circuit already resident in the
          server's engine cache *)

type circuit_spec = { format : format; source : string }

(** The {!Netlist.Transform} rewrite an [edit] request applies. *)
type edit_kind =
  | Tmr  (** triplicate the target gate with a 2-of-3 voter *)
  | Buffer_net  (** insert an identity buffer on the target net's fanout *)
  | De_morgan  (** rewrite the target AND/OR/NAND/NOR by De Morgan *)

type request =
  | Ping
  | Metrics  (** dump the live {!Obs} metrics registry *)
  | Stats
      (** live introspection: uptime, queue depth, request/shed counters,
          engine-cache residency, flight-recorder occupancy *)
  | Dump  (** the flight-recorder ring contents, as JSON *)
  | Sleep of float  (** hold the serve loop for N seconds (testing aid) *)
  | Shutdown
  | Analyze of {
      circuit : circuit_spec;
      sites : int list option;  (** [None] = every node *)
      budget_ms : float option;  (** per-request deadline override *)
      top_k : int option;  (** report the K most sensitized sites *)
      inject : int list option;
          (** ["inject_faults"]: sites whose batch/reference rungs are
              forced to fail — rejected unless the server was started with
              fault injection enabled (operational drills / smoke tests) *)
    }
  | Edit of {
      circuit : circuit_spec;  (** the base circuit the edit applies to *)
      kind : edit_kind;
      target : string;  (** signal name in the base circuit *)
      budget_ms : float option;
      top_k : int option;
    }
      (** apply a transform to the base circuit and re-analyze
          incrementally: only the dirty cone is re-swept, clean results are
          spliced from the base engine's cached whole-circuit outcome *)

(** Typed rejection codes, the ["error.code"] values on the wire. *)
type error_code =
  | Parse_error  (** the line is not valid JSON *)
  | Bad_request  (** valid JSON, malformed request *)
  | Request_too_large  (** line, source, or nesting over the byte limits *)
  | Invalid_netlist  (** the circuit payload failed to parse/elaborate *)
  | Unknown_op
  | Overloaded  (** shed: the request queue is over its high-water mark *)
  | Internal_error  (** an unexpected exception, caught at the request *)

val error_code_string : error_code -> string
val format_string : format -> string
val edit_kind_string : edit_kind -> string

val request_id : Obs.Json.t -> Obs.Json.t option
(** The ["id"] member, to echo back — even when the rest fails to parse. *)

val of_json : Obs.Json.t -> (request, error_code * string) result
(** Never raises. *)

val ok_response :
  ?id:Obs.Json.t ->
  ?request_id:string ->
  (string * Obs.Json.t) list ->
  Obs.Json.t
(** [{"id": ..?, "status": "ok", "request_id": ..?, ...fields}] —
    [request_id] is the server-minted {!Obs.Ctx} correlation id, the handle
    that joins this response to its log events, recorder entries, and trace
    spans. *)

val partial_response :
  ?id:Obs.Json.t ->
  ?request_id:string ->
  (string * Obs.Json.t) list ->
  Obs.Json.t
(** Like {!ok_response} with ["status": "partial"] — a deadline-cut
    analyze. *)

val error_response :
  ?id:Obs.Json.t -> ?request_id:string -> error_code -> string -> Obs.Json.t
(** [{"id": ..?, "status": "error", "request_id": ..?,
    "error": {"code", "message"}}] *)
