(* Two-tier hot-circuit cache.  The front door is the MD5 of the raw
   payload (so a repeat query never re-parses); behind it, engines are
   keyed by Checkpoint.fingerprint, which covers the circuit structure and
   the bit-exact sp vector — the same identity the checkpoint files use,
   so a cache hit and a checkpoint resume can never disagree about what
   analysis they belong to.

   Capacities are service-sized (a handful of hot circuits), so the LRU
   scan is a plain O(capacity) minimum — no intrusive list needed. *)

type entry = {
  engine : Epp.Epp_engine.t;
  mutable last_used : int;
  mutable results : Epp.Supervisor.entry array option;
      (* the engine's complete whole-circuit sweep, one slot per site id,
         remembered so a later [edit] request can splice clean sites
         instead of re-analyzing and a repeat [analyze] sweeps nothing;
         the entries (rows and all) are shared with the engines an edit
         chain derives from this one *)
}

type t = {
  capacity : int;
  aliases : (string, string) Hashtbl.t;  (* payload digest -> fingerprint *)
  engines : (string, entry) Hashtbl.t;  (* fingerprint -> warmed engine *)
  mutable tick : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Engine_cache.create: capacity must be >= 1";
  {
    capacity;
    aliases = Hashtbl.create 32;
    engines = Hashtbl.create 16;
    tick = 0;
  }

type outcome = {
  engine : Epp.Epp_engine.t;
  fingerprint : string;
  hit : bool;
}

let resident t = Hashtbl.length t.engines

let payload_digest ~format ~source =
  Digest.to_hex (Digest.string (format ^ "\000" ^ source))

let gauge_resident t =
  Obs.Metrics.set_gauge
    (Obs.Metrics.gauge (Obs.Hooks.metrics ()) "analysis.cache.engine.resident")
    (float_of_int (Hashtbl.length t.engines))

let evict ?ctx t =
  while Hashtbl.length t.engines > t.capacity do
    let victim = ref None in
    Hashtbl.iter
      (fun fp e ->
        match !victim with
        | Some (_, age) when age <= e.last_used -> ()
        | _ -> victim := Some (fp, e.last_used))
      t.engines;
    match !victim with
    | None -> assert false (* length > capacity >= 1 *)
    | Some (fp, _) ->
      Hashtbl.remove t.engines fp;
      (* Drop the front-door aliases that point at the evicted engine. *)
      let stale =
        Hashtbl.fold
          (fun k fp' acc -> if fp' = fp then k :: acc else acc)
          t.aliases []
      in
      List.iter (Hashtbl.remove t.aliases) stale;
      Obs.Log.emit ?ctx
        ~fields:
          [
            ("fingerprint", Obs.Json.String fp);
            ("resident", Obs.Json.int (Hashtbl.length t.engines));
          ]
        Obs.Log.Info "engine_cache.evict"
  done

let find_or_build ?ctx t ~format ~source ~build =
  let m = Obs.Hooks.metrics () in
  let key = payload_digest ~format ~source in
  t.tick <- t.tick + 1;
  let served_from e fp ~hit =
    e.last_used <- t.tick;
    Obs.Metrics.incr
      (Obs.Metrics.counter m
         (if hit then "analysis.cache.engine.hit"
          else "analysis.cache.engine.miss"));
    gauge_resident t;
    Obs.Log.emit ?ctx
      ~fields:[ ("fingerprint", Obs.Json.String fp) ]
      Obs.Log.Debug
      (if hit then "engine_cache.hit" else "engine_cache.miss");
    { engine = e.engine; fingerprint = fp; hit }
  in
  match Hashtbl.find_opt t.aliases key with
  | Some fp when Hashtbl.mem t.engines fp ->
    served_from (Hashtbl.find t.engines fp) fp ~hit:true
  | _ -> (
    let engine = build () in
    let fp = Report.Checkpoint.fingerprint engine in
    Hashtbl.replace t.aliases key fp;
    match Hashtbl.find_opt t.engines fp with
    | Some e ->
      (* Different payload bytes, same analysis: keep the resident engine
         (its caches are warm) and just learn the new alias.  Still a miss
         — the parse was paid. *)
      served_from e fp ~hit:false
    | None ->
      let e = { engine; last_used = t.tick; results = None } in
      Hashtbl.replace t.engines fp e;
      evict ?ctx t;
      served_from e fp ~hit:false)

(* --- fingerprint-keyed access (the serd [edit] path) ---------------------- *)

let find_fingerprint t fingerprint =
  match Hashtbl.find_opt t.engines fingerprint with
  | None -> None
  | Some e ->
    t.tick <- t.tick + 1;
    e.last_used <- t.tick;
    Some { engine = e.engine; fingerprint; hit = true }

let insert ?ctx t ~fingerprint engine =
  match Hashtbl.find_opt t.engines fingerprint with
  | Some e ->
    t.tick <- t.tick + 1;
    e.last_used <- t.tick;
    e.engine (* already resident (warmer caches) — keep it *)
  | None ->
    t.tick <- t.tick + 1;
    let e = { engine; last_used = t.tick; results = None } in
    Hashtbl.replace t.engines fingerprint e;
    evict ?ctx t;
    gauge_resident t;
    engine

(* A whole-circuit sweep's [(site, entry)] list as one slot per site. *)
let slots_of_sweep n entries =
  let fail () =
    invalid_arg "Engine_cache.remember_results: entries must cover sites 0 .. n-1 in order"
  in
  match entries with
  | [] -> if n = 0 then [||] else fail ()
  | (_, first) :: _ ->
    let slots = Array.make n first in
    let covered =
      List.fold_left
        (fun site (s, entry) ->
          if s <> site || site >= n then fail ();
          slots.(site) <- entry;
          site + 1)
        0 entries
    in
    if covered <> n then fail ();
    slots

let remember_results t ~fingerprint entries =
  match Hashtbl.find_opt t.engines fingerprint with
  | Some e ->
    let n = Netlist.Circuit.node_count (Epp.Epp_engine.circuit e.engine) in
    e.results <- Some (slots_of_sweep n entries)
  | None -> ()

let results_for t ~fingerprint =
  match Hashtbl.find_opt t.engines fingerprint with
  | Some { results = Some slots; _ } ->
    Some (List.init (Array.length slots) (fun site -> (site, slots.(site))))
  | Some { results = None; _ } | None -> None
