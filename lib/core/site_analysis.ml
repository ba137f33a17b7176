(* Structural analysis of one error site — steps 1 and 2 of the paper's
   algorithm.

   Maps the paper's vocabulary onto the netlist:
   - an *on-path signal* is a net on a path from the error site to a
     reachable output: exactly the site's forward cone;
   - an *on-path gate* is a gate with at least one on-path input: every
     cone member but the site (only gates have fanins);
   - an *off-path signal* is an input of an on-path gate that is not itself
     on-path (it contributes only its signal probability).

   The cone comes from the circuit's analysis context as its members in
   topological order (step 1's search and step 2's ordering at once, at
   the cone's cost); the EPP traversal (Epp_engine) walks it. *)

open Netlist

type t = {
  site : int;
  on_path : int array;  (** the forward cone in topological order, site first *)
  reached : Circuit.observation list;  (** observation points inside the cone *)
}

let analyze circuit site =
  if site < 0 || site >= Circuit.node_count circuit then
    invalid_arg "Site_analysis.analyze: bad site";
  (* One cone search, read twice: the members, and the observation nets
     found among them. *)
  let ctx = Analysis.get circuit in
  let on_path = Analysis.cone ctx site in
  { site; on_path; reached = Analysis.reached_observations ctx on_path }

let on_path_gates t = List.tl (Array.to_list t.on_path)

let off_path circuit t =
  let members = Reach.lookup ~position:(Analysis.position (Analysis.get circuit)) t.on_path in
  let acc = ref [] in
  for i = 1 to Array.length t.on_path - 1 do
    Array.iter
      (fun u -> if Reach.find members u < 0 then acc := u :: !acc)
      (Circuit.fanins circuit t.on_path.(i))
  done;
  List.sort_uniq Int.compare !acc

let on_path_signal_count t = Array.length t.on_path

let reaches_any_output t = t.reached <> []

let pp circuit ppf t =
  let name v = Circuit.node_name circuit v in
  Fmt.pf ppf "@[<v>site %s: %d on-path signals, %d on-path gates, %d off-path signals@,\
              reaches: %a@]"
    (name t.site) (on_path_signal_count t)
    (Array.length t.on_path - 1)
    (List.length (off_path circuit t))
    Fmt.(list ~sep:comma string)
    (List.map (Circuit.observation_name circuit) t.reached)
