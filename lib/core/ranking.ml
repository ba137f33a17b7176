(* Vulnerability ranking and selective-hardening selection.

   The paper's stated application (Sec. 4): "This technique can be used to
   identify the most vulnerable components to be protected by soft error
   hardening techniques."  Hardening a node is modeled as eliminating its
   contribution (e.g. by gate upsizing or local triplication); the selection
   problem — fewest nodes to reach a target SER reduction — is then a
   take-largest-first greedy, which is optimal for additive contributions. *)

type entry = { rank : int; report : Ser_estimator.node_report }

(* The bounded selection: a max-heap (under [compare]) of the best [k]
   items seen so far, so an item that cannot make the cut costs one
   comparison with the root.  The kept items are sorted at the end. *)
let select ~compare k iter =
  if k < 0 then invalid_arg "Ranking.select: negative k";
  let heap = ref [||] and size = ref 0 in
  let swap h i j =
    let t = h.(i) in
    h.(i) <- h.(j);
    h.(j) <- t
  in
  let rec up h i =
    let parent = (i - 1) / 2 in
    if i > 0 && compare h.(i) h.(parent) > 0 then begin
      swap h i parent;
      up h parent
    end
  in
  let rec down h i =
    let l = (2 * i) + 1 in
    if l < !size then begin
      let c = if l + 1 < !size && compare h.(l + 1) h.(l) > 0 then l + 1 else l in
      if compare h.(c) h.(i) > 0 then begin
        swap h i c;
        down h c
      end
    end
  in
  if k > 0 then
    iter (fun x ->
        if !size < k then begin
          if !size = Array.length !heap then begin
            let grown = Array.make (min k (max 16 (2 * !size))) x in
            Array.blit !heap 0 grown 0 !size;
            heap := grown
          end;
          !heap.(!size) <- x;
          incr size;
          up !heap (!size - 1)
        end
        else if compare x !heap.(0) < 0 then begin
          !heap.(0) <- x;
          down !heap 0
        end);
  let kept = Array.sub !heap 0 !size in
  Array.sort compare kept;
  Array.to_list kept

(* FIT contribution, descending; ties broken by node id so the ranking is
   deterministic. *)
let by_fit (a : Ser_estimator.node_report) (b : Ser_estimator.node_report) =
  match Float.compare b.Ser_estimator.fit a.Ser_estimator.fit with
  | 0 -> Int.compare a.Ser_estimator.node b.Ser_estimator.node
  | c -> c

let ranked (report : Ser_estimator.report) =
  let nodes = Array.copy report.Ser_estimator.nodes in
  Array.sort by_fit nodes;
  Array.to_list nodes |> List.mapi (fun i n -> { rank = i + 1; report = n })

let top_k (report : Ser_estimator.report) k =
  if k < 0 then invalid_arg "Ranking.top_k: negative k";
  select ~compare:by_fit k (fun f -> Array.iter f report.Ser_estimator.nodes)
  |> List.mapi (fun i n -> { rank = i + 1; report = n })

(* Fewest nodes whose removal cuts total SER by [fraction]. *)
type hardening_plan = {
  target_fraction : float;
  selected : entry list;
  covered_fit : float;
  covered_fraction : float;  (** achieved reduction; >= target unless capped *)
  residual_fit : float;
}

let hardening_plan report ~target_fraction =
  if not (target_fraction >= 0.0 && target_fraction <= 1.0) then
    invalid_arg "Ranking.hardening_plan: target_fraction outside [0,1]";
  let total = report.Ser_estimator.total_fit in
  let goal = target_fraction *. total in
  let rec take acc covered = function
    | [] -> List.rev acc, covered
    | e :: rest ->
      if covered >= goal -. 1e-12 then List.rev acc, covered
      else take (e :: acc) (covered +. e.report.Ser_estimator.fit) rest
  in
  let selected, covered_fit = take [] 0.0 (ranked report) in
  {
    target_fraction;
    selected;
    covered_fit;
    covered_fraction = (if total > 0.0 then covered_fit /. total else 1.0);
    residual_fit = Float.max 0.0 (total -. covered_fit);
  }

let pp_entry ppf e =
  Fmt.pf ppf "#%d %s: %.4f FIT (P_sens %.4f, cone %d)" e.rank
    e.report.Ser_estimator.name e.report.Ser_estimator.fit
    e.report.Ser_estimator.p_sensitized e.report.Ser_estimator.cone_size

let pp_plan ppf p =
  Fmt.pf ppf "@[<v>harden %d node(s) for %.1f%% SER reduction (achieved %.1f%%):@,%a@]"
    (List.length p.selected) (100.0 *. p.target_fraction) (100.0 *. p.covered_fraction)
    Fmt.(list ~sep:cut pp_entry)
    p.selected
