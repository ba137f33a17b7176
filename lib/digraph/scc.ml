(* Tarjan's strongly-connected components, iterative.

   Used for diagnostics only: when a netlist fails validation because of a
   combinational cycle, the SCCs name the offending feedback loops precisely
   instead of merely reporting "cyclic". *)

let compute g =
  let n = Digraph.vertex_count g in
  let offsets = Digraph.offsets g and targets = Digraph.targets g in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  (* Tarjan's vertex stack, and the DFS frames: a vertex and the slot of its
     next unexplored edge.  Each vertex enters each at most once. *)
  let stack = Array.make n 0 and depth = ref 0 in
  let frame_vertex = Array.make n 0 and frame_edge = Array.make n 0 in
  let frames = ref 0 in
  let next_index = ref 0 in
  let components = ref [] in
  let enter v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack.(!depth) <- v;
    incr depth;
    on_stack.(v) <- true;
    frame_vertex.(!frames) <- v;
    frame_edge.(!frames) <- offsets.(v);
    incr frames
  in
  let visit root =
    enter root;
    while !frames > 0 do
      let top = !frames - 1 in
      let v = frame_vertex.(top) in
      let i = frame_edge.(top) in
      if i < offsets.(v + 1) then begin
        frame_edge.(top) <- i + 1;
        let w = targets.(i) in
        if index.(w) = -1 then enter w
        else if on_stack.(w) && index.(w) < lowlink.(v) then lowlink.(v) <- index.(w)
      end
      else begin
        frames := top;
        if lowlink.(v) = index.(v) then begin
          let comp = ref [] in
          let continue = ref true in
          while !continue do
            decr depth;
            let w = stack.(!depth) in
            on_stack.(w) <- false;
            comp := w :: !comp;
            if w = v then continue := false
          done;
          components := !comp :: !components
        end;
        (* Propagate lowlink to the parent frame, if any. *)
        if top > 0 then begin
          let p = frame_vertex.(top - 1) in
          if lowlink.(v) < lowlink.(p) then lowlink.(p) <- lowlink.(v)
        end
      end
    done
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then visit v
  done;
  List.rev !components

let nontrivial g =
  List.filter
    (fun comp ->
      match comp with
      | [] -> false
      | [ v ] -> Digraph.mem_edge g v v
      | _ :: _ :: _ -> true)
    (compute g)
