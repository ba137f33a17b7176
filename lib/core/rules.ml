(* EPP propagation rules — the paper's Table 1, extended.

   Table 1 gives AND, OR and NOT.  We add the remaining kinds:
   NAND/NOR/XNOR compose the corresponding base rule with the NOT rule;
   BUF is the identity; XOR is derived from first principles below.

   AND (n inputs X1..Xn, assumed independent):
     P1(out) = prod P1(Xi)
     Pa(out) = prod [P1(Xi) + Pa(Xi)] - P1(out)
     Pā(out) = prod [P1(Xi) + Pā(Xi)] - P1(out)
     P0(out) = 1 - (P1 + Pa + Pā)

   The Pa product reads: the output is erroneous-with-value-a iff every input
   is either at 1 (non-controlling) or itself carries a, minus the case where
   all are at plain 1.  Note how an input carrying ā contributes nothing to
   the Pa(out) product: a AND ā is 0 whatever the value of a — exactly the
   reconvergence cancellation the polarity split exists to capture.

   XOR (2 inputs, then folded associatively):
     output = x ⊕ y, so enumerate the 4x4 joint states:
       a ⊕ 0 = a,  a ⊕ 1 = ā,  a ⊕ a = 0,  a ⊕ ā = 1
     P1  = P1x·P0y + P0x·P1y + Pax·Pāy + Pāx·Pay
     P0  = P0x·P0y + P1x·P1y + Pax·Pay + Pāx·Pāy
     Pa  = Pax·P0y + Pāx·P1y + P0x·Pay + P1x·Pāy
     Pā  = Pāx·P0y + Pax·P1y + P0x·Pāy + P1x·Pay
   (All 16 joint terms appear exactly once, so the result sums to 1.) *)

open Netlist

let product f (inputs : Prob4.t array) =
  let acc = ref 1.0 in
  Array.iter (fun v -> acc := !acc *. f v) inputs;
  !acc

let and_rule inputs =
  let p1 = product (fun v -> v.Prob4.p1) inputs in
  let pa = product (fun v -> v.Prob4.p1 +. v.Prob4.pa) inputs -. p1 in
  let pa_bar = product (fun v -> v.Prob4.p1 +. v.Prob4.pa_bar) inputs -. p1 in
  let p0 = 1.0 -. (p1 +. pa +. pa_bar) in
  Prob4.normalize { pa; pa_bar; p1; p0 }

let or_rule inputs =
  let p0 = product (fun v -> v.Prob4.p0) inputs in
  let pa = product (fun v -> v.Prob4.p0 +. v.Prob4.pa) inputs -. p0 in
  let pa_bar = product (fun v -> v.Prob4.p0 +. v.Prob4.pa_bar) inputs -. p0 in
  let p1 = 1.0 -. (p0 +. pa +. pa_bar) in
  Prob4.normalize { pa; pa_bar; p1; p0 }

let xor2 (x : Prob4.t) (y : Prob4.t) =
  let open Prob4 in
  let p1 = (x.p1 *. y.p0) +. (x.p0 *. y.p1) +. (x.pa *. y.pa_bar) +. (x.pa_bar *. y.pa) in
  let p0 = (x.p0 *. y.p0) +. (x.p1 *. y.p1) +. (x.pa *. y.pa) +. (x.pa_bar *. y.pa_bar) in
  let pa = (x.pa *. y.p0) +. (x.pa_bar *. y.p1) +. (x.p0 *. y.pa) +. (x.p1 *. y.pa_bar) in
  let pa_bar = (x.pa_bar *. y.p0) +. (x.pa *. y.p1) +. (x.p0 *. y.pa_bar) +. (x.p1 *. y.pa) in
  Prob4.normalize { pa; pa_bar; p1; p0 }

let xor_rule inputs =
  match Array.length inputs with
  | 0 -> invalid_arg "Rules.xor_rule: no inputs"
  | _ ->
    let acc = ref inputs.(0) in
    for i = 1 to Array.length inputs - 1 do
      acc := xor2 !acc inputs.(i)
    done;
    !acc

let propagate kind (inputs : Prob4.t array) =
  Gate.check_arity kind (Array.length inputs);
  match kind with
  | Gate.And -> and_rule inputs
  | Gate.Nand -> Prob4.invert (and_rule inputs)
  | Gate.Or -> or_rule inputs
  | Gate.Nor -> Prob4.invert (or_rule inputs)
  | Gate.Xor -> xor_rule inputs
  | Gate.Xnor -> Prob4.invert (xor_rule inputs)
  | Gate.Not -> Prob4.invert inputs.(0)
  | Gate.Buf -> inputs.(0)
  | Gate.Const0 -> Prob4.of_sp 0.0
  | Gate.Const1 -> Prob4.of_sp 1.0

(* --- lane-vectorized kernels ---------------------------------------------

   The batched engine (Epp_batch) propagates one gate for a whole *block* of
   error sites at once: the four-state vectors live in row-major float
   planes with a lane stride ([plane.(rows.(u) * stride + lane)], the engine
   handing plane rows out to nodes), and a per-node bitmask says which lanes
   have the node on-path.  The kernels below evaluate one gate for every
   live lane of the block in straight-line loops over those contiguous
   floats.

   Bit-compatibility contract: per lane, the float operations are the
   mirror of the boxed rules above in the same order — fanin-order
   products, the same association in the sums, the same clamps, the same
   normalize conditions ({!Prob4.normalize}).  An off-path fanin
   contributes its signal probability [sv] exactly as the boxed
   {!Prob4.of_sp} vector does: the [qa]/[qab] factors there are
   [sv +. 0.0], which IEEE-754 guarantees equals [sv] for every value in
   [0, 1], so the scalar fast path multiplies by [sv] directly.

   Fault isolation replaces exceptions: a lane whose arithmetic trips a
   normalize condition (or that reads an invalid off-path probability — the
   mirror of {!Prob4.of_sp}) is recorded in [scratch.faults] with exactly
   the exception the boxed reference would have raised, and only that lane
   drops out; the rest of the block continues. *)

module Lanes = struct
  (* Trailing-zero count of a nonzero word: branchy binary search, no
     lookup tables (OCaml ints are 63-bit, which rules out the usual
     64-bit de Bruijn multiply). *)
  let ntz x =
    let x = ref (x land -x) in
    let n = ref 0 in
    if !x land 0xFFFFFFFF = 0 then begin
      n := !n + 32;
      x := !x lsr 32
    end;
    if !x land 0xFFFF = 0 then begin
      n := !n + 16;
      x := !x lsr 16
    end;
    if !x land 0xFF = 0 then begin
      n := !n + 8;
      x := !x lsr 8
    end;
    if !x land 0xF = 0 then begin
      n := !n + 4;
      x := !x lsr 4
    end;
    if !x land 0x3 = 0 then begin
      n := !n + 2;
      x := !x lsr 2
    end;
    if !x land 0x1 = 0 then incr n;
    !n

  type scratch = {
    lanes : int array;  (* live lanes of the current gate, compacted *)
    aa : float array;  (* AND/OR: value product; XOR: pa accumulator *)
    ab : float array;  (* AND/OR: qa product;    XOR: pa_bar *)
    ac : float array;  (* AND/OR: qab product;   XOR: p1 *)
    ad : float array;  (* XOR: p0 *)
    mutable faults : (int * exn) list;
    mutable last_live : int;  (* lanes that evaluated the last gate rule *)
  }

  let create ~lanes =
    let k = max 1 lanes in
    {
      lanes = Array.make k 0;
      aa = Array.make k 0.0;
      ab = Array.make k 0.0;
      ac = Array.make k 0.0;
      ad = Array.make k 0.0;
      faults = [];
      last_live = 0;
    }

  let capacity s = Array.length s.lanes
  let faults s = s.faults
  let last_live s = s.last_live

  let fault s fm l e =
    s.faults <- (l, e) :: s.faults;
    fm lor (1 lsl l)

  let fault_all s fm bits e =
    let m = ref (bits land lnot fm) in
    let fm = ref fm in
    while !m <> 0 do
      let l = ntz !m in
      fm := fault s !fm l e;
      m := !m land (!m - 1)
    done;
    !fm

  (* The mirror of the reference's off-path validation: it calls
     [Prob4.of_sp sv] (which raises) on the first invalid off-path fanin it
     reads, before any rule arithmetic.  Here every lane for
     which some fanin is off-path with an invalid probability faults with
     that same exception, fanin order deciding which one when several
     qualify. *)
  let prescan_sp s ~fanins ~mask ~sp ~em =
    let fm = ref 0 in
    for j = 0 to Array.length fanins - 1 do
      let u = Array.unsafe_get fanins j in
      let off = em land lnot (Array.unsafe_get mask u) in
      if off <> 0 then begin
        let sv = Array.unsafe_get sp u in
        if not (sv >= 0.0 && sv <= 1.0) then
          fm :=
            fault_all s !fm off
              (Prob4.Invalid
                 {
                   vector = { Prob4.pa = 0.0; pa_bar = 0.0; p1 = sv; p0 = 1.0 -. sv };
                   reason = "signal probability outside [0,1]";
                 })
      end
    done;
    !fm

  (* The lane loops below allocate nothing on the success path, and without
     flambda that takes care: ocamlopt inlines neither a float helper such
     as a clamp nor a per-lane store function, and a float argument of a
     call it does not inline is boxed.  So the clamps are written out, every
     call passes ints and arrays only, and the per-lane accumulators are
     float [ref]s local to a loop body, which the compiler turns into
     unboxed mutable variables.  A fault path may allocate (it builds the
     exception). *)

  (* Fault lane [l] on the normalize defect of the clamped vector whose
     components sum to [sum]. *)
  let fault_vector s fm l ~vpa ~vpab ~vp1 ~vp0 ~sum =
    fault s fm l
      (Prob4.Invalid
         {
           vector = { Prob4.pa = vpa; pa_bar = vpab; p1 = vp1; p0 = vp0 };
           reason =
             (if sum <= 0.0 then "zero mass" else "components do not sum to 1");
         })

  (* AND/OR accumulation: [value] is the controlling-component plane (p1 for
     AND, p0 for OR) — per live lane, fold the fanins in order, collecting
     the controlling product into aa and the qa/qab products into ab/ac so
     the per-lane operation order matches the boxed [product] folds of
     [and_rule]/[or_rule] exactly.  [complement] says how an
     off-path fanin's factor derives from its signal probability: [sv] for
     AND (the gathered p1), [1.0 -. sv] for OR (the gathered p0) — the
     error components of an off-path fanin are zero so all three products
     share the one factor.

     Two loop orders, picked by the live-lane count, both applying the same
     per-lane multiplication sequence (so both are bit-identical to the
     boxed fold): narrow gates go lane-major, folding every fanin of one
     lane into three local float refs before touching the next lane, which
     is what the cone-local (tree) regime mostly sees.  Wide gates go
     fanin-major: a fanin that is on-path for every live lane takes a
     branch-free contiguous inner loop, which is what dense blocks with
     most of their 62 lanes live mostly see. *)
  let accumulate_products s ~fanins ~mask ~rows ~em ~sp ~stride ~value ~err_a
      ~err_b ~complement ~live =
    let lanes = s.lanes and aa = s.aa and ab = s.ab and ac = s.ac in
    let nf = Array.length fanins in
    if live <= 16 then
      for i = 0 to live - 1 do
        let l = Array.unsafe_get lanes i in
        let bit = 1 lsl l in
        let a = ref 1.0 and b = ref 1.0 and c = ref 1.0 in
        for j = 0 to nf - 1 do
          let u = Array.unsafe_get fanins j in
          if Array.unsafe_get mask u land bit <> 0 then begin
            let idx = (Array.unsafe_get rows u * stride) + l in
            let v = Array.unsafe_get value idx in
            let ea = Array.unsafe_get err_a idx in
            let eb = Array.unsafe_get err_b idx in
            a := !a *. v;
            b := !b *. (v +. ea);
            c := !c *. (v +. eb)
          end
          else begin
            let sv = Array.unsafe_get sp u in
            let f = if complement then 1.0 -. sv else sv in
            a := !a *. f;
            b := !b *. f;
            c := !c *. f
          end
        done;
        Array.unsafe_set aa i !a;
        Array.unsafe_set ab i !b;
        Array.unsafe_set ac i !c
      done
    else begin
      for i = 0 to live - 1 do
        Array.unsafe_set aa i 1.0;
        Array.unsafe_set ab i 1.0;
        Array.unsafe_set ac i 1.0
      done;
      for j = 0 to nf - 1 do
        let u = Array.unsafe_get fanins j in
        let mu = Array.unsafe_get mask u land em in
        if mu = em then begin
          let base = Array.unsafe_get rows u * stride in
          for i = 0 to live - 1 do
            let l = Array.unsafe_get lanes i in
            let v = Array.unsafe_get value (base + l) in
            let ea = Array.unsafe_get err_a (base + l) in
            let eb = Array.unsafe_get err_b (base + l) in
            Array.unsafe_set aa i (Array.unsafe_get aa i *. v);
            Array.unsafe_set ab i (Array.unsafe_get ab i *. (v +. ea));
            Array.unsafe_set ac i (Array.unsafe_get ac i *. (v +. eb))
          done
        end
        else if mu = 0 then begin
          let sv = Array.unsafe_get sp u in
          let f = if complement then 1.0 -. sv else sv in
          for i = 0 to live - 1 do
            Array.unsafe_set aa i (Array.unsafe_get aa i *. f);
            Array.unsafe_set ab i (Array.unsafe_get ab i *. f);
            Array.unsafe_set ac i (Array.unsafe_get ac i *. f)
          done
        end
        else begin
          let base = Array.unsafe_get rows u * stride in
          let sv = Array.unsafe_get sp u in
          let f = if complement then 1.0 -. sv else sv in
          for i = 0 to live - 1 do
            let l = Array.unsafe_get lanes i in
            if mu land (1 lsl l) <> 0 then begin
              let v = Array.unsafe_get value (base + l) in
              let ea = Array.unsafe_get err_a (base + l) in
              let eb = Array.unsafe_get err_b (base + l) in
              Array.unsafe_set aa i (Array.unsafe_get aa i *. v);
              Array.unsafe_set ab i (Array.unsafe_get ab i *. (v +. ea));
              Array.unsafe_set ac i (Array.unsafe_get ac i *. (v +. eb))
            end
            else begin
              Array.unsafe_set aa i (Array.unsafe_get aa i *. f);
              Array.unsafe_set ab i (Array.unsafe_get ab i *. f);
              Array.unsafe_set ac i (Array.unsafe_get ac i *. f)
            end
          done
        end
      done
    end

  (* The AND/OR output of every live lane: components from the products
     (the controlling one is aa; [and_family] says whether it is p1 or p0),
     then the mirror of {!Prob4.normalize} — clamps, sum, the two
     normalize conditions, the store — with a defect faulting the lane
     instead of raising.  NAND/NOR pass the swapped destinations: the boxed
     path is invert(and_rule), normalize first, then swap.  Returns the
     updated fault mask. *)
  let store_products s fm ~and_family ~live ~gbase ~dst_pa ~dst_pa_bar ~dst_p1
      ~dst_p0 =
    let fm = ref fm in
    for i = 0 to live - 1 do
      let l = Array.unsafe_get s.lanes i in
      let c = Array.unsafe_get s.aa i in
      let vpa = Array.unsafe_get s.ab i -. c in
      let vpab = Array.unsafe_get s.ac i -. c in
      let rest = 1.0 -. (c +. vpa +. vpab) in
      let vp1 = if and_family then c else rest in
      let vp0 = if and_family then rest else c in
      let vpa = if vpa < 0.0 then 0.0 else if vpa > 1.0 then 1.0 else vpa in
      let vpab = if vpab < 0.0 then 0.0 else if vpab > 1.0 then 1.0 else vpab in
      let vp1 = if vp1 < 0.0 then 0.0 else if vp1 > 1.0 then 1.0 else vp1 in
      let vp0 = if vp0 < 0.0 then 0.0 else if vp0 > 1.0 then 1.0 else vp0 in
      let sum = vpa +. vpab +. vp1 +. vp0 in
      let idx = gbase + l in
      if sum <= 0.0 || Float.abs (sum -. 1.0) > 1e-6 then
        fm := fault_vector s !fm l ~vpa ~vpab ~vp1 ~vp0 ~sum
      else if sum = 1.0 then begin
        (* the common case: division by 1.0 is an IEEE identity, so skipping
           the four divides stays bit-identical to the normalizing store *)
        Array.unsafe_set dst_pa idx vpa;
        Array.unsafe_set dst_pa_bar idx vpab;
        Array.unsafe_set dst_p1 idx vp1;
        Array.unsafe_set dst_p0 idx vp0
      end
      else begin
        Array.unsafe_set dst_pa idx (vpa /. sum);
        Array.unsafe_set dst_pa_bar idx (vpab /. sum);
        Array.unsafe_set dst_p1 idx (vp1 /. sum);
        Array.unsafe_set dst_p0 idx (vp0 /. sum)
      end
    done;
    !fm

  (* XOR fold per live lane, mirroring the boxed [xor_rule]: accumulator
     starts at the raw (un-normalized) first input and each step applies the
     16-term expansion followed by the inline normalize.  A lane whose step
     trips a normalize condition faults; its accumulator is parked at the
     (valid) constant-0 vector so the remaining fanin-major loop stays
     branch-light, and its final store is suppressed via the fault mask. *)
  let accumulate_xor s fm ~fanins ~mask ~rows ~em ~sp ~stride ~pa ~pa_bar ~p1
      ~p0 ~live =
    let lanes = s.lanes and apa = s.aa and apab = s.ab and ap1 = s.ac and ap0 = s.ad in
    (* first input, gathered raw *)
    let u0 = Array.unsafe_get fanins 0 in
    let mu0 = Array.unsafe_get mask u0 land em in
    let base0 = Array.unsafe_get rows u0 * stride in
    let sv0 = Array.unsafe_get sp u0 in
    for i = 0 to live - 1 do
      let l = Array.unsafe_get lanes i in
      if mu0 land (1 lsl l) <> 0 then begin
        Array.unsafe_set apa i (Array.unsafe_get pa (base0 + l));
        Array.unsafe_set apab i (Array.unsafe_get pa_bar (base0 + l));
        Array.unsafe_set ap1 i (Array.unsafe_get p1 (base0 + l));
        Array.unsafe_set ap0 i (Array.unsafe_get p0 (base0 + l))
      end
      else begin
        Array.unsafe_set apa i 0.0;
        Array.unsafe_set apab i 0.0;
        Array.unsafe_set ap1 i sv0;
        Array.unsafe_set ap0 i (1.0 -. sv0)
      end
    done;
    let fm = ref fm in
    for j = 1 to Array.length fanins - 1 do
      let u = Array.unsafe_get fanins j in
      let mu = Array.unsafe_get mask u land em in
      let base = Array.unsafe_get rows u * stride in
      let sv = Array.unsafe_get sp u in
      for i = 0 to live - 1 do
        let l = Array.unsafe_get lanes i in
        let on = mu land (1 lsl l) <> 0 in
        let ypa = if on then Array.unsafe_get pa (base + l) else 0.0 in
        let ypab = if on then Array.unsafe_get pa_bar (base + l) else 0.0 in
        let yp1 = if on then Array.unsafe_get p1 (base + l) else sv in
        let yp0 = if on then Array.unsafe_get p0 (base + l) else 1.0 -. sv in
        let xpa = Array.unsafe_get apa i
        and xpab = Array.unsafe_get apab i
        and xp1 = Array.unsafe_get ap1 i
        and xp0 = Array.unsafe_get ap0 i in
        let vp1 = (xp1 *. yp0) +. (xp0 *. yp1) +. (xpa *. ypab) +. (xpab *. ypa) in
        let vp0 = (xp0 *. yp0) +. (xp1 *. yp1) +. (xpa *. ypa) +. (xpab *. ypab) in
        let vpa = (xpa *. yp0) +. (xpab *. yp1) +. (xp0 *. ypa) +. (xp1 *. ypab) in
        let vpab = (xpab *. yp0) +. (xpa *. yp1) +. (xp0 *. ypab) +. (xp1 *. ypa) in
        let vpa = if vpa < 0.0 then 0.0 else if vpa > 1.0 then 1.0 else vpa in
        let vpab = if vpab < 0.0 then 0.0 else if vpab > 1.0 then 1.0 else vpab in
        let vp1 = if vp1 < 0.0 then 0.0 else if vp1 > 1.0 then 1.0 else vp1 in
        let vp0 = if vp0 < 0.0 then 0.0 else if vp0 > 1.0 then 1.0 else vp0 in
        let sum = vpa +. vpab +. vp1 +. vp0 in
        if sum <= 0.0 || Float.abs (sum -. 1.0) > 1e-6 then begin
          if !fm land (1 lsl l) = 0 then
            fm := fault_vector s !fm l ~vpa ~vpab ~vp1 ~vp0 ~sum;
          Array.unsafe_set apa i 0.0;
          Array.unsafe_set apab i 0.0;
          Array.unsafe_set ap1 i 0.0;
          Array.unsafe_set ap0 i 1.0
        end
        else if sum = 1.0 then begin
          (* division by 1.0 is exact — skip it, bit-identically *)
          Array.unsafe_set apa i vpa;
          Array.unsafe_set apab i vpab;
          Array.unsafe_set ap1 i vp1;
          Array.unsafe_set ap0 i vp0
        end
        else begin
          Array.unsafe_set apa i (vpa /. sum);
          Array.unsafe_set apab i (vpab /. sum);
          Array.unsafe_set ap1 i (vp1 /. sum);
          Array.unsafe_set ap0 i (vp0 /. sum)
        end
      done
    done;
    !fm

  (* One gate, every live lane of the block.

     [em] is the gate's evaluation mask: the lanes that (a) have the gate
     on-path, (b) are still alive, and (c) are not seeded at this very node
     (a lane's own error site keeps its injected vector).  A node's vectors
     sit in plane row [rows.(node)].  Writes the output vectors at
     [rows.(gate) * stride + lane] of the four planes for every lane that
     completes, records per-lane faults in [scratch.faults] (reset on
     entry) and returns their bitmask. *)
  let propagate s kind ~fanins ~mask ~rows ~sp ~em ~stride ~pa ~pa_bar ~p1 ~p0
      gate =
    s.faults <- [];
    s.last_live <- 0;
    let fm = prescan_sp s ~fanins ~mask ~sp ~em in
    let em = em land lnot fm in
    if em = 0 then fm
    else
      match Gate.check_arity kind (Array.length fanins) with
      | exception e -> fault_all s fm em e
      | () ->
        (* compact the live lanes once; every inner loop then runs over
           [lanes.(0 .. live-1)].  A contiguous mask (2^t - 1 — the dense
           common case: every lane of a full block live) compacts to the
           identity without the per-bit ntz walk. *)
        let live = ref 0 in
        if em land (em + 1) = 0 then begin
          let m = ref em in
          while !m <> 0 do
            Array.unsafe_set s.lanes !live !live;
            incr live;
            m := !m lsr 1
          done
        end
        else begin
          let m = ref em in
          while !m <> 0 do
            Array.unsafe_set s.lanes !live (ntz !m);
            incr live;
            m := !m land (!m - 1)
          done
        end;
        let live = !live in
        s.last_live <- live;
        let gbase = Array.unsafe_get rows gate * stride in
        (match kind with
        | Gate.And | Gate.Nand ->
          accumulate_products s ~fanins ~mask ~rows ~em ~sp ~stride ~value:p1
            ~err_a:pa ~err_b:pa_bar ~complement:false ~live;
          (match kind with
          | Gate.And ->
            store_products s fm ~and_family:true ~live ~gbase ~dst_pa:pa
              ~dst_pa_bar:pa_bar ~dst_p1:p1 ~dst_p0:p0
          | _ ->
            store_products s fm ~and_family:true ~live ~gbase ~dst_pa:pa_bar
              ~dst_pa_bar:pa ~dst_p1:p0 ~dst_p0:p1)
        | Gate.Or | Gate.Nor ->
          accumulate_products s ~fanins ~mask ~rows ~em ~sp ~stride ~value:p0
            ~err_a:pa ~err_b:pa_bar ~complement:true ~live;
          (match kind with
          | Gate.Or ->
            store_products s fm ~and_family:false ~live ~gbase ~dst_pa:pa
              ~dst_pa_bar:pa_bar ~dst_p1:p1 ~dst_p0:p0
          | _ ->
            store_products s fm ~and_family:false ~live ~gbase ~dst_pa:pa_bar
              ~dst_pa_bar:pa ~dst_p1:p0 ~dst_p0:p1)
        | Gate.Xor | Gate.Xnor ->
          let fm =
            accumulate_xor s fm ~fanins ~mask ~rows ~em ~sp ~stride ~pa ~pa_bar
              ~p1 ~p0 ~live
          in
          (* XOR stores the folded accumulator without a final normalize,
             XNOR the polarity/value swap of it — exactly like the boxed
             xor_rule and its invert. *)
          let xnor = match kind with Gate.Xnor -> true | _ -> false in
          for i = 0 to live - 1 do
            let l = Array.unsafe_get s.lanes i in
            if fm land (1 lsl l) = 0 then begin
              let vpa = Array.unsafe_get s.aa i
              and vpab = Array.unsafe_get s.ab i
              and vp1 = Array.unsafe_get s.ac i
              and vp0 = Array.unsafe_get s.ad i in
              let idx = gbase + l in
              if xnor then begin
                Array.unsafe_set pa idx vpab;
                Array.unsafe_set pa_bar idx vpa;
                Array.unsafe_set p1 idx vp0;
                Array.unsafe_set p0 idx vp1
              end
              else begin
                Array.unsafe_set pa idx vpa;
                Array.unsafe_set pa_bar idx vpab;
                Array.unsafe_set p1 idx vp1;
                Array.unsafe_set p0 idx vp0
              end
            end
          done;
          fm
        | Gate.Not | Gate.Buf ->
          let u = Array.unsafe_get fanins 0 in
          let mu = Array.unsafe_get mask u land em in
          let base = Array.unsafe_get rows u * stride in
          let sv = Array.unsafe_get sp u in
          let invert = match kind with Gate.Not -> true | _ -> false in
          for i = 0 to live - 1 do
            let l = Array.unsafe_get s.lanes i in
            let on = mu land (1 lsl l) <> 0 in
            let vpa = if on then Array.unsafe_get pa (base + l) else 0.0 in
            let vpab = if on then Array.unsafe_get pa_bar (base + l) else 0.0 in
            let vp1 = if on then Array.unsafe_get p1 (base + l) else sv in
            let vp0 = if on then Array.unsafe_get p0 (base + l) else 1.0 -. sv in
            let idx = gbase + l in
            if invert then begin
              Array.unsafe_set pa idx vpab;
              Array.unsafe_set pa_bar idx vpa;
              Array.unsafe_set p1 idx vp0;
              Array.unsafe_set p0 idx vp1
            end
            else begin
              Array.unsafe_set pa idx vpa;
              Array.unsafe_set pa_bar idx vpab;
              Array.unsafe_set p1 idx vp1;
              Array.unsafe_set p0 idx vp0
            end
          done;
          fm
        | Gate.Const0 | Gate.Const1 ->
          let vp1 = match kind with Gate.Const1 -> 1.0 | _ -> 0.0 in
          for i = 0 to live - 1 do
            let idx = gbase + Array.unsafe_get s.lanes i in
            Array.unsafe_set pa idx 0.0;
            Array.unsafe_set pa_bar idx 0.0;
            Array.unsafe_set p1 idx vp1;
            Array.unsafe_set p0 idx (1.0 -. vp1)
          done;
          fm)
end

(* --- polarity-blind ablation --------------------------------------------

   The naive three-state propagation collapses Pa and Pā into a single
   "erroneous" mass Pe.  Without polarity, a reconvergent gate cannot tell
   a-meets-a from a-meets-ā, so it must assume any error in yields an error
   out — a systematic overestimate that the ablation bench quantifies.  This
   is what "EPP without the paper's key idea" looks like. *)

module Naive = struct
  type t = { pe : float; p1 : float; p0 : float }

  let normalize v =
    let c = Sigprob.Sp_rules.clamp in
    let v = { pe = c v.pe; p1 = c v.p1; p0 = c v.p0 } in
    let s = v.pe +. v.p1 +. v.p0 in
    if Float.abs (s -. 1.0) > 1e-6 then
      invalid_arg "Rules.Naive.normalize: components do not sum to 1"
    else { pe = v.pe /. s; p1 = v.p1 /. s; p0 = v.p0 /. s }

  let error_site = { pe = 1.0; p1 = 0.0; p0 = 0.0 }

  let of_sp sp = { pe = 0.0; p1 = sp; p0 = 1.0 -. sp }

  let invert v = { v with p1 = v.p0; p0 = v.p1 }

  let product f (inputs : t array) =
    let acc = ref 1.0 in
    Array.iter (fun v -> acc := !acc *. f v) inputs;
    !acc

  let and_rule inputs =
    let p1 = product (fun v -> v.p1) inputs in
    let pe = product (fun v -> v.p1 +. v.pe) inputs -. p1 in
    normalize { pe; p1; p0 = 1.0 -. p1 -. pe }

  let or_rule inputs =
    let p0 = product (fun v -> v.p0) inputs in
    let pe = product (fun v -> v.p0 +. v.pe) inputs -. p0 in
    normalize { pe; p0; p1 = 1.0 -. p0 -. pe }

  let xor2 x y =
    let p1 = (x.p1 *. y.p0) +. (x.p0 *. y.p1) in
    let p0 = (x.p0 *. y.p0) +. (x.p1 *. y.p1) in
    (* any error involvement counts as an error: the polarity-blind choice *)
    normalize { pe = 1.0 -. p1 -. p0; p1; p0 }

  let xor_rule inputs =
    let acc = ref inputs.(0) in
    for i = 1 to Array.length inputs - 1 do
      acc := xor2 !acc inputs.(i)
    done;
    !acc

  let propagate kind (inputs : t array) =
    Gate.check_arity kind (Array.length inputs);
    match kind with
    | Gate.And -> and_rule inputs
    | Gate.Nand -> invert (and_rule inputs)
    | Gate.Or -> or_rule inputs
    | Gate.Nor -> invert (or_rule inputs)
    | Gate.Xor -> xor_rule inputs
    | Gate.Xnor -> invert (xor_rule inputs)
    | Gate.Not -> invert inputs.(0)
    | Gate.Buf -> inputs.(0)
    | Gate.Const0 -> of_sp 0.0
    | Gate.Const1 -> of_sp 1.0
end
