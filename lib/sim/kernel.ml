(* Levelized event-driven fault-simulation kernel.

   Rather than re-evaluating every gate every cycle, the kernel
   simulates a faulty machine as a *difference* against a
   precomputed fault-free trace: [dv.(g)] holds [faulty XOR good] for gate
   [g], zero almost everywhere.  Each cycle seeds the difference at the
   fault sites and at flip-flops whose state diverged, then propagates it
   level by level through the fanout cone only — a gate is evaluated
   exactly when some fanin (or an injected override) might have changed
   it, and propagation dies out as soon as the faulty machine reconverges
   with the good one.  All values are [Asc_util.Word] bit-parallel words,
   so the cone walk serves 62 faulty machines (or candidate states) at
   once.

   The schedule is the circuit's flat levelized arrays
   ({!Asc_netlist.Circuit.level_order}): ints, no closures, shared
   read-only across engines and domains.  Combinational fanouts always
   sit at strictly higher levels, so an ascending level walk evaluates
   each gate at most once per cycle, after all its fanins.

   Equivalence contract: for any override set, the detection words
   derived from [po_diff]/[state_diff] equal those of a full scalar
   re-simulation of each faulty machine against the fault-free one — the
   kernel test suite pins this against a faulty simulator built on
   {!Naive}, which shares no code with this module. *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Gate = Asc_netlist.Gate

type t = {
  c : Circuit.t;
  kinds : Gate.kind array;
  flat : int array; (* fanins, CSR *)
  off : int array;
  coflat : int array; (* combinational-only fanouts, CSR *)
  cooff : int array;
  level : int array;
  sched : int array; (* comb gates, ascending level (Circuit.level_order) *)
  level_off : int array; (* sched offsets per level *)
  spill_bar : int; (* queue-evaluated gates per cycle before spilling *)
  dffs : int array; (* flip-flop gate ids *)
  dff_din : int array; (* per DFF index: its next-state signal's gate id *)
  outputs : int array;
  dv : int array; (* faulty XOR good, per gate; zero outside the cone *)
  mutable keep : int (* lanes still propagated; the complement is pruned *);
  queued : Bytes.t; (* gate already in its level bucket this cycle *)
  ovr_flag : Bytes.t; (* combinational gate carries an override *)
  buckets : int array array; (* per level, capacity = level population *)
  blen : int array;
  touched : int array; (* gates with dv set this cycle, for O(cone) reset *)
  mutable ntouched : int;
  state_diff : int array; (* per DFF index; persists across cycles *)
  mutable source_ovr : Override.t array; (* pin = -1 on Input/Dff, input order *)
  mutable dff_pin0 : (int * Override.t list) list; (* DFF index -> pin-0 overrides *)
  mutable comb_sites : int array; (* overridden comb gates, for per-cycle seeding *)
  mutable comb_lanes : int array; (* per comb site: the union of its overrides' lanes *)
  ovr : Override.t list array; (* per-gate overrides (comb gates only) *)
  mutable evaluated : int; (* cone gates evaluated since last [take_evaluated] *)
}

let create c =
  let n = Circuit.n_gates c in
  let s = Sched.create c in
  {
    c;
    kinds = s.kinds;
    flat = s.flat;
    off = s.off;
    coflat = s.coflat;
    cooff = s.cooff;
    level = s.level;
    sched = s.sched;
    level_off = s.level_off;
    spill_bar = s.spill_bar;
    dffs = s.dffs;
    dff_din = s.dff_din;
    outputs = s.outputs;
    dv = Array.make n 0;
    keep = Word.mask;
    queued = Bytes.make n '\000';
    ovr_flag = Bytes.make n '\000';
    buckets = Sched.buckets s;
    blen = Array.make (Array.length s.level_off - 1) 0;
    touched = Array.make n 0;
    ntouched = 0;
    state_diff = Array.make (Circuit.n_dffs c) 0;
    source_ovr = [||];
    dff_pin0 = [];
    comb_sites = [||];
    comb_lanes = [||];
    ovr = Array.make n [];
    evaluated = 0;
  }


(* Grouping and application order: see [Sched.group]. *)
let set_overrides t overrides =
  Array.iter
    (fun g ->
      Bytes.set t.ovr_flag g '\000';
      t.ovr.(g) <- [])
    t.comb_sites;
  let grouped = Sched.group t.c ~kinds:t.kinds overrides in
  t.source_ovr <- grouped.source;
  t.dff_pin0 <- grouped.dff_pin0;
  t.comb_sites <- Array.of_list (List.map fst grouped.comb);
  t.comb_lanes <-
    Array.of_list (List.map (fun (_, l) -> Sched.union_lanes l) grouped.comb);
  List.iter
    (fun (g, l) ->
      Bytes.set t.ovr_flag g '\001';
      t.ovr.(g) <- l)
    grouped.comb

(* Clear any leftover in-cycle difference (a detection loop may stop
   between [cycle] and [finish_cycle] on its early exit). *)
let clear_cycle t =
  for k = 0 to t.ntouched - 1 do
    t.dv.(t.touched.(k)) <- 0
  done;
  t.ntouched <- 0

let reset t =
  Array.fill t.state_diff 0 (Array.length t.state_diff) 0;
  clear_cycle t

let load_state_diff t ~diff =
  clear_cycle t;
  Array.blit diff 0 t.state_diff 0 (Array.length t.state_diff)

let[@inline] set_dv t g ndv =
  if t.dv.(g) = 0 && ndv <> 0 then begin
    t.touched.(t.ntouched) <- g;
    t.ntouched <- t.ntouched + 1
  end;
  t.dv.(g) <- ndv

let[@inline] push t g =
  if Bytes.unsafe_get t.queued g = '\000' then begin
    Bytes.unsafe_set t.queued g '\001';
    let l = Array.unsafe_get t.level g in
    let b = Array.unsafe_get t.buckets l in
    Array.unsafe_set b (Array.unsafe_get t.blen l) g;
    Array.unsafe_set t.blen l (Array.unsafe_get t.blen l + 1)
  end

(* Queue the combinational fanouts of [g]; DFF fanins are sequential
   edges, picked up by [finish_cycle] instead. *)
let[@inline] push_comb_fanouts t g =
  let coflat = t.coflat in
  for i = Array.unsafe_get t.cooff g to Array.unsafe_get t.cooff (g + 1) - 1 do
    push t (Array.unsafe_get coflat i)
  done

(* [eval_body kind get n]: the word-parallel gate function over [n]
   fanin words supplied by [get], masked to the lane width.  Overridden
   gates evaluate through it (inlined there), and so do engines built on
   top (the transition-fault simulator's delay sweep). *)
let[@inline] eval_body kind get n =
  match (kind : Gate.kind) with
  | Gate.And ->
      let acc = ref (get 0) in
      for i = 1 to n - 1 do
        acc := !acc land get i
      done;
      !acc
  | Gate.Nand ->
      let acc = ref (get 0) in
      for i = 1 to n - 1 do
        acc := !acc land get i
      done;
      lnot !acc land Word.mask
  | Gate.Or ->
      let acc = ref (get 0) in
      for i = 1 to n - 1 do
        acc := !acc lor get i
      done;
      !acc
  | Gate.Nor ->
      let acc = ref (get 0) in
      for i = 1 to n - 1 do
        acc := !acc lor get i
      done;
      lnot !acc land Word.mask
  | Gate.Xor ->
      let acc = ref (get 0) in
      for i = 1 to n - 1 do
        acc := !acc lxor get i
      done;
      !acc
  | Gate.Xnor ->
      let acc = ref (get 0) in
      for i = 1 to n - 1 do
        acc := !acc lxor get i
      done;
      lnot !acc land Word.mask
  | Gate.Not -> lnot (get 0) land Word.mask
  | Gate.Buf -> get 0
  | Gate.Const0 -> 0
  | Gate.Const1 -> Word.mask
  | Gate.Input | Gate.Dff -> invalid_arg "Kernel.eval_body: source gate"

(* The overrides of [overrides] on pin [i] (pin -1: the output) applied
   to [w] in list order — a plain walk, so the overridden-gate path
   allocates nothing per fanin. *)
let rec apply_pin i w = function
  | [] -> w
  | (o : Override.t) :: rest ->
      apply_pin i (if o.pin = i then Override.apply o w else w) rest

(* Faulty value of an overridden combinational gate: the body over the
   faulty fanin words [fanin f] with pin overrides, then output
   overrides.  Every live fault site of a group is evaluated each cycle,
   so this path is as hot as the cone walk itself. *)
let eval_overridden t ~fanin g =
  let lo = t.off.(g) in
  let overrides = t.ovr.(g) in
  let get i = apply_pin i (fanin t.flat.(lo + i)) overrides in
  apply_pin (-1) (eval_body t.kinds.(g) get (t.off.(g + 1) - lo)) overrides

(* Faulty value of a plain combinational gate: the body over
   [good XOR dv] fanin words, with a 2-input fast path. *)
let eval_plain t gw g =
  let flat = t.flat and dv = t.dv in
  let lo = Array.unsafe_get t.off g in
  let hi = Array.unsafe_get t.off (g + 1) in
  if hi - lo = 2 then begin
    let f0 = Array.unsafe_get flat lo and f1 = Array.unsafe_get flat (lo + 1) in
    let a = Array.unsafe_get gw f0 lxor Array.unsafe_get dv f0 in
    let b = Array.unsafe_get gw f1 lxor Array.unsafe_get dv f1 in
    match Array.unsafe_get t.kinds g with
    | Gate.And -> a land b
    | Gate.Nand -> lnot (a land b) land Word.mask
    | Gate.Or -> a lor b
    | Gate.Nor -> lnot (a lor b) land Word.mask
    | Gate.Xor -> a lxor b
    | Gate.Xnor -> lnot (a lxor b) land Word.mask
    | Gate.Not | Gate.Buf | Gate.Const0 | Gate.Const1 | Gate.Input | Gate.Dff ->
        assert false
  end
  else
    let fv i =
      let f = Array.unsafe_get flat i in
      Array.unsafe_get gw f lxor Array.unsafe_get dv f
    in
    match Array.unsafe_get t.kinds g with
    | Gate.And ->
        let acc = ref (fv lo) in
        for i = lo + 1 to hi - 1 do
          acc := !acc land fv i
        done;
        !acc
    | Gate.Nand ->
        let acc = ref (fv lo) in
        for i = lo + 1 to hi - 1 do
          acc := !acc land fv i
        done;
        lnot !acc land Word.mask
    | Gate.Or ->
        let acc = ref (fv lo) in
        for i = lo + 1 to hi - 1 do
          acc := !acc lor fv i
        done;
        !acc
    | Gate.Nor ->
        let acc = ref (fv lo) in
        for i = lo + 1 to hi - 1 do
          acc := !acc lor fv i
        done;
        lnot !acc land Word.mask
    | Gate.Xor ->
        let acc = ref (fv lo) in
        for i = lo + 1 to hi - 1 do
          acc := !acc lxor fv i
        done;
        !acc
    | Gate.Xnor ->
        let acc = ref (fv lo) in
        for i = lo + 1 to hi - 1 do
          acc := !acc lxor fv i
        done;
        lnot !acc land Word.mask
    | Gate.Not -> lnot (fv lo) land Word.mask
    | Gate.Buf -> fv lo
    | Gate.Const0 -> 0
    | Gate.Const1 -> Word.mask
    | Gate.Input | Gate.Dff -> assert false

(* One combinational settle of the faulty machine against the good
   values [gw] (one word per gate, sources included).  Seeds: diverged
   flip-flops, source output overrides, and the combinational override
   sites with a live (unpruned) lane; then an ascending level walk over
   the queued cone.  A gate whose faulty value matches the good one
   queues nothing — reconvergence stops the walk.  A site whose
   overrides all sit in pruned lanes can change only pruned lanes, and a
   live difference still reaches it through its fanins, so skipping its
   seed changes no live lane.

   [prune] masks lanes out of the propagation.  Lanes are independent,
   so a pruned lane merely behaves fault-free from here on — sound
   exactly when the caller no longer reads that lane's differences
   (detection loops prune lanes already detected, whose result bit is a
   monotonic OR; [Seq_fsim.profile] prunes a lane after its first PO
   detection, past which it records nothing). *)
let cycle ?(prune = 0) t ~gw =
  t.keep <- Word.mask land lnot prune;
  let keep = t.keep in
  let dv = t.dv in
  let fanin f = gw.(f) lxor dv.(f) in
  for i = 0 to Array.length t.state_diff - 1 do
    let sd = Array.unsafe_get t.state_diff i land keep in
    if sd <> 0 then set_dv t t.dffs.(i) sd
  done;
  let source_ovr = t.source_ovr in
  for i = 0 to Array.length source_ovr - 1 do
    let o = source_ovr.(i) in
    let g = o.Override.gate in
    set_dv t g ((Override.apply o (gw.(g) lxor dv.(g)) lxor gw.(g)) land keep)
  done;
  for k = 0 to t.ntouched - 1 do
    let g = t.touched.(k) in
    if dv.(g) <> 0 then push_comb_fanouts t g
  done;
  let comb_sites = t.comb_sites and comb_lanes = t.comb_lanes in
  for i = 0 to Array.length comb_sites - 1 do
    if Array.unsafe_get comb_lanes i land keep <> 0 then
      push t (Array.unsafe_get comb_sites i)
  done;
  let nlevels = Array.length t.blen in
  let evaluated = ref 0 in
  let l = ref 0 in
  while !l < nlevels && !evaluated <= t.spill_bar do
    let bucket = t.buckets.(!l) in
    let len = t.blen.(!l) in
    for bi = 0 to len - 1 do
      let g = Array.unsafe_get bucket bi in
      incr evaluated;
      let fv =
        if Bytes.unsafe_get t.ovr_flag g = '\001' then eval_overridden t ~fanin g
        else eval_plain t gw g
      in
      let ndv = (fv lxor Array.unsafe_get gw g) land keep in
      if ndv <> 0 then begin
        set_dv t g ndv;
        push_comb_fanouts t g
      end
    done;
    for bi = 0 to len - 1 do
      Bytes.unsafe_set t.queued (Array.unsafe_get bucket bi) '\000'
    done;
    t.blen.(!l) <- 0;
    incr l
  done;
  (* Spill: once the cone covers a sizable part of the circuit the event
     queue costs more per gate than a straight schedule sweep, so finish
     the remaining levels linearly — evaluate every gate there whether
     queued or not (a gate outside the cone just reconverges to ndv = 0).
     The result is identical; only the walk strategy changes. *)
  if !l < nlevels then begin
    for l' = !l to nlevels - 1 do
      let bucket = t.buckets.(l') in
      for bi = 0 to t.blen.(l') - 1 do
        Bytes.unsafe_set t.queued (Array.unsafe_get bucket bi) '\000'
      done;
      t.blen.(l') <- 0
    done;
    let sched = t.sched in
    let ovr_flag = t.ovr_flag in
    for idx = t.level_off.(!l) to Array.length sched - 1 do
      let g = Array.unsafe_get sched idx in
      incr evaluated;
      let fv =
        if Bytes.unsafe_get ovr_flag g = '\001' then eval_overridden t ~fanin g
        else eval_plain t gw g
      in
      let ndv = (fv lxor Array.unsafe_get gw g) land keep in
      if ndv <> 0 then set_dv t g ndv
    done
  end;
  t.evaluated <- t.evaluated + !evaluated

(* --- byte-trace variants ----------------------------------------------- *)

(* Splat good traces (every lane the same fault-free machine) are stored
   as one byte per gate ([Seq_fsim]'s trace cache): 8x denser than word
   arrays, so a whole cycle's good values live in a handful of cache
   lines.  The word of gate [g] is recovered on the fly:
   [(-byte) land Word.mask] is 0 for byte 0 and the all-lanes word for
   byte 1.  These are exact duplicates of [eval_plain]/[cycle]/
   [finish_cycle] over that accessor — kept as copies because the
   per-access indirection of a shared abstraction is what they exist to
   avoid.  Overridden gates are the cold path and share
   [eval_overridden] through its [fanin] accessor. *)

let[@inline] gword gb g = (0 - Char.code (Bytes.unsafe_get gb g)) land Word.mask

let eval_plain_bits t gb g =
  let flat = t.flat and dv = t.dv in
  let lo = Array.unsafe_get t.off g in
  let hi = Array.unsafe_get t.off (g + 1) in
  if hi - lo = 2 then begin
    let f0 = Array.unsafe_get flat lo and f1 = Array.unsafe_get flat (lo + 1) in
    let a = gword gb f0 lxor Array.unsafe_get dv f0 in
    let b = gword gb f1 lxor Array.unsafe_get dv f1 in
    match Array.unsafe_get t.kinds g with
    | Gate.And -> a land b
    | Gate.Nand -> lnot (a land b) land Word.mask
    | Gate.Or -> a lor b
    | Gate.Nor -> lnot (a lor b) land Word.mask
    | Gate.Xor -> a lxor b
    | Gate.Xnor -> lnot (a lxor b) land Word.mask
    | Gate.Not | Gate.Buf | Gate.Const0 | Gate.Const1 | Gate.Input | Gate.Dff ->
        assert false
  end
  else
    let fv i =
      let f = Array.unsafe_get flat i in
      gword gb f lxor Array.unsafe_get dv f
    in
    match Array.unsafe_get t.kinds g with
    | Gate.And ->
        let acc = ref (fv lo) in
        for i = lo + 1 to hi - 1 do
          acc := !acc land fv i
        done;
        !acc
    | Gate.Nand ->
        let acc = ref (fv lo) in
        for i = lo + 1 to hi - 1 do
          acc := !acc land fv i
        done;
        lnot !acc land Word.mask
    | Gate.Or ->
        let acc = ref (fv lo) in
        for i = lo + 1 to hi - 1 do
          acc := !acc lor fv i
        done;
        !acc
    | Gate.Nor ->
        let acc = ref (fv lo) in
        for i = lo + 1 to hi - 1 do
          acc := !acc lor fv i
        done;
        lnot !acc land Word.mask
    | Gate.Xor ->
        let acc = ref (fv lo) in
        for i = lo + 1 to hi - 1 do
          acc := !acc lxor fv i
        done;
        !acc
    | Gate.Xnor ->
        let acc = ref (fv lo) in
        for i = lo + 1 to hi - 1 do
          acc := !acc lxor fv i
        done;
        lnot !acc land Word.mask
    | Gate.Not -> lnot (fv lo) land Word.mask
    | Gate.Buf -> fv lo
    | Gate.Const0 -> 0
    | Gate.Const1 -> Word.mask
    | Gate.Input | Gate.Dff -> assert false

let cycle_bits ?(prune = 0) t ~gb =
  t.keep <- Word.mask land lnot prune;
  let keep = t.keep in
  let dv = t.dv in
  let fanin f = gword gb f lxor dv.(f) in
  for i = 0 to Array.length t.state_diff - 1 do
    let sd = Array.unsafe_get t.state_diff i land keep in
    if sd <> 0 then set_dv t t.dffs.(i) sd
  done;
  let source_ovr = t.source_ovr in
  for i = 0 to Array.length source_ovr - 1 do
    let o = source_ovr.(i) in
    let g = o.Override.gate in
    let good = gword gb g in
    set_dv t g ((Override.apply o (good lxor dv.(g)) lxor good) land keep)
  done;
  for k = 0 to t.ntouched - 1 do
    let g = t.touched.(k) in
    if dv.(g) <> 0 then push_comb_fanouts t g
  done;
  let comb_sites = t.comb_sites and comb_lanes = t.comb_lanes in
  for i = 0 to Array.length comb_sites - 1 do
    if Array.unsafe_get comb_lanes i land keep <> 0 then
      push t (Array.unsafe_get comb_sites i)
  done;
  let nlevels = Array.length t.blen in
  let evaluated = ref 0 in
  let l = ref 0 in
  while !l < nlevels && !evaluated <= t.spill_bar do
    let bucket = t.buckets.(!l) in
    let len = t.blen.(!l) in
    for bi = 0 to len - 1 do
      let g = Array.unsafe_get bucket bi in
      incr evaluated;
      let fv =
        if Bytes.unsafe_get t.ovr_flag g = '\001' then eval_overridden t ~fanin g
        else eval_plain_bits t gb g
      in
      let ndv = (fv lxor gword gb g) land keep in
      if ndv <> 0 then begin
        set_dv t g ndv;
        push_comb_fanouts t g
      end
    done;
    for bi = 0 to len - 1 do
      Bytes.unsafe_set t.queued (Array.unsafe_get bucket bi) '\000'
    done;
    t.blen.(!l) <- 0;
    incr l
  done;
  if !l < nlevels then begin
    for l' = !l to nlevels - 1 do
      let bucket = t.buckets.(l') in
      for bi = 0 to t.blen.(l') - 1 do
        Bytes.unsafe_set t.queued (Array.unsafe_get bucket bi) '\000'
      done;
      t.blen.(l') <- 0
    done;
    let sched = t.sched in
    let ovr_flag = t.ovr_flag in
    for idx = t.level_off.(!l) to Array.length sched - 1 do
      let g = Array.unsafe_get sched idx in
      incr evaluated;
      let fv =
        if Bytes.unsafe_get ovr_flag g = '\001' then eval_overridden t ~fanin g
        else eval_plain_bits t gb g
      in
      let ndv = (fv lxor gword gb g) land keep in
      if ndv <> 0 then set_dv t g ndv
    done
  end;
  t.evaluated <- t.evaluated + !evaluated

let finish_cycle_bits t ~gb =
  let din = t.dff_din in
  for i = 0 to Array.length din - 1 do
    t.state_diff.(i) <- t.dv.(din.(i))
  done;
  List.iter
    (fun (i, ovrs) ->
      let d = din.(i) in
      let good = gword gb d in
      let fv = apply_pin 0 (good lxor t.dv.(d)) ovrs in
      t.state_diff.(i) <- (fv lxor good) land t.keep)
    t.dff_pin0;
  for k = 0 to t.ntouched - 1 do
    t.dv.(t.touched.(k)) <- 0
  done;
  t.ntouched <- 0

(* PO difference word of the settled cycle (read before [finish_cycle]). *)
let po_diff t =
  let outputs = t.outputs in
  let diff = ref 0 in
  for i = 0 to Array.length outputs - 1 do
    diff := !diff lor Array.unsafe_get t.dv (Array.unsafe_get outputs i)
  done;
  !diff

(* Clock edge: capture next-state differences (with DFF pin-0 overrides
   folded in against the good captured value [gw.(din)]) and clear the
   in-cycle difference in O(cone). *)
let finish_cycle t ~gw =
  let din = t.dff_din in
  for i = 0 to Array.length din - 1 do
    t.state_diff.(i) <- t.dv.(din.(i))
  done;
  List.iter
    (fun (i, ovrs) ->
      let d = din.(i) in
      let good = gw.(d) in
      let fv = apply_pin 0 (good lxor t.dv.(d)) ovrs in
      t.state_diff.(i) <- (fv lxor good) land t.keep)
    t.dff_pin0;
  for k = 0 to t.ntouched - 1 do
    t.dv.(t.touched.(k)) <- 0
  done;
  t.ntouched <- 0

(* State difference entering the next cycle (equals the scan-out
   difference after the final [finish_cycle]). *)
let state_diff_word t =
  let diff = ref 0 in
  for i = 0 to Array.length t.state_diff - 1 do
    diff := !diff lor t.state_diff.(i)
  done;
  !diff

let state_diff t i = t.state_diff.(i)

let take_evaluated t =
  let n = t.evaluated in
  t.evaluated <- 0;
  n

(* --- fault-free levelized sweep --------------------------------------- *)

(* Evaluate the fault-free machine for one cycle into [v] (every gate,
   sources included): the 62-wide good-machine kernel.  No overrides, no
   per-gate override test. *)
let good_cycle t ~pi_words ~state ~v =
  let c = t.c in
  let inputs = Circuit.inputs c in
  if Array.length pi_words <> Array.length inputs then invalid_arg "Kernel.good_cycle";
  Array.iteri (fun i g -> v.(g) <- pi_words.(i)) inputs;
  Array.iteri (fun i g -> v.(g) <- state.(i)) (Circuit.dffs c);
  let sched = Circuit.level_order c in
  let kinds = t.kinds and flat = t.flat and off = t.off in
  for idx = 0 to Array.length sched - 1 do
    let g = Array.unsafe_get sched idx in
    let lo = Array.unsafe_get off g in
    let hi = Array.unsafe_get off (g + 1) in
    let w =
      if hi - lo = 2 then begin
        let a = Array.unsafe_get v (Array.unsafe_get flat lo) in
        let b = Array.unsafe_get v (Array.unsafe_get flat (lo + 1)) in
        match Array.unsafe_get kinds g with
        | Gate.And -> a land b
        | Gate.Nand -> lnot (a land b) land Word.mask
        | Gate.Or -> a lor b
        | Gate.Nor -> lnot (a lor b) land Word.mask
        | Gate.Xor -> a lxor b
        | Gate.Xnor -> lnot (a lxor b) land Word.mask
        | Gate.Not | Gate.Buf | Gate.Const0 | Gate.Const1 | Gate.Input | Gate.Dff ->
            assert false
      end
      else
        match Array.unsafe_get kinds g with
        | Gate.And ->
            let acc = ref (Array.unsafe_get v (Array.unsafe_get flat lo)) in
            for i = lo + 1 to hi - 1 do
              acc := !acc land Array.unsafe_get v (Array.unsafe_get flat i)
            done;
            !acc
        | Gate.Nand ->
            let acc = ref (Array.unsafe_get v (Array.unsafe_get flat lo)) in
            for i = lo + 1 to hi - 1 do
              acc := !acc land Array.unsafe_get v (Array.unsafe_get flat i)
            done;
            lnot !acc land Word.mask
        | Gate.Or ->
            let acc = ref (Array.unsafe_get v (Array.unsafe_get flat lo)) in
            for i = lo + 1 to hi - 1 do
              acc := !acc lor Array.unsafe_get v (Array.unsafe_get flat i)
            done;
            !acc
        | Gate.Nor ->
            let acc = ref (Array.unsafe_get v (Array.unsafe_get flat lo)) in
            for i = lo + 1 to hi - 1 do
              acc := !acc lor Array.unsafe_get v (Array.unsafe_get flat i)
            done;
            lnot !acc land Word.mask
        | Gate.Xor ->
            let acc = ref (Array.unsafe_get v (Array.unsafe_get flat lo)) in
            for i = lo + 1 to hi - 1 do
              acc := !acc lxor Array.unsafe_get v (Array.unsafe_get flat i)
            done;
            !acc
        | Gate.Xnor ->
            let acc = ref (Array.unsafe_get v (Array.unsafe_get flat lo)) in
            for i = lo + 1 to hi - 1 do
              acc := !acc lxor Array.unsafe_get v (Array.unsafe_get flat i)
            done;
            lnot !acc land Word.mask
        | Gate.Not -> lnot (Array.unsafe_get v (Array.unsafe_get flat lo)) land Word.mask
        | Gate.Buf -> Array.unsafe_get v (Array.unsafe_get flat lo)
        | Gate.Const0 -> 0
        | Gate.Const1 -> Word.mask
        | Gate.Input | Gate.Dff -> assert false
    in
    Array.unsafe_set v g w
  done

(* Clock edge of the fault-free sweep: [state.(i) <- v.(din i)]. *)
let good_capture t ~v ~state =
  let c = t.c in
  let dffs = Circuit.dffs c in
  for i = 0 to Array.length dffs - 1 do
    state.(i) <- v.(Circuit.dff_input c dffs.(i))
  done
