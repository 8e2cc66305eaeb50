(* Levelized event-driven 3-valued (0/1/X) fault-simulation kernel.

   The 3-valued counterpart of {!Kernel}, for simulation from an unknown
   initial state ("without scan") and under partial scan.  Every value is
   the two-word (z, o) encoding: a lane set in [z] is known-0, in [o]
   known-1, in neither X.  Gate functions are the standard pessimistic
   extensions: an AND is 0 when any input is 0, 1 when all inputs are 1,
   X otherwise; an XOR is known only when every input is known.

   In every caller the fault-free machine is a single machine, so its
   trace is one byte per gate per cycle (bit 0 = known 0, bit 1 = known 1,
   neither = X), computed by a scalar sweep ([good_cycle]).  A faulty
   machine is simulated as a lane-parallel *difference* against that
   trace: [dz.(g)]/[dn.(g)] hold faulty XOR good on the z and o words,
   zero outside the fanout cone of the fault sites and diverged
   flip-flops.  The cone walk — level buckets over the flat CSR schedule,
   a spill to a linear sweep once the cone grows large, O(cone) reset
   through a touched list, lane pruning — is {!Kernel}'s.

   A lane is detected at a signal when the good value is binary and the
   faulty value is the complementary binary value:
   [(gz land fo) lor (go land fz)]; with [fo = go lxor dn] and a binary
   good value this is [(gz land dn) lor (go land dz)]. *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Gate = Asc_netlist.Gate

let x = '\000'

let zero = '\001'

let one = '\002'

let of_bool b = if b then one else zero

type t = {
  c : Circuit.t;
  kinds : Gate.kind array;
  flat : int array;
  off : int array;
  coflat : int array;
  cooff : int array;
  level : int array;
  sched : int array;
  level_off : int array;
  spill_bar : int;
  dffs : int array;
  dff_din : int array;
  inputs : int array;
  outputs : int array;
  dz : int array; (* faulty z XOR good z, per gate; zero outside the cone *)
  dn : int array; (* faulty o XOR good o *)
  mutable keep : int; (* lanes still propagated; the complement is pruned *)
  queued : Bytes.t;
  ovr_flag : Bytes.t;
  buckets : int array array;
  blen : int array;
  touched : int array;
  mutable ntouched : int;
  sdz : int array; (* per DFF index; persists across cycles *)
  sdn : int array;
  mutable source_ovr : Override.t array;
  mutable dff_pin0 : (int * Override.t list) list;
  mutable comb_sites : int array;
  mutable comb_lanes : int array; (* per comb site: the union of its overrides' lanes *)
  ovr : Override.t list array;
  mutable evaluated : int;
  mutable rz : int; (* faulty (z, o) of the gate just evaluated *)
  mutable ro : int;
  fz : int array; (* an overridden gate's faulty fanin words, per pin *)
  fo : int array;
  scratch : Bytes.t; (* good row for [good_step] *)
}

let create c =
  let n = Circuit.n_gates c in
  let s = Sched.create c in
  let n_ff = Circuit.n_dffs c in
  let max_fanin = ref 1 in
  for g = 0 to n - 1 do
    max_fanin := max !max_fanin (s.off.(g + 1) - s.off.(g))
  done;
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
    inputs = Circuit.inputs c;
    outputs = s.outputs;
    dz = Array.make n 0;
    dn = Array.make n 0;
    keep = Word.mask;
    queued = Bytes.make n '\000';
    ovr_flag = Bytes.make n '\000';
    buckets = Sched.buckets s;
    blen = Array.make (Array.length s.level_off - 1) 0;
    touched = Array.make n 0;
    ntouched = 0;
    sdz = Array.make n_ff 0;
    sdn = Array.make n_ff 0;
    source_ovr = [||];
    dff_pin0 = [];
    comb_sites = [||];
    comb_lanes = [||];
    ovr = Array.make n [];
    evaluated = 0;
    rz = 0;
    ro = 0;
    fz = Array.make !max_fanin 0;
    fo = Array.make !max_fanin 0;
    scratch = Bytes.make n x;
  }

let x_state c = Bytes.make (Circuit.n_dffs c) x

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
   between [cycle] and [finish_cycle], or a budget may unwind it). *)
let clear_cycle t =
  for k = 0 to t.ntouched - 1 do
    let g = t.touched.(k) in
    t.dz.(g) <- 0;
    t.dn.(g) <- 0
  done;
  t.ntouched <- 0

let reset t =
  Array.fill t.sdz 0 (Array.length t.sdz) 0;
  Array.fill t.sdn 0 (Array.length t.sdn) 0;
  clear_cycle t

let load_state_diff t ~z ~o =
  clear_cycle t;
  Array.blit z 0 t.sdz 0 (Array.length t.sdz);
  Array.blit o 0 t.sdn 0 (Array.length t.sdn)

let store_state_diff t ~z ~o =
  Array.blit t.sdz 0 z 0 (Array.length t.sdz);
  Array.blit t.sdn 0 o 0 (Array.length t.sdn)

(* Splat good words of gate [g] from its trace byte. *)
let[@inline] gz gb g = (0 - (Char.code (Bytes.unsafe_get gb g) land 1)) land Word.mask

let[@inline] go gb g = (0 - (Char.code (Bytes.unsafe_get gb g) lsr 1)) land Word.mask

let[@inline] set_d t g ndz ndn =
  if Array.unsafe_get t.dz g lor Array.unsafe_get t.dn g = 0 && ndz lor ndn <> 0 then begin
    Array.unsafe_set t.touched t.ntouched g;
    t.ntouched <- t.ntouched + 1
  end;
  Array.unsafe_set t.dz g ndz;
  Array.unsafe_set t.dn g ndn

let[@inline] push t g =
  if Bytes.unsafe_get t.queued g = '\000' then begin
    Bytes.unsafe_set t.queued g '\001';
    let l = Array.unsafe_get t.level g in
    let b = Array.unsafe_get t.buckets l in
    Array.unsafe_set b (Array.unsafe_get t.blen l) g;
    Array.unsafe_set t.blen l (Array.unsafe_get t.blen l + 1)
  end

let[@inline] push_comb_fanouts t g =
  let coflat = t.coflat in
  for i = Array.unsafe_get t.cooff g to Array.unsafe_get t.cooff (g + 1) - 1 do
    push t (Array.unsafe_get coflat i)
  done

(* Force the override's lanes of [t.rz]/[t.ro] to its stuck value. *)
let force t (o : Override.t) =
  if o.stuck then begin
    t.rz <- t.rz land lnot o.lanes;
    t.ro <- t.ro lor o.lanes
  end
  else begin
    t.rz <- t.rz lor o.lanes;
    t.ro <- t.ro land lnot o.lanes
  end

(* [force] by the overrides of [ovrs] on pin [pin] (-1: the output), in
   list order: a plain walk, so overridden gates allocate nothing. *)
let rec force_pin t pin = function
  | [] -> ()
  | (o : Override.t) :: rest ->
      if o.pin = pin then force t o;
      force_pin t pin rest

(* The 3-valued gate function over the [n] fanin words in [t.fz]/[t.fo],
   into [t.rz]/[t.ro]. *)
let eval_body t kind ~n =
  let fz = t.fz and fo = t.fo in
  match (kind : Gate.kind) with
  | Gate.And | Gate.Nand ->
      let z = ref fz.(0) and o = ref fo.(0) in
      for i = 1 to n - 1 do
        z := !z lor fz.(i);
        o := !o land fo.(i)
      done;
      if kind = Gate.And then (t.rz <- !z; t.ro <- !o) else (t.rz <- !o; t.ro <- !z)
  | Gate.Or | Gate.Nor ->
      let z = ref fz.(0) and o = ref fo.(0) in
      for i = 1 to n - 1 do
        z := !z land fz.(i);
        o := !o lor fo.(i)
      done;
      if kind = Gate.Or then (t.rz <- !z; t.ro <- !o) else (t.rz <- !o; t.ro <- !z)
  | Gate.Xor | Gate.Xnor ->
      let known = ref (fz.(0) lor fo.(0)) and parity = ref fo.(0) in
      for i = 1 to n - 1 do
        known := !known land (fz.(i) lor fo.(i));
        parity := !parity lxor fo.(i)
      done;
      let o = !parity land !known and z = lnot !parity land !known in
      if kind = Gate.Xor then (t.rz <- z; t.ro <- o) else (t.rz <- o; t.ro <- z)
  | Gate.Not ->
      t.rz <- fo.(0);
      t.ro <- fz.(0)
  | Gate.Buf ->
      t.rz <- fz.(0);
      t.ro <- fo.(0)
  | Gate.Const0 ->
      t.rz <- Word.mask;
      t.ro <- 0
  | Gate.Const1 ->
      t.rz <- 0;
      t.ro <- Word.mask
  | Gate.Input | Gate.Dff -> invalid_arg "Kernel3: source gate in cone"

(* Faulty value of an overridden combinational gate: each faulty fanin
   word read once and forced by its pin overrides, the body over them,
   then the output overrides. *)
let eval_overridden t gb g =
  let lo = t.off.(g) in
  let n = t.off.(g + 1) - lo in
  let overrides = t.ovr.(g) in
  for i = 0 to n - 1 do
    let f = t.flat.(lo + i) in
    t.rz <- gz gb f lxor t.dz.(f);
    t.ro <- go gb f lxor t.dn.(f);
    force_pin t i overrides;
    t.fz.(i) <- t.rz;
    t.fo.(i) <- t.ro
  done;
  eval_body t t.kinds.(g) ~n;
  force_pin t (-1) overrides

(* Faulty value of a plain combinational gate over [good XOR diff] fanin
   words, with a 2-input fast path. *)
let eval_plain t gb g =
  let flat = t.flat and dz = t.dz and dn = t.dn in
  let lo = Array.unsafe_get t.off g in
  let hi = Array.unsafe_get t.off (g + 1) in
  if hi - lo = 2 then begin
    let f0 = Array.unsafe_get flat lo and f1 = Array.unsafe_get flat (lo + 1) in
    let az = gz gb f0 lxor Array.unsafe_get dz f0 and ao = go gb f0 lxor Array.unsafe_get dn f0 in
    let bz = gz gb f1 lxor Array.unsafe_get dz f1 and bo = go gb f1 lxor Array.unsafe_get dn f1 in
    match Array.unsafe_get t.kinds g with
    | Gate.And ->
        t.rz <- az lor bz;
        t.ro <- ao land bo
    | Gate.Nand ->
        t.rz <- ao land bo;
        t.ro <- az lor bz
    | Gate.Or ->
        t.rz <- az land bz;
        t.ro <- ao lor bo
    | Gate.Nor ->
        t.rz <- ao lor bo;
        t.ro <- az land bz
    | Gate.Xor ->
        let known = (az lor ao) land (bz lor bo) and p = ao lxor bo in
        t.rz <- lnot p land known;
        t.ro <- p land known
    | Gate.Xnor ->
        let known = (az lor ao) land (bz lor bo) and p = ao lxor bo in
        t.rz <- p land known;
        t.ro <- lnot p land known
    | Gate.Not | Gate.Buf | Gate.Const0 | Gate.Const1 | Gate.Input | Gate.Dff ->
        assert false
  end
  else
    match Array.unsafe_get t.kinds g with
    | (Gate.And | Gate.Nand) as kind ->
        let z = ref 0 and o = ref Word.mask in
        for i = lo to hi - 1 do
          let f = Array.unsafe_get flat i in
          z := !z lor (gz gb f lxor Array.unsafe_get dz f);
          o := !o land (go gb f lxor Array.unsafe_get dn f)
        done;
        if kind = Gate.And then (t.rz <- !z; t.ro <- !o) else (t.rz <- !o; t.ro <- !z)
    | (Gate.Or | Gate.Nor) as kind ->
        let z = ref Word.mask and o = ref 0 in
        for i = lo to hi - 1 do
          let f = Array.unsafe_get flat i in
          z := !z land (gz gb f lxor Array.unsafe_get dz f);
          o := !o lor (go gb f lxor Array.unsafe_get dn f)
        done;
        if kind = Gate.Or then (t.rz <- !z; t.ro <- !o) else (t.rz <- !o; t.ro <- !z)
    | (Gate.Xor | Gate.Xnor) as kind ->
        let known = ref Word.mask and parity = ref 0 in
        for i = lo to hi - 1 do
          let f = Array.unsafe_get flat i in
          let fo = go gb f lxor Array.unsafe_get dn f in
          known := !known land ((gz gb f lxor Array.unsafe_get dz f) lor fo);
          parity := !parity lxor fo
        done;
        let o = !parity land !known and z = lnot !parity land !known in
        if kind = Gate.Xor then (t.rz <- z; t.ro <- o) else (t.rz <- o; t.ro <- z)
    | Gate.Not ->
        let f = Array.unsafe_get flat lo in
        t.rz <- go gb f lxor Array.unsafe_get dn f;
        t.ro <- gz gb f lxor Array.unsafe_get dz f
    | Gate.Buf ->
        let f = Array.unsafe_get flat lo in
        t.rz <- gz gb f lxor Array.unsafe_get dz f;
        t.ro <- go gb f lxor Array.unsafe_get dn f
    | Gate.Const0 ->
        t.rz <- Word.mask;
        t.ro <- 0
    | Gate.Const1 ->
        t.rz <- 0;
        t.ro <- Word.mask
    | Gate.Input | Gate.Dff -> assert false

(* Evaluate gate [g] and return whether its difference is non-zero. *)
let[@inline] eval_gate t gb g keep =
  if Bytes.unsafe_get t.ovr_flag g = '\001' then eval_overridden t gb g else eval_plain t gb g;
  let ndz = (t.rz lxor gz gb g) land keep and ndn = (t.ro lxor go gb g) land keep in
  if ndz lor ndn <> 0 then begin
    set_d t g ndz ndn;
    true
  end
  else false

(* One combinational settle of the faulty machines against the good row
   [gb]: seed diverged flip-flops, source output overrides and
   combinational override sites with a live lane, then walk the queued cone level by
   level; spill to a linear sweep once the cone is large.  [prune] masks
   lanes out of the propagation — they behave fault-free from here on. *)
let cycle ?(prune = 0) t ~gb =
  t.keep <- Word.mask land lnot prune;
  let keep = t.keep in
  for i = 0 to Array.length t.sdz - 1 do
    let sz = Array.unsafe_get t.sdz i land keep and so = Array.unsafe_get t.sdn i land keep in
    if sz lor so <> 0 then set_d t t.dffs.(i) sz so
  done;
  let source_ovr = t.source_ovr in
  for i = 0 to Array.length source_ovr - 1 do
    let o = source_ovr.(i) in
    let g = o.Override.gate in
    let good_z = gz gb g and good_o = go gb g in
    t.rz <- good_z lxor t.dz.(g);
    t.ro <- good_o lxor t.dn.(g);
    force t o;
    set_d t g ((t.rz lxor good_z) land keep) ((t.ro lxor good_o) land keep)
  done;
  for k = 0 to t.ntouched - 1 do
    let g = t.touched.(k) in
    if t.dz.(g) lor t.dn.(g) <> 0 then push_comb_fanouts t g
  done;
  (* A site whose overrides all sit in pruned lanes can change only
     pruned lanes, and a live difference still reaches it through its
     fanins: only sites with a live override are seeded. *)
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
      if eval_gate t gb g keep then push_comb_fanouts t g
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
    for idx = t.level_off.(!l) to Array.length sched - 1 do
      incr evaluated;
      ignore (eval_gate t gb (Array.unsafe_get sched idx) keep : bool)
    done
  end;
  t.evaluated <- t.evaluated + !evaluated

(* Lanes detected at the POs in the settled cycle. *)
let po_detect t ~gb =
  let outputs = t.outputs in
  let det = ref 0 in
  for i = 0 to Array.length outputs - 1 do
    let g = Array.unsafe_get outputs i in
    det := !det lor (gz gb g land Array.unsafe_get t.dn g) lor (go gb g land Array.unsafe_get t.dz g)
  done;
  !det

(* Clock edge: capture the next-state difference (DFF pin-0 overrides
   folded in against the good captured value) and clear the in-cycle
   difference in O(cone). *)
let finish_cycle t ~gb =
  let din = t.dff_din in
  for i = 0 to Array.length din - 1 do
    let d = Array.unsafe_get din i in
    Array.unsafe_set t.sdz i (Array.unsafe_get t.dz d);
    Array.unsafe_set t.sdn i (Array.unsafe_get t.dn d)
  done;
  List.iter
    (fun (i, ovrs) ->
      let d = din.(i) in
      let good_z = gz gb d and good_o = go gb d in
      t.rz <- good_z lxor t.dz.(d);
      t.ro <- good_o lxor t.dn.(d);
      force_pin t 0 ovrs;
      t.sdz.(i) <- (t.rz lxor good_z) land t.keep;
      t.sdn.(i) <- (t.ro lxor good_o) land t.keep)
    t.dff_pin0;
  clear_cycle t

(* Lanes outside [want] carry nothing the caller reads, and a detected
   lane's result bit is a monotonic OR, so both are pruned. *)
let detect_po t ~gbs ~want =
  let len = Array.length gbs in
  let det = ref 0 in
  let u = ref 0 in
  while !det <> want && !u < len do
    let gb = gbs.(!u) in
    cycle t ~prune:(lnot want lor !det) ~gb;
    det := !det lor (po_detect t ~gb land want);
    finish_cycle t ~gb;
    incr u
  done;
  (!det, !u)

let state_detect ?observe t ~gs =
  let det = ref 0 in
  for i = 0 to Array.length t.sdz - 1 do
    match observe with
    | Some obs when not obs.(i) -> ()
    | _ -> det := !det lor (gz gs i land t.sdn.(i)) lor (go gs i land t.sdz.(i))
  done;
  !det

let take_evaluated t =
  let n = t.evaluated in
  t.evaluated <- 0;
  n

(* --- fault-free scalar sweep ------------------------------------------- *)

let[@inline] swap code = ((code land 1) lsl 1) lor (code lsr 1)

let[@inline] fanin_code flat gb i ~forced ~forced_code =
  if i = forced then forced_code
  else Char.code (Bytes.unsafe_get gb (Array.unsafe_get flat i))

(* The scalar 3-valued gate body: the code (0 = X, 1 = known 0, 2 = known
   1) of combinational gate [g] over the fanin codes in [gb].  The fanin
   at flat index [forced] reads [forced_code] instead — a branch fault's
   stuck pin; -1 forces nothing.  The good sweep below and PODEM's
   implication both evaluate through it. *)
let eval_code ~kinds ~flat ~off gb g ~forced ~forced_code =
  let lo = Array.unsafe_get off g and hi = Array.unsafe_get off (g + 1) in
  match Array.unsafe_get kinds g with
  | (Gate.And | Gate.Nand) as kind ->
      let anyz = ref 0 and allo = ref 2 in
      for i = lo to hi - 1 do
        let c = fanin_code flat gb i ~forced ~forced_code in
        anyz := !anyz lor (c land 1);
        allo := !allo land c
      done;
      let r = !anyz lor !allo in
      if kind = Gate.And then r else swap r
  | (Gate.Or | Gate.Nor) as kind ->
      let anyo = ref 0 and allz = ref 1 in
      for i = lo to hi - 1 do
        let c = fanin_code flat gb i ~forced ~forced_code in
        anyo := !anyo lor (c land 2);
        allz := !allz land c
      done;
      let r = !anyo lor !allz in
      if kind = Gate.Or then r else swap r
  | (Gate.Xor | Gate.Xnor) as kind ->
      let known = ref true and parity = ref 0 in
      for i = lo to hi - 1 do
        let c = fanin_code flat gb i ~forced ~forced_code in
        if c = 0 then known := false;
        parity := !parity lxor (c lsr 1)
      done;
      let r = if !known then 1 + !parity else 0 in
      if kind = Gate.Xor then r else swap r
  | Gate.Not -> swap (fanin_code flat gb lo ~forced ~forced_code)
  | Gate.Buf -> fanin_code flat gb lo ~forced ~forced_code
  | Gate.Const0 -> 1
  | Gate.Const1 -> 2
  | Gate.Input | Gate.Dff -> invalid_arg "Kernel3.eval_code: source gate"

let good_cycle t ~pis ~state ~gb =
  let inputs = t.inputs in
  if Array.length pis <> Array.length inputs then invalid_arg "Kernel3.good_cycle: PI arity";
  for i = 0 to Array.length inputs - 1 do
    Bytes.unsafe_set gb inputs.(i) (of_bool pis.(i))
  done;
  for i = 0 to Array.length t.dffs - 1 do
    Bytes.unsafe_set gb t.dffs.(i) (Bytes.get state i)
  done;
  let kinds = t.kinds and flat = t.flat and off = t.off and sched = t.sched in
  for idx = 0 to Array.length sched - 1 do
    let g = Array.unsafe_get sched idx in
    Bytes.unsafe_set gb g
      (Char.unsafe_chr (eval_code ~kinds ~flat ~off gb g ~forced:(-1) ~forced_code:0))
  done

let good_capture t ~gb ~state =
  let din = t.dff_din in
  for i = 0 to Array.length din - 1 do
    Bytes.set state i (Bytes.get gb din.(i))
  done

let good_step t ~pis ~state =
  good_cycle t ~pis ~state ~gb:t.scratch;
  good_capture t ~gb:t.scratch ~state

let good_trace t ~state ~seq =
  let n = Circuit.n_gates t.c in
  Array.map
    (fun pis ->
      let gb = Bytes.make n x in
      good_cycle t ~pis ~state ~gb;
      good_capture t ~gb ~state;
      gb)
    seq
