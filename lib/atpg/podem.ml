(* PODEM combinational ATPG over the full-scan combinational core.

   Assignable inputs are the primary inputs and the flip-flop outputs
   (directly controllable through the scan chain); observation points are
   the primary outputs and the flip-flop next-state inputs (directly
   observable through the scan chain).

   Implication is a dual-rail 3-valued forward simulation: [gv] holds the
   fault-free value of every gate, [fv] the faulty value with the target
   fault forced, as {!Asc_sim.Kernel3}'s scalar codes (X, known 0, known
   1).  A fault effect is present at a gate when both rails are binary and
   differ.  The decision loop is classic PODEM: excitation/propagation
   objective, backtrace to an unassigned input guided by SCOAP
   controllabilities, implication, and backtracking with a backtrack
   limit.  An exhausted search space proves combinational redundancy
   (untestability under full scan); exceeding the limit aborts.

   Implication is event-driven.  The rails are always the implication of
   the current assignment (an unassigned source implies X) under the
   current fault — a pure function of the two — so a decision, a
   backtrack or the next fault only pushes the sources and fault sites
   that changed into {!Asc_sim.Sched}'s level buckets, and both rails are
   re-evaluated through {!Asc_sim.Kernel3.eval_code} only while values
   change.  No trail is needed: undoing an assignment is assigning X.
   The faulty rail differs from the good one only inside the fault's
   fanout cone, so outside it [fv] just copies [gv], and the D-frontier is
   scanned over the cone alone. *)

module Circuit = Asc_netlist.Circuit
module Gate = Asc_netlist.Gate
module Fault = Asc_fault.Fault
module Sched = Asc_sim.Sched
module Kernel3 = Asc_sim.Kernel3

(* Scalar 3-valued codes, as in Kernel3's good rows. *)
let cx = 0
let c0 = 1
let c1 = 2
let code_of_bool b = if b then c1 else c0

type result = Test of Cube.t | Redundant | Aborted

type t = {
  c : Circuit.t;
  s : Sched.t;
  scoap : Scoap.t;
  sources : int array; (* inputs, then flip-flops *)
  asn : int array; (* per gate: assigned code of assignable sources *)
  gv : Bytes.t;
  fv : Bytes.t;
  obs : int array; (* observation gates: PO drivers and DFF next-state inputs *)
  feeds_obs : bool array; (* gate is an observation gate *)
  (* The fault the rails carry ([f_gate] = -1: none). *)
  mutable f_gate : int;
  mutable f_forced : int; (* branch fault: flat fanin index of the stuck pin, else -1 *)
  mutable f_code : int;
  mutable cone : int array; (* the fault's comb fanout cone, in Circuit.order order *)
  in_cone : int array; (* = [cone_stamp] for gates of [cone] *)
  mutable cone_stamp : int;
  queued : Bytes.t;
  buckets : int array array;
  blen : int array;
  visit : int array; (* x-path: visited when = [epoch] *)
  mutable epoch : int;
  stack : int array; (* x-path walk *)
}

let[@inline] gcode t g = Char.code (Bytes.unsafe_get t.gv g)
let[@inline] fcode t g = Char.code (Bytes.unsafe_get t.fv g)

let[@inline] push t g =
  if Bytes.unsafe_get t.queued g = '\000' then begin
    Bytes.unsafe_set t.queued g '\001';
    let l = Array.unsafe_get t.s.level g in
    let b = Array.unsafe_get t.buckets l in
    Array.unsafe_set b (Array.unsafe_get t.blen l) g;
    Array.unsafe_set t.blen l (Array.unsafe_get t.blen l + 1)
  end

let push_comb_fanouts t g =
  for i = t.s.cooff.(g) to t.s.cooff.(g + 1) - 1 do
    push t t.s.coflat.(i)
  done

(* Re-evaluate the queued gates level by level; a gate whose rails change
   queues its fanouts (strictly higher levels). *)
let propagate t =
  let { Sched.kinds; flat; off; _ } = t.s in
  for l = 0 to Array.length t.blen - 1 do
    let bucket = t.buckets.(l) in
    for bi = 0 to t.blen.(l) - 1 do
      let g = Array.unsafe_get bucket bi in
      Bytes.unsafe_set t.queued g '\000';
      let gc = Kernel3.eval_code ~kinds ~flat ~off t.gv g ~forced:(-1) ~forced_code:0 in
      let fc =
        if g = t.f_gate then
          if t.f_forced < 0 then t.f_code
          else
            Kernel3.eval_code ~kinds ~flat ~off t.fv g ~forced:t.f_forced
              ~forced_code:t.f_code
        else if Array.unsafe_get t.in_cone g = t.cone_stamp then
          Kernel3.eval_code ~kinds ~flat ~off t.fv g ~forced:(-1) ~forced_code:0
        else gc
      in
      if gc <> gcode t g || fc <> fcode t g then begin
        Bytes.unsafe_set t.gv g (Char.unsafe_chr gc);
        Bytes.unsafe_set t.fv g (Char.unsafe_chr fc);
        push_comb_fanouts t g
      end
    done;
    t.blen.(l) <- 0
  done

(* Assign source [g] (code [cx] unassigns it); takes effect at the next
   [propagate]. *)
let set_source t g code =
  t.asn.(g) <- code;
  let fc = if g = t.f_gate then t.f_code else code in
  if code <> gcode t g || fc <> fcode t g then begin
    Bytes.set t.gv g (Char.unsafe_chr code);
    Bytes.set t.fv g (Char.unsafe_chr fc);
    push_comb_fanouts t g
  end

let create c =
  let n = Circuit.n_gates c in
  let s = Sched.create c in
  let obs_list = ref [] in
  let feeds_obs = Array.make n false in
  Array.iter
    (fun g ->
      if not feeds_obs.(g) then begin
        feeds_obs.(g) <- true;
        obs_list := g :: !obs_list
      end)
    (Circuit.outputs c);
  Array.iter
    (fun g ->
      if not feeds_obs.(g) then begin
        feeds_obs.(g) <- true;
        obs_list := g :: !obs_list
      end)
    (Circuit.dff_inputs c);
  let t =
    {
      c;
      s;
      scoap = Scoap.compute c;
      sources = Array.append (Circuit.inputs c) (Circuit.dffs c);
      asn = Array.make n cx;
      gv = Bytes.make n '\000';
      fv = Bytes.make n '\000';
      obs = Array.of_list !obs_list;
      feeds_obs;
      f_gate = -1;
      f_forced = -1;
      f_code = cx;
      cone = [||];
      in_cone = Array.make n 0;
      cone_stamp = 0;
      queued = Bytes.make n '\000';
      buckets = Sched.buckets s;
      blen = Array.make (Sched.n_levels s) 0;
      visit = Array.make n 0;
      epoch = 0;
      stack = Array.make n 0;
    }
  in
  (* Every source X, no fault: settle the constants' implications. *)
  Array.iter (push t) s.sched;
  propagate t;
  t

(* Make [fault] the one the faulty rail carries: re-queue the old and new
   sites and rebuild the fanout cone.  A DFF pin-0 fault acts only at the
   capture, which implication never evaluates: no site, empty cone. *)
let set_fault t (fault : Fault.t) =
  let old = t.f_gate in
  t.f_gate <- -1;
  if old >= 0 then
    if Gate.is_source t.s.kinds.(old) then set_source t old t.asn.(old) else push t old;
  let kind = t.s.kinds.(fault.gate) in
  let site = not (kind = Gate.Dff && fault.pin = 0) in
  t.cone_stamp <- t.cone_stamp + 1;
  if not site then t.cone <- [||]
  else begin
    t.f_gate <- fault.gate;
    t.f_forced <- (if fault.pin >= 0 then t.s.off.(fault.gate) + fault.pin else -1);
    t.f_code <- code_of_bool fault.stuck;
    if Gate.is_source kind then set_source t fault.gate t.asn.(fault.gate)
    else push t fault.gate;
    (* The cone: the site and every comb gate it reaches, in
       Circuit.order order (a branch fault's gate carries a virtual D
       input, so it belongs too). *)
    let stamp = t.cone_stamp and cone = ref [] in
    t.in_cone.(fault.gate) <- stamp;
    Array.iter
      (fun g ->
        if
          t.in_cone.(g) = stamp
          || Array.exists (fun f -> t.in_cone.(f) = stamp) (Circuit.fanins t.c g)
        then begin
          t.in_cone.(g) <- stamp;
          cone := g :: !cone
        end)
      (Circuit.order t.c);
    t.cone <- Array.of_list (List.rev !cone)
  end

(* Fault effect (D or D-bar) present at gate [g]. *)
let has_d t g =
  let a = gcode t g and b = fcode t g in
  a <> cx && b <> cx && a <> b

(* A DFF's D-pin fault is injected at the capture step, which the
   combinational implication never evaluates: it is detected exactly when
   the fault-free D value is the complement of the stuck value (the faulty
   capture is then wrong and the scan-out observes it). *)
let detected t (fault : Fault.t) =
  (match Circuit.kind t.c fault.gate with
  | Gate.Dff when fault.pin = 0 ->
      let din = Circuit.dff_input t.c fault.gate in
      gcode t din <> cx && gcode t din <> code_of_bool fault.stuck
  | _ -> false)
  || Array.exists (has_d t) t.obs

(* The fault-site line's fault-free value: gate output for stem faults,
   the driving gate's value for branch faults (same line). *)
let site_good t (fault : Fault.t) =
  if fault.pin = -1 then gcode t fault.gate
  else gcode t (Circuit.fanins t.c fault.gate).(fault.pin)

(* D-frontier: gates whose output still has an X on some rail while a
   fault effect sits on an input.  The faulted gate of a branch fault
   carries a virtual D input once the branch is excited.  Only cone gates
   qualify; scanning the cone in Circuit.order order and consing yields
   the list a scan of every gate would. *)
let d_frontier t (fault : Fault.t) =
  let c = t.c in
  let frontier = ref [] in
  let stuck = code_of_bool fault.stuck in
  Array.iter
    (fun g ->
      if gcode t g = cx || fcode t g = cx then begin
        let fi = Circuit.fanins c g in
        let has_d_input = Array.exists (has_d t) fi in
        let virtual_d =
          fault.gate = g && fault.pin >= 0
          && gcode t fi.(fault.pin) <> cx
          && gcode t fi.(fault.pin) <> stuck
        in
        if has_d_input || virtual_d then frontier := g :: !frontier
      end)
    t.cone;
  !frontier

(* Is there a path of composite-X gates from some frontier gate to an
   observation point?  A gate with a DFF fanout is itself an observation
   gate, so the walk follows combinational fanouts only. *)
let x_path_exists t frontier =
  t.epoch <- t.epoch + 1;
  let epoch = t.epoch and sp = ref 0 in
  List.iter
    (fun g ->
      (* The frontier gate itself has an X output by construction. *)
      t.visit.(g) <- epoch;
      t.stack.(!sp) <- g;
      incr sp)
    frontier;
  let found = ref false in
  while (not !found) && !sp > 0 do
    decr sp;
    let g = t.stack.(!sp) in
    if t.feeds_obs.(g) then found := true
    else
      for i = t.s.cooff.(g) to t.s.cooff.(g + 1) - 1 do
        let h = t.s.coflat.(i) in
        if t.visit.(h) <> epoch then begin
          t.visit.(h) <- epoch;
          if gcode t h = cx || fcode t h = cx then begin
            t.stack.(!sp) <- h;
            incr sp
          end
        end
      done
  done;
  !found

(* Backtrace an objective (gate, value) to an unassigned assignable input.
   Returns [None] when the objective is unreachable (constant, or no X
   input left). *)
let rec backtrace t g v =
  let c = t.c in
  match Circuit.kind c g with
  | Gate.Input | Gate.Dff -> if t.asn.(g) = cx then Some (g, v) else None
  | Gate.Const0 | Gate.Const1 -> None
  | kind ->
      if gcode t g <> cx then None
      else begin
        let fi = Circuit.fanins c g in
        let u = if Gate.inverting kind then not v else v in
        let x_fanins = Array.to_list fi |> List.filter (fun f -> gcode t f = cx) in
        match (kind, x_fanins) with
        | _, [] -> None
        | (Gate.Buf | Gate.Not), f :: _ -> backtrace t f u
        | (Gate.And | Gate.Nand), _ ->
            if u then
              (* All inputs must be 1: attack the hardest X input first. *)
              let f =
                List.fold_left
                  (fun best f ->
                    if Scoap.cc t.scoap f true > Scoap.cc t.scoap best true then f else best)
                  (List.hd x_fanins) x_fanins
              in
              backtrace t f true
            else
              let f =
                List.fold_left
                  (fun best f ->
                    if Scoap.cc t.scoap f false < Scoap.cc t.scoap best false then f
                    else best)
                  (List.hd x_fanins) x_fanins
              in
              backtrace t f false
        | (Gate.Or | Gate.Nor), _ ->
            if u then
              let f =
                List.fold_left
                  (fun best f ->
                    if Scoap.cc t.scoap f true < Scoap.cc t.scoap best true then f else best)
                  (List.hd x_fanins) x_fanins
              in
              backtrace t f true
            else
              let f =
                List.fold_left
                  (fun best f ->
                    if Scoap.cc t.scoap f false > Scoap.cc t.scoap best false then f
                    else best)
                  (List.hd x_fanins) x_fanins
              in
              backtrace t f false
        | (Gate.Xor | Gate.Xnor), f :: _ ->
            (* Aim the parity assuming the remaining X inputs settle to 0. *)
            let parity =
              Array.fold_left (fun acc fg -> if gcode t fg = c1 then not acc else acc) false fi
            in
            backtrace t f (u <> parity)
        | (Gate.Input | Gate.Dff | Gate.Const0 | Gate.Const1), _ -> None
      end

(* The next objective: excite the fault if it is not excited, otherwise
   drive a D-frontier gate (closest to an observation point first). *)
let objective t (fault : Fault.t) =
  let site = site_good t fault in
  if site = cx then begin
    let site_gate =
      if fault.pin = -1 then fault.gate
      else (Circuit.fanins t.c fault.gate).(fault.pin)
    in
    Some (site_gate, not fault.stuck)
  end
  else if site = code_of_bool fault.stuck then
    None (* cannot excite under current assignments *)
  else begin
    let frontier = d_frontier t fault in
    match frontier with
    | [] -> None
    | _ ->
        if not (x_path_exists t frontier) then None
        else begin
          let sorted =
            List.sort
              (fun a b -> compare (Scoap.obs_depth t.scoap a) (Scoap.obs_depth t.scoap b))
              frontier
          in
          (* First frontier gate offering a controllable X input. *)
          let rec try_gates = function
            | [] -> None
            | g :: rest -> (
                let fi = Circuit.fanins t.c g in
                let xs = Array.to_list fi |> List.filter (fun f -> gcode t f = cx) in
                match xs with
                | [] -> try_gates rest
                | f :: _ -> (
                    match Gate.controlling_value (Circuit.kind t.c g) with
                    | Some cv -> Some (f, not cv)
                    | None -> Some (f, false)))
          in
          try_gates sorted
        end
  end

(* Implication state, for the property test that re-simulates it. *)
let assign t g v =
  if not (Gate.is_source (Circuit.kind t.c g)) then invalid_arg "Podem.assign: not a source";
  set_source t g (match v with None -> cx | Some b -> code_of_bool b);
  propagate t

let assigned t g =
  if t.asn.(g) = cx then None else Some (t.asn.(g) = c1)

let rails t g =
  let value code = if code = cx then None else Some (code = c1) in
  (value (gcode t g), value (fcode t g))

let cube_of t =
  let c = t.c in
  let cube = Cube.create ~n_pis:(Circuit.n_inputs c) ~n_ffs:(Circuit.n_dffs c) in
  let value g =
    if t.asn.(g) = c0 then Cube.Zero else if t.asn.(g) = c1 then Cube.One else Cube.X
  in
  Array.iteri (fun i g -> cube.pis.(i) <- value g) (Circuit.inputs c);
  Array.iteri (fun i g -> cube.state.(i) <- value g) (Circuit.dffs c);
  cube

(* Generate a test for [fault].  [backtrack_limit] bounds the search; an
   exhausted search space proves redundancy.  [fixed] pre-assigns input
   gates (e.g. the present state reached by a previous vector in dynamic
   compaction); the search never revisits them, so [Redundant] then only
   means "untestable under the fixed assignment".  [budget] is polled once
   per decision-loop round: a fired deadline or cancellation yields
   [Aborted] — a graceful "don't know", never a bogus [Redundant]. *)
let run ?(backtrack_limit = 200) ?(budget = Asc_util.Budget.unlimited) ?tel ?(fixed = []) t
    (fault : Fault.t) =
  List.iter
    (fun (g, _) ->
      if not (Gate.is_source (Circuit.kind t.c g)) then
        invalid_arg "Podem.run: fixed assignment on a non-source gate")
    fixed;
  set_fault t fault;
  Array.iter (fun g -> set_source t g cx) t.sources;
  List.iter (fun (g, v) -> set_source t g (code_of_bool v)) fixed;
  propagate t;
  (* Decision stack: (input gate, current value, alternative tried?). *)
  let stack = ref [] in
  let backtracks = ref 0 in
  let decisions = ref 0 in
  let polls = ref 0 in
  let result = ref None in
  (* Backtrack: flip the deepest untried decision; [false] when the search
     space is exhausted. *)
  let backtrack () =
    incr backtracks;
    let rec pop () =
      match !stack with
      | [] -> false
      | (g, v, tried) :: rest ->
          if tried then begin
            set_source t g cx;
            stack := rest;
            pop ()
          end
          else begin
            let flipped = c0 + c1 - v in
            set_source t g flipped;
            stack := (g, flipped, true) :: rest;
            true
          end
    in
    let more = pop () in
    propagate t;
    more
  in
  (try
     while !result = None do
       incr polls;
       if Asc_util.Budget.exhausted budget then result := Some Aborted
       else if detected t fault then result := Some (Test (cube_of t))
       else begin
         match objective t fault with
         | None ->
             if !backtracks >= backtrack_limit then result := Some Aborted
             else if not (backtrack ()) then result := Some Redundant
         | Some (obj_gate, obj_value) -> (
             match backtrace t obj_gate obj_value with
             | None ->
                 if !backtracks >= backtrack_limit then result := Some Aborted
                 else if not (backtrack ()) then result := Some Redundant
             | Some (pi, pv) ->
                 incr decisions;
                 let v = code_of_bool pv in
                 set_source t pi v;
                 stack := (pi, v, false) :: !stack;
                 propagate t)
       end
     done
   with Stack_overflow -> result := Some Aborted);
  let r = match !result with Some r -> r | None -> Aborted in
  (let module Tel = Asc_util.Telemetry in
   Tel.add tel Tel.Podem_decisions !decisions;
   Tel.add tel Tel.Podem_backtracks !backtracks;
   Tel.add tel Tel.Budget_polls !polls;
   Tel.incr tel
     (match r with
     | Test _ -> Tel.Podem_tests
     | Redundant -> Tel.Podem_redundant
     | Aborted -> Tel.Podem_aborts));
  r
