(* Scalar faulty-machine oracle for the fault simulators.

   Everything here is built on [Asc_sim.Naive]: plain bools, one gate at
   a time, the whole circuit re-evaluated every cycle with the fault
   spliced into the evaluation.  It shares no code with the levelized
   kernel it checks — no lanes, no difference propagation, no cone walk,
   no override grouping — which makes it the independent oracle of the
   fault, kernel and report suites. *)

module Circuit = Asc_netlist.Circuit
module Fault = Asc_fault.Fault
module Naive = Asc_sim.Naive
module Bitvec = Asc_util.Bitvec

(* Every gate's value with [f] spliced into the evaluation. *)
let faulty_eval c (f : Fault.t) ~pis ~state =
  let n = Circuit.n_gates c in
  let v = Array.make n false in
  let forced g value = if f.pin = -1 && f.gate = g then f.stuck else value in
  Array.iteri (fun i g -> v.(g) <- forced g pis.(i)) (Circuit.inputs c);
  Array.iteri (fun i g -> v.(g) <- forced g state.(i)) (Circuit.dffs c);
  Array.iter
    (fun g ->
      let ins =
        Array.to_list
          (Array.mapi
             (fun k fin -> if f.gate = g && f.pin = k then f.stuck else v.(fin))
             (Circuit.fanins c g))
      in
      v.(g) <- forced g (Naive.eval_gate2 (Circuit.kind c g) ins))
    (Circuit.order c);
  v

(* The state the faulty machine captures from gate values [v]: a DFF
   pin-0 fault forces its D line. *)
let faulty_next_state c (f : Fault.t) v =
  Array.map
    (fun d ->
      let din = Circuit.dff_input c d in
      if f.gate = d && f.pin = 0 then f.stuck else v.(din))
    (Circuit.dffs c)

(* The fault-free machine of the scan test (si, seq): every gate's value
   at every time unit. *)
type good = { si : bool array; seq : bool array array; values : bool array array }

let good_run c ~si ~seq =
  let state = ref si in
  let values =
    Array.map
      (fun pis ->
        let v = Naive.eval_comb c ~pis ~state:!state in
        state := Naive.next_state_of c v;
        v)
      seq
  in
  { si; seq; values }

(* One fault on a scan test, simulated up to its first PO difference.
   [po_time] is that time unit ([max_int] if none); [state_diff] has bit
   [t] set, for [t <= po_time], when the faulty state after the vector of
   time unit [t] differs from the fault-free one. *)
type outcome = { po_time : int; state_diff : Bitvec.t }

let simulate c good f =
  let len = Array.length good.seq in
  let state_diff = Bitvec.create len in
  let state = ref good.si in
  let rec go t =
    if t = len then max_int
    else begin
      let gv = good.values.(t) in
      let bv = faulty_eval c f ~pis:good.seq.(t) ~state:!state in
      state := faulty_next_state c f bv;
      if !state <> Naive.next_state_of c gv then Bitvec.set state_diff t;
      if Naive.outputs_of c bv <> Naive.outputs_of c gv then t else go (t + 1)
    end
  in
  let po_time = go 0 in
  { po_time; state_diff }

(* Detection by the whole test: a PO difference at any time unit, or a
   difference in the scanned-out final state. *)
let detected o =
  let len = Bitvec.length o.state_diff in
  o.po_time <> max_int || (len > 0 && Bitvec.get o.state_diff (len - 1))

let detects c f ~si ~seq = detected (simulate c (good_run c ~si ~seq) f)
