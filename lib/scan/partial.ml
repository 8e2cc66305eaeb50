(* Partial scan.

   The paper notes (Section 1) that the proposed procedure "can be
   extended to the case of partial-scan circuits"; this module provides
   the partial-scan substrate and evaluation.

   Under partial scan only a subset of the flip-flops is on the scan
   chain.  For one test:
   - scan-in sets the scanned flip-flops; the unscanned ones hold an
     unknown value (each test is evaluated conservatively from X there,
     the standard per-test assumption);
   - the PI sequence runs at-speed as usual;
   - scan-out observes the scanned flip-flops only; POs are observed
     every cycle.

   Detection is 3-valued: a fault counts only when the fault-free value is
   binary and the faulty value is the complementary binary value, at a PO
   or in a scanned flip-flop at scan-out.

   The time model scales with the chain length: k tests cost
   (k+1) * N_scanned + sum L(T_j). *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Kernel3 = Asc_sim.Kernel3

type chain = { scanned : bool array (* per DFF index *) }

let full_chain c = { scanned = Array.make (Circuit.n_dffs c) true }

(* Keep the [ratio] highest-fanout flip-flops on the chain — a standard
   cheap partial-scan selection heuristic (high-fanout state is the
   hardest to control). *)
let by_fanout c ~ratio =
  let n = Circuit.n_dffs c in
  let keep = max 0 (min n (int_of_float (Float.round (ratio *. float_of_int n)))) in
  let weight d = Array.length (Circuit.fanouts c d) in
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b -> compare (weight (Circuit.dffs c).(b)) (weight (Circuit.dffs c).(a)))
    order;
  let scanned = Array.make n false in
  for k = 0 to keep - 1 do
    scanned.(order.(k)) <- true
  done;
  { scanned }

let n_scanned chain =
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 chain.scanned

let cycles (_ : Circuit.t) chain (tests : Scan_test.t array) =
  Time_model.cycles ~n_sv:(n_scanned chain)
    (Array.to_list (Array.map Scan_test.length tests))

(* Initial good state of a test: scanned flip-flops carry the scan-in
   bit, the rest are X. *)
let initial_state chain (si : bool array) =
  Bytes.init (Array.length chain.scanned) (fun i ->
      if chain.scanned.(i) then Kernel3.of_bool si.(i) else Kernel3.x)

(* Faults 62 to a word: (members, overrides, lane mask). *)
let fault_groups faults subset =
  let total = Array.length subset in
  let n_groups = (total + Word.width - 1) / Word.width in
  Array.init n_groups (fun gi ->
      let base = gi * Word.width in
      let count = min Word.width (total - base) in
      ( Array.sub subset base count,
        List.init count (fun lane ->
            Asc_fault.Fault.to_override faults.(subset.(base + lane)) ~lanes:(1 lsl lane)),
        if count = Word.width then Word.mask else (1 lsl count) - 1 ))

(* Detection word of one fault group: PO detection with early exit, then
   the scanned flip-flops at scan-out against the good final state
   [final]. *)
let detect_group k chain ~gbs ~final (overrides, lanes) =
  Kernel3.set_overrides k overrides;
  Kernel3.reset k;
  let det, n = Kernel3.detect_po k ~gbs ~want:lanes in
  if n = Array.length gbs && det <> lanes then
    det lor (Kernel3.state_detect ~observe:chain.scanned k ~gs:final land lanes)
  else det

(* Which of [faults] does [test] detect under the partial chain?  Lanes
   are faulty machines; the scan-in value reaches scanned flip-flops only,
   the rest start X in both the fault-free and the faulty machine. *)
let detect ?only c chain (test : Scan_test.t) ~faults =
  let n = Array.length faults in
  let result = Bitvec.create n in
  let subset =
    match only with
    | None -> Array.init n (fun i -> i)
    | Some mask -> Array.of_list (Bitvec.to_list mask)
  in
  if Array.length subset = 0 then result
  else begin
    let k = Kernel3.create c in
    let final = initial_state chain test.si in
    let gbs = Kernel3.good_trace k ~state:final ~seq:test.seq in
    Array.iter
      (fun (members, overrides, lanes) ->
        Word.iter_set
          (fun lane -> Bitvec.set result members.(lane))
          (detect_group k chain ~gbs ~final (overrides, lanes)))
      (fault_groups faults subset);
    result
  end

(* Coverage of a test set under a partial chain, with fault dropping. *)
let coverage c chain (tests : Scan_test.t array) ~faults =
  let n = Array.length faults in
  let detected = Bitvec.create n in
  Array.iter
    (fun test ->
      let remaining = Bitvec.init n (fun i -> not (Bitvec.get detected i)) in
      if not (Bitvec.is_empty remaining) then
        Bitvec.union_into ~into:detected (detect ~only:remaining c chain test ~faults))
    tests;
  detected

(* --- Phase-1 support under partial scan --------------------------------

   The two queries the compaction procedure asks of the simulator, under
   partial-scan semantics (unscanned flip-flops X, scan-out observes
   scanned flip-flops only, 3-valued detection). *)

(* Rows are candidate scan-in states, columns fault indices (set when the
   candidate's test detects the fault); [subset] restricts simulation —
   the partial analogue of [Seq_fsim.candidate_detections].  Faults ride
   the lanes and candidates are visited one by one, so each candidate's
   fault-free machine is a single machine. *)
let candidate_detections c chain ~sis ~seq ~faults ~subset =
  let result = Bitmat.create (Array.length sis) (Array.length faults) in
  let k = Kernel3.create c in
  let groups = fault_groups faults subset in
  Array.iteri
    (fun cand si ->
      let final = initial_state chain si in
      let gbs = Kernel3.good_trace k ~state:final ~seq in
      Array.iter
        (fun (members, overrides, lanes) ->
          Word.iter_set
            (fun lane -> Bitmat.set result cand members.(lane))
            (detect_group k chain ~gbs ~final (overrides, lanes)))
        groups)
    sis;
  result

(* The partial analogue of [Seq_fsim.profile]: earliest PO detection time
   per subset fault, and the time units where the scanned state observably
   differs (3-valued detection at both). *)
type profile = {
  subset : int array;
  po_time : int array;
  state_diff_at : Bitvec.t array;
}

let profile c chain (test : Scan_test.t) ~faults ~subset =
  let len = Scan_test.length test in
  let k = Kernel3.create c in
  let gbs = Kernel3.good_trace k ~state:(initial_state chain test.si) ~seq:test.seq in
  (* Good state after each time unit's vector. *)
  let states =
    Array.map
      (fun gb ->
        let s = Kernel3.x_state c in
        Kernel3.good_capture k ~gb ~state:s;
        s)
      gbs
  in
  let po_time = Array.make (Array.length subset) max_int in
  let state_diff_at = Array.init (Array.length subset) (fun _ -> Bitvec.create len) in
  Array.iteri
    (fun gi (_, overrides, lanes) ->
      let base = gi * Word.width in
      Kernel3.set_overrides k overrides;
      Kernel3.reset k;
      let po_seen = ref 0 in
      for t = 0 to len - 1 do
        let gb = gbs.(t) in
        Kernel3.cycle k ~gb;
        let fresh = Kernel3.po_detect k ~gb land lanes land lnot !po_seen in
        Word.iter_set (fun lane -> po_time.(base + lane) <- t) fresh;
        po_seen := !po_seen lor fresh;
        Kernel3.finish_cycle k ~gb;
        Word.iter_set
          (fun lane -> Bitvec.set state_diff_at.(base + lane) t)
          (Kernel3.state_detect ~observe:chain.scanned k ~gs:states.(t) land lanes)
      done)
    (fault_groups faults subset);
  { subset; po_time; state_diff_at }
