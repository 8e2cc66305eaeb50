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
module Seq_fsim = Asc_fault.Seq_fsim

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

let cycles chain (tests : Scan_test.t array) =
  Time_model.cycles ~n_sv:(n_scanned chain)
    (Array.to_list (Array.map Scan_test.length tests))

(* Initial good state of a test: scanned flip-flops carry the scan-in
   bit, the rest are X. *)
let initial_state chain (si : bool array) =
  Bytes.init (Array.length chain.scanned) (fun i ->
      if chain.scanned.(i) then Kernel3.of_bool si.(i) else Kernel3.x)

(* Which of [faults] does [test] detect under the partial chain?  The
   scan-in value reaches scanned flip-flops only, the rest start X in both
   the fault-free and the faulty machine, and the scan-out observes the
   scanned flip-flops: one [Seq_fsim.detect3] sweep. *)
let detect ?pool ?budget ?tel ?only c chain (test : Scan_test.t) ~faults =
  Seq_fsim.detect3 ?pool ?budget ?tel ?only ~start:(initial_state chain test.si)
    ~observe:chain.scanned c ~seq:test.seq ~faults

(* Coverage of a test set under a partial chain, with fault dropping. *)
let coverage ?pool ?budget ?tel c chain (tests : Scan_test.t array) ~faults =
  let n = Array.length faults in
  let detected = Bitvec.create n in
  Array.iter
    (fun test ->
      let remaining = Bitvec.init n (fun i -> not (Bitvec.get detected i)) in
      if not (Bitvec.is_empty remaining) then
        Bitvec.union_into ~into:detected
          (detect ?pool ?budget ?tel ~only:remaining c chain test ~faults))
    tests;
  detected

(* The partial analogue of [Seq_fsim.candidate_detections]: candidates
   are visited one by one, each a [detect] over the [subset] faults. *)
let candidate_detections ?pool ?budget ?tel c chain ~sis ~seq ~faults ~subset =
  let result = Bitmat.create (Array.length sis) (Array.length faults) in
  let only = Bitvec.of_list (Array.length faults) (Array.to_list subset) in
  Array.iteri
    (fun j si ->
      Bitmat.set_row result j
        (detect ?pool ?budget ?tel ~only c chain (Scan_test.create ~si ~seq) ~faults))
    sis;
  result

(* The partial analogue of [Seq_fsim.profile]: the time units where the
   scanned state observably differs. *)
let profile ?pool ?budget ?tel c chain (test : Scan_test.t) ~faults ~subset =
  Seq_fsim.profile3 ?pool ?budget ?tel ~start:(initial_state chain test.si)
    ~observe:chain.scanned c ~seq:test.seq ~faults ~subset
