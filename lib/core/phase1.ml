(* Phase 1 of the proposed procedure: turn a test sequence T0 into a
   scan-based test.

   Step 1 (fault simulation of T0 without scan) is done by the caller —
   its result is [f0].  Step 2 selects the scan-in state among the state
   parts of the combinational test set C, maximising the number of faults
   of F - F0 detected by (SI, T0); the paper's "unselected preferred"
   tie-breaking drives the iteration's termination.  Step 3 picks the
   earliest scan-out time u_SO such that the truncated test still detects
   every fault of F_SI — computed from one detection-time profile instead
   of the paper's per-u re-simulations (same i_0 criterion). *)

open Asc_util
module Pattern = Asc_sim.Pattern
module Scan_test = Asc_scan.Scan_test
module Seq_fsim = Asc_fault.Seq_fsim

type scan_in_choice = {
  index : int; (* index into the candidate (combinational test) array *)
  f_si : Bitvec.t; (* F_SI = F0 + detections of (SI, T0), within targets *)
  already_selected : bool;
      (* The choice had already been selected in an earlier iteration —
         the paper's termination condition for the Phase 1+2 loop. *)
}

(* Step 2. [selected] marks candidates chosen in earlier iterations. *)
let select_scan_in ?tel (m : Scan_model.t) ~candidates ~t0 ~f0 ~targets ~selected =
  Telemetry.span tel "phase1:scan-in" @@ fun () ->
  let subset =
    Array.of_list
      (Bitvec.to_list (Bitvec.diff targets f0))
  in
  let sis = Array.map (fun (p : Pattern.t) -> p.state) candidates in
  let rows = m.candidate_rows ~sis ~seq:t0 ~subset in
  let best_of pred =
    let best = ref (-1) and best_count = ref (-1) in
    Array.iteri
      (fun j _ ->
        if pred j then begin
          let count = Bitvec.count (Bitmat.row rows j) in
          if count > !best_count then begin
            best := j;
            best_count := count
          end
        end)
      candidates;
    (!best, !best_count)
  in
  let unsel, unsel_count = best_of (fun j -> not (Bitvec.get selected j)) in
  let sel, sel_count = best_of (fun j -> Bitvec.get selected j) in
  (* A previously selected state is used only when it is strictly better
     than every unselected one. *)
  let index, already_selected =
    if unsel >= 0 && unsel_count >= sel_count then (unsel, false) else (sel, true)
  in
  let f_si = Bitvec.union f0 (Bitmat.row rows index) in
  Bitvec.inter_into ~into:f_si targets;
  { index; f_si; already_selected }

type scan_out_choice = {
  test : Scan_test.t; (* tau_SO = (SI, T0[0, u]) *)
  u : int;
  f_so : Bitvec.t; (* all target faults the truncated test detects *)
}

(* The paper's two scan-out criteria (Section 3.1): [Earliest] is i_0 —
   the smallest u keeping every fault of F_SI; [Max_detection] is i_1 —
   among the valid u, the one whose truncated test detects the most target
   faults (ties to the smallest u).  The paper reports that i_1 buys
   marginal coverage for significantly longer sequences and uses i_0; the
   ablation bench reproduces that comparison. *)
type scan_out_policy = Earliest | Max_detection

(* Valid scan-out times: every fault of the profiled subset is PO-detected
   at a time <= u or differs in the state right after time u's vector. *)
let valid_times (prof : Seq_fsim.profile) ~len =
  let allowed = Bitvec.create ~default:true len in
  Array.iteri
    (fun k _ ->
      let ok = Bitvec.copy prof.state_diff_at.(k) in
      if prof.po_time.(k) < len then
        for u = prof.po_time.(k) to len - 1 do
          Bitvec.set ok u
        done;
      Bitvec.inter_into ~into:allowed ok)
    prof.subset;
  allowed

(* Step 3. *)
let select_scan_out ?tel ?(policy = Earliest) (m : Scan_model.t) ~si ~t0 ~f_si ~targets =
  Telemetry.span tel "phase1:scan-out" @@ fun () ->
  let len = Array.length t0 in
  let subset = Array.of_list (Bitvec.to_list f_si) in
  let prof = m.profile ~si ~seq:t0 ~subset in
  let allowed = valid_times prof ~len in
  (* u = len-1 is always valid: f_si are the full test's detections. *)
  if Bitvec.first_set allowed < 0 then Bitvec.set allowed (len - 1);
  let u =
    match policy with
    | Earliest -> Bitvec.first_set allowed
    | Max_detection ->
        (* Count, for every valid u, the target faults the truncated test
           would detect, from one profile over all targets. *)
        let all = Array.of_list (Bitvec.to_list targets) in
        let full = m.profile ~si ~seq:t0 ~subset:all in
        let best_u = ref (-1) and best_count = ref (-1) in
        Bitvec.iter_set
          (fun u ->
            let det = Seq_fsim.profile_detected_at full ~u in
            let count = Bitvec.count det in
            if count > !best_count then begin
              best_count := count;
              best_u := u
            end)
          allowed;
        !best_u
  in
  let test = Scan_test.create ~si ~seq:(Array.sub t0 0 (u + 1)) in
  let f_so = Bitvec.inter (m.detect ~only:targets test) targets in
  { test; u; f_so }
