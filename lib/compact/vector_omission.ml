(* Phase 2: vector omission, after [8].

   Starting from a test (SI, T) that detects the fault set F, omit vectors
   from T without losing any fault in F.  Omission of positions >= p leaves
   the prefix [0, p-1] untouched, so only faults not PO-detected before p —
   plus faults detected only through the scan-out — need re-verification;
   per-fault earliest-PO-detection times drive that narrowing.

   Each trial runs the cheap early-exit verifier over the affected faults,
   most fragile first (scan-out-detected, then latest PO detection), so
   failing trials die quickly; only *accepted* omissions pay for a
   profile-style pass to refresh the detection times.  Trials proceed in
   aligned chunks of halving size from the tail, under both a trial-count
   budget and a simulation-work budget (large circuits hit the work budget
   first).

   Neither pays for the untouched prefix.  Each chunk-size pass starts
   with one snapshot pass over the current test at every trial position
   p = len - k*chunk, and a trial at p resumes from the snapshot at p over
   the candidate's suffix only.  The snapshots stay valid for the whole
   pass: an acceptance at p' changes positions >= p' only, and later
   trials of the pass sit at p < p'.  A trial's suffix is a tail of the
   snapshotted test until the pass's first acceptance, so its good rows
   rejoin that test's cached trace as soon as the good states meet. *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Scan_test = Asc_scan.Scan_test
module Seq_fsim = Asc_fault.Seq_fsim

let max_checks = 400
let initial_chunk = 32
let max_work = 60_000_000 (* fault-group x cycle x gate units *)

type result = {
  test : Scan_test.t;
  omitted : int; (* vectors removed *)
  checks : int; (* simulations spent *)
}

let run ?pool ?budget ?tel c (test : Scan_test.t) ~faults ~required =
  let required = Array.of_list (Bitvec.to_list required) in
  if Array.length required = 0 then { test; omitted = 0; checks = 0 }
  else begin
    let n_gates = Circuit.n_gates c in
    let current = ref test in
    let checks = ref 0 and omitted = ref 0 and work = ref 0 in
    (* Earliest PO detection time per required fault under the current
       test; [max_int] for faults that rely on the scan-out.  Each pass's
       snapshot pass refreshes it. *)
    let po_time = Array.make (Array.length required) max_int in
    let budget_left () = !checks < max_checks && !work < max_work in
    (* Try removing [count] vectors at [p], resuming from [snap] (the
       snapshot at [p]) and rejoining [pass_test] (the test the snapshot
       pass simulated, whose trace it cached). *)
    let try_omit snap ~(pass_test : Scan_test.t) ~p ~count =
      let len = Scan_test.length !current in
      if count >= len || p + count > len then false
      else begin
        incr checks;
        (* Only faults whose PO detection happens at or after [p] (or that
           are scan-out-detected) can be affected; check the most fragile
           first so failing trials exit early. *)
        let affected = ref [] in
        Array.iteri
          (fun k _ -> if po_time.(k) >= p then affected := k :: !affected)
          required;
        let affected =
          List.sort (fun a b -> compare po_time.(b) po_time.(a)) !affected
          |> Array.of_list
        in
        let candidate = Scan_test.omit_span !current ~p ~count in
        let suffix = Array.sub !current.seq (p + count) (len - p - count) in
        let subset = Array.map (fun k -> required.(k)) affected in
        let new_len = Scan_test.length candidate in
        let groups = (Array.length subset + Word.width - 1) / Word.width in
        work := !work + (groups * new_len * n_gates);
        let rejoin = (pass_test.si, pass_test.seq) in
        let ok =
          Seq_fsim.resume_verify ?pool ?budget ?tel ~rejoin c snap ~suffix ~faults ~subset
        in
        if ok then begin
          (* Refresh the detection times of the re-verified faults. *)
          let times =
            Seq_fsim.resume_po_time ?pool ?budget ?tel ~rejoin c snap ~suffix ~faults ~subset
          in
          work := !work + (groups * new_len * n_gates);
          current := candidate;
          omitted := !omitted + count;
          Array.iteri (fun a k -> po_time.(k) <- times.(a)) affected
        end;
        ok
      end
    in
    let chunk = ref (min initial_chunk (max 1 (Scan_test.length test / 4))) in
    (* Round down to a power of two so halving refines cleanly. *)
    while !chunk land (!chunk - 1) <> 0 do
      chunk := !chunk land (!chunk - 1)
    done;
    if !chunk = 0 then chunk := 1;
    let continue_ = ref true in
    while !continue_ do
      let len = Scan_test.length !current in
      let pass_test = !current in
      (* Trial k of the pass sits at p = len - (k+1)*chunk. *)
      let snaps =
        if !chunk >= len || not (budget_left ()) then [||]
        else begin
          let boundaries = Array.init (len / !chunk) (fun k -> len - ((k + 1) * !chunk)) in
          let times, snaps =
            Seq_fsim.snapshots ?pool ?budget ?tel c ~si:!current.si ~seq:!current.seq ~faults
              ~subset:required ~boundaries
          in
          Array.blit times 0 po_time 0 (Array.length times);
          snaps
        end
      in
      let p = ref (len - !chunk) in
      while !p >= 0 && budget_left () do
        let count = !chunk in
        if count < len then
          ignore (try_omit snaps.((len - count - !p) / count) ~pass_test ~p:!p ~count);
        p := !p - count
      done;
      if !chunk = 1 || not (budget_left ()) then continue_ := false
      else chunk := !chunk / 2
    done;
    { test = !current; omitted = !omitted; checks = !checks }
  end
