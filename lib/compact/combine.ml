(* Static test compaction by combining tests — the procedure of [4].

   Combining tau_i and tau_j removes SO_i and SI_j and concatenates the
   primary input sequences: tau_{i,j} = (SI_i, T_i . T_j).  Each combination
   removes one scan operation, saving N_SV clock cycles at the price of
   re-running T_j from whatever state T_i leaves behind.  A combination is
   accepted only if the fault coverage of the whole test set does not drop.

   Coverage bookkeeping: with the tests x faults detection matrix and
   per-fault detection counts, the only faults at risk when combining
   (i, j) are those detected by tau_i or tau_j and by no other test; the
   combined test is simulated over the union of the two rows, and accepted
   iff every at-risk fault is still detected.

   Pair order: at-risk sets are cheap to size, so attempts are made in
   ascending |at-risk| order (easiest first), sweeping until a full sweep
   makes no change.

   A combined test keeps T_i as its prefix, so each live test i memoizes
   a snapshot at the end of T_i — its final good state and, for the
   at-risk faults of its pairs, PO-detected in T_i or the faulty state
   difference there.  A pair (i, j) then simulates only T_j, and only for
   at-risk faults not PO-detected in T_i.  The memo is dropped when i is
   replaced by a combined test. *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Scan_test = Asc_scan.Scan_test
module Seq_fsim = Asc_fault.Seq_fsim

type result = {
  tests : Scan_test.t array;
  combinations : int; (* accepted combinations *)
  attempts : int; (* simulated candidate pairs *)
}

type config = { max_sweeps : int; max_attempts : int }

let default_config = { max_sweeps = 6; max_attempts = 60_000 }

let run ?pool ?budget ?tel ?(config = default_config) c (tests : Scan_test.t array) ~faults ~targets =
  let n = Array.length tests in
  if n = 0 then { tests; combinations = 0; attempts = 0 }
  else begin
    let mat = Asc_scan.Tset.detection_matrix ?pool ?budget ?tel ~only:targets c tests ~faults in
    (* Restrict every row to the target faults. *)
    for i = 0 to n - 1 do
      Bitvec.inter_into ~into:(Bitmat.row mat i) targets
    done;
    let counts = Bitmat.column_counts mat in
    let current = Array.copy tests in
    let alive = Array.make n true in
    let combinations = ref 0 and attempts = ref 0 in
    let memo = Array.make n None in
    (* The end-of-T_i snapshot, covering [risk].  When the memo lacks one
       of those faults, one pass snapshots every fault a pair (i, _) can
       put at risk under the current counts — the faults one live test
       alone detects, and those i shares with exactly one other — so the
       pairs of i share one well-packed pass instead of one each.  Counts
       change only on acceptances, so re-snapshots are rare. *)
    let end_snapshot i risk =
      match memo.(i) with
      | Some s when List.for_all (Seq_fsim.snapshot_covers s) risk -> s
      | _ ->
          let row = Bitmat.row mat i in
          let batch = ref [] in
          for f = Array.length counts - 1 downto 0 do
            if counts.(f) = 1 || (counts.(f) = 2 && Bitvec.get row f) then batch := f :: !batch
          done;
          let t = current.(i) in
          let _, snaps =
            Seq_fsim.snapshots ?pool ?budget ?tel c ~si:t.si ~seq:t.seq ~faults
              ~subset:(Array.of_list !batch) ~boundaries:[| Scan_test.length t |]
          in
          memo.(i) <- Some snaps.(0);
          snaps.(0)
    in
    (* Faults whose coverage would be lost if rows i and j both vanish. *)
    let at_risk i j =
      let union = Bitvec.union (Bitmat.row mat i) (Bitmat.row mat j) in
      Bitvec.fold_set
        (fun acc f ->
          let own =
            (if Bitvec.get (Bitmat.row mat i) f then 1 else 0)
            + if Bitvec.get (Bitmat.row mat j) f then 1 else 0
          in
          if counts.(f) = own then f :: acc else acc)
        [] union
      |> List.rev
    in
    let try_combine i j =
      incr attempts;
      let risk = at_risk i j in
      if
        risk = []
        || Seq_fsim.resume_verify ?pool ?budget ?tel c (end_snapshot i risk)
             ~suffix:current.(j).seq ~faults ~subset:(Array.of_list risk)
      then begin
        let combined = Scan_test.combine current.(i) current.(j) in
        (* Re-derive row i over everything the two tests used to detect
           (the combined test may detect more; that only helps and is left
           uncounted, keeping the bookkeeping conservative). *)
        let union = Bitvec.union (Bitmat.row mat i) (Bitmat.row mat j) in
        let row' = Scan_test.detect ?pool ?budget ?tel ~only:union c combined ~faults in
        Bitvec.iter_set (fun f -> counts.(f) <- counts.(f) - 1) (Bitmat.row mat i);
        Bitvec.iter_set (fun f -> counts.(f) <- counts.(f) - 1) (Bitmat.row mat j);
        Bitvec.iter_set (fun f -> counts.(f) <- counts.(f) + 1) row';
        current.(i) <- combined;
        memo.(i) <- None;
        memo.(j) <- None;
        Bitmat.set_row mat i row';
        Bitmat.set_row mat j (Bitvec.create (Array.length faults));
        alive.(j) <- false;
        incr combinations;
        true
      end
      else false
    in
    let progress = ref true in
    let sweep = ref 0 in
    while !progress && !sweep < config.max_sweeps && !attempts < config.max_attempts do
      incr sweep;
      progress := false;
      (* Order candidate pairs by at-risk size (cheap to compute). *)
      let pairs = ref [] in
      for i = 0 to n - 1 do
        if alive.(i) then
          for j = 0 to n - 1 do
            if j <> i && alive.(j) then begin
              let risk_size = List.length (at_risk i j) in
              pairs := (risk_size, i, j) :: !pairs
            end
          done
      done;
      let pairs = List.sort compare !pairs in
      List.iter
        (fun (_, i, j) ->
          if alive.(i) && alive.(j) && !attempts < config.max_attempts then
            if try_combine i j then progress := true)
        pairs
    done;
    let kept = ref [] in
    for i = n - 1 downto 0 do
      if alive.(i) then kept := current.(i) :: !kept
    done;
    { tests = Array.of_list !kept; combinations = !combinations; attempts = !attempts }
  end
