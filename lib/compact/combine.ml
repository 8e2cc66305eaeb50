(* Static test compaction by combining tests — the procedure of [4].

   Combining tau_i and tau_j removes SO_i and SI_j and concatenates the
   primary input sequences: tau_{i,j} = (SI_i, T_i . T_j).  Each combination
   removes one scan operation, saving N_SV clock cycles at the price of
   re-running T_j from whatever state T_i leaves behind.  A combination is
   accepted only if the fault coverage of the whole test set does not drop.

   Coverage bookkeeping ([Pair_book]): the only faults at risk when
   combining (i, j) are those detected by tau_i or tau_j and by no other
   test.  The book derives them word by word from the count classes
   "one live test detects f" and "two do"; the combined test is accepted
   iff every at-risk fault is still detected.

   Pair order: at-risk sets are cheap to size, so attempts are made in
   ascending |at-risk| order (easiest first), sweeping until a full sweep
   makes no change.  A pair that failed is not simulated again until one
   of its tests changes or a count it depends on moves — its answer
   cannot differ — but it still counts as an attempt.

   A combined test keeps T_i as its prefix, so each live test i memoizes
   a snapshot at the end of T_i — its final good state and, for the
   at-risk faults of its pairs, PO-detected in T_i or the faulty state
   difference there.  A pair (i, j) then simulates only T_j, and only for
   at-risk faults not PO-detected in T_i, and its good rows rejoin
   tau_j's cached trace once the state T_i left behind meets SI_j's
   trajectory.  The memo is dropped when i is replaced by a combined
   test. *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Scan_test = Asc_scan.Scan_test
module Seq_fsim = Asc_fault.Seq_fsim

type result = {
  tests : Scan_test.t array;
  combinations : int; (* accepted combinations *)
  attempts : int; (* candidate pairs tried, remembered failures included *)
}

let max_sweeps = 6
let max_attempts = 60_000

let run ?pool ?budget ?tel c (tests : Scan_test.t array) ~faults ~targets =
  let n = Array.length tests in
  if n = 0 then { tests; combinations = 0; attempts = 0 }
  else begin
    let mat = Asc_scan.Tset.detection_matrix ?pool ?budget ?tel ~only:targets c tests ~faults in
    let book = Pair_book.create ~targets tests (Array.init n (Bitmat.row mat)) in
    let combinations = ref 0 and attempts = ref 0 in
    let snaps = Array.make n None in
    (* The end-of-T_i snapshot, covering [risk].  When the memoized one
       lacks one of those faults, one pass snapshots every fault a pair
       (i, _) can put at risk under the current counts, so the pairs of i
       share one well-packed pass instead of one each.  Counts change only
       on acceptances, so re-snapshots are rare. *)
    let end_snapshot i risk =
      match snaps.(i) with
      | Some s when List.for_all (Seq_fsim.snapshot_covers s) risk -> s
      | _ ->
          let t = Pair_book.test book i in
          let _, s =
            Seq_fsim.snapshots ?pool ?budget ?tel c ~si:t.si ~seq:t.seq ~faults
              ~subset:(Array.of_list (Bitvec.to_list (Pair_book.exposed book i)))
              ~boundaries:[| Scan_test.length t |]
          in
          snaps.(i) <- Some s.(0);
          s.(0)
    in
    let keeps_coverage i j =
      let risk = Bitvec.to_list (Pair_book.at_risk book i j) in
      let tj = Pair_book.test book j in
      risk = []
      || Seq_fsim.resume_verify ?pool ?budget ?tel ~rejoin:(tj.si, tj.seq) c
           (end_snapshot i risk) ~suffix:tj.seq ~faults ~subset:(Array.of_list risk)
    in
    (* A remembered failure still counts as an attempt but is not
       simulated: its answer cannot have changed. *)
    let try_combine i j =
      incr attempts;
      if Pair_book.failed book i j then false
      else if keeps_coverage i j then begin
        let combined =
          Scan_test.combine (Pair_book.test book i) (Pair_book.test book j)
        in
        (* Re-derive row i over everything the two tests used to detect
           (the combined test may detect more; that only helps and is left
           uncounted, keeping the bookkeeping conservative). *)
        let union = Bitvec.union (Pair_book.row book i) (Pair_book.row book j) in
        let row = Scan_test.detect ?pool ?budget ?tel ~only:union c combined ~faults in
        Pair_book.replace book i j combined row;
        snaps.(i) <- None;
        snaps.(j) <- None;
        incr combinations;
        true
      end
      else begin
        Pair_book.mark_failed book i j;
        false
      end
    in
    let progress = ref true in
    let sweep = ref 0 in
    while !progress && !sweep < max_sweeps && !attempts < max_attempts do
      incr sweep;
      progress := false;
      (* Order candidate pairs by at-risk size (cheap to compute). *)
      let pairs = ref [] in
      for i = 0 to n - 1 do
        if Pair_book.alive book i then
          for j = 0 to n - 1 do
            if j <> i && Pair_book.alive book j then
              pairs := (Bitvec.count (Pair_book.at_risk book i j), i, j) :: !pairs
          done
      done;
      let pairs = List.sort compare !pairs in
      List.iter
        (fun (_, i, j) ->
          if
            Pair_book.alive book i && Pair_book.alive book j
            && !attempts < max_attempts
          then if try_combine i j then progress := true)
        pairs
    done;
    {
      tests = Pair_book.survivors book;
      combinations = !combinations;
      attempts = !attempts;
    }
  end
