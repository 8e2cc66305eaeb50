(* The proposed procedure, extended to partial scan.

   The paper notes (Section 1) that "the proposed procedure can be
   extended to the case of partial-scan circuits"; this module is that
   extension.  The four phases carry over with partial-scan semantics:

   - scan-in vectors set only the scanned flip-flops; the unscanned ones
     are X at test start (conservative 3-valued evaluation);
   - the scan-out observes the scanned flip-flops only;
   - a scan operation costs N_scanned cycles, so the time model rewards
     compaction less than full scan does — and rewards the long-sequence
     shape *more*, since functional cycles are where unscanned state gets
     set and observed.

   Phase 1 uses the partial analogues of the candidate-selection and
   detection-time-profile queries ([Asc_scan.Partial]); Phase 2 is a
   chunked omission verified under partial semantics; Phase 3 covers with
   length-one tests from C as before (their partial detection is weaker:
   one functional cycle can't initialise unscanned state); Phase 4 is a
   pair-combining pass verified under partial semantics.

   Because detection is 3-valued and unscanned state starts X, complete
   coverage of the full-scan target set is generally *not* reachable —
   the result reports the partial-scan detectable coverage instead. *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Scan_test = Asc_scan.Scan_test
module Partial = Asc_scan.Partial
module Pair_book = Asc_compact.Pair_book

type config = {
  seed : int;
  t0_source : Pipeline.t0_source;
  max_iterations : int;
  omission_chunk : int;
  omission_checks : int;
  combine_attempts : int;
}

let default_config =
  {
    seed = 1;
    t0_source = Pipeline.Directed 1000;
    max_iterations = 4;
    omission_chunk = 16;
    omission_checks = 120;
    combine_attempts = 2_000;
  }

type result = {
  chain : Partial.chain;
  tau_seq : Scan_test.t;
  f_seq : Bitvec.t;
  added : Scan_test.t array;
  final_tests : Scan_test.t array;
  final_detected : Bitvec.t;
  cycles_initial : int;
  cycles_final : int;
}

(* Phase 1, Step 2 under partial scan: best candidate scan-in from C. *)
let select_scan_in c chain ~faults ~candidates ~t0 ~f0 ~targets ~selected =
  let subset = Array.of_list (Bitvec.to_list (Bitvec.diff targets f0)) in
  let sis = Array.map (fun (p : Asc_sim.Pattern.t) -> p.state) candidates in
  let rows = Partial.candidate_detections c chain ~sis ~seq:t0 ~faults ~subset in
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
  let index, already_selected =
    if unsel >= 0 && unsel_count >= sel_count then (unsel, false) else (sel, true)
  in
  let f_si = Bitvec.union f0 (Bitmat.row rows index) in
  Bitvec.inter_into ~into:f_si targets;
  (index, f_si, already_selected)

(* Phase 1, Step 3 under partial scan: earliest valid scan-out time. *)
let select_scan_out c chain ~faults ~si ~t0 ~f_si ~targets =
  let len = Array.length t0 in
  let full_test = Scan_test.create ~si ~seq:t0 in
  let subset = Array.of_list (Bitvec.to_list f_si) in
  let prof = Partial.profile c chain full_test ~faults ~subset in
  let allowed = Bitvec.create ~default:true len in
  Array.iteri
    (fun k _ ->
      let ok = Bitvec.copy prof.state_diff_at.(k) in
      if prof.po_time.(k) < len then
        for u = prof.po_time.(k) to len - 1 do
          Bitvec.set ok u
        done;
      Bitvec.inter_into ~into:allowed ok)
    subset;
  let u = match Bitvec.first_set allowed with -1 -> len - 1 | u -> u in
  let test = Scan_test.truncate full_test ~u in
  let f_so = Bitvec.inter (Partial.detect ~only:targets c chain test ~faults) targets in
  (test, u, f_so)

(* Phase 2 under partial scan: chunked omission with subset checks. *)
let omit c chain (test : Scan_test.t) ~faults ~required ~config =
  let keeps candidate =
    let det = Partial.detect ~only:required c chain candidate ~faults in
    Bitvec.subset required det
  in
  let current = ref test in
  let checks = ref 0 in
  let chunk = ref (min config.omission_chunk (max 1 (Scan_test.length test / 4))) in
  while !chunk land (!chunk - 1) <> 0 do
    chunk := !chunk land (!chunk - 1)
  done;
  if !chunk = 0 then chunk := 1;
  let continue_ = ref true in
  while !continue_ do
    let len = Scan_test.length !current in
    let p = ref (len - !chunk) in
    while !p >= 0 && !checks < config.omission_checks do
      (if !p + !chunk <= Scan_test.length !current && !chunk < Scan_test.length !current
       then begin
         incr checks;
         let candidate = Scan_test.omit_span !current ~p:!p ~count:!chunk in
         if keeps candidate then current := candidate
       end);
      p := !p - !chunk
    done;
    if !chunk = 1 || !checks >= config.omission_checks then continue_ := false
    else chunk := !chunk / 2
  done;
  !current

(* Phase 4 under partial scan: greedy pair combining with partial-semantics
   verification.  The combined test's row is everything it detects, so an
   acceptance can raise counts; the book forgets the failures that may
   depend on them. *)
let combine c chain tests ~faults ~targets ~config =
  let n = Array.length tests in
  if n <= 1 then tests
  else begin
    let detect t = Partial.detect ~only:targets c chain t ~faults in
    let book = Pair_book.create ~targets tests (Array.map detect tests) in
    let attempts = ref 0 in
    let try_combine i j =
      incr attempts;
      if Pair_book.failed book i j then false
      else begin
        let combined =
          Scan_test.combine (Pair_book.test book i) (Pair_book.test book j)
        in
        let det = detect combined in
        if Bitvec.subset (Pair_book.at_risk book i j) det then begin
          Pair_book.replace book i j combined det;
          true
        end
        else begin
          Pair_book.mark_failed book i j;
          false
        end
      end
    in
    let progress = ref true in
    while !progress && !attempts < config.combine_attempts do
      progress := false;
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if
            i <> j && Pair_book.alive book i && Pair_book.alive book j
            && !attempts < config.combine_attempts
          then if try_combine i j then progress := true
        done
      done
    done;
    Pair_book.survivors book
  end

let run ?(config = default_config) (p : Pipeline.prepared) ~chain =
  let c = p.circuit in
  let faults = p.faults in
  let pipeline_config =
    { Pipeline.default_config with seed = config.seed; t0_source = config.t0_source }
  in
  let t0, f0 = Pipeline.make_t0 pipeline_config p in
  (* Phases 1 + 2, iterated. *)
  let selected = Bitvec.create (Array.length p.comb_tests) in
  let current_seq = ref t0 in
  let current_f0 = ref f0 in
  let tau = ref None in
  let stop = ref false in
  let iter = ref 0 in
  while not !stop do
    incr iter;
    let index, f_si, already_selected =
      select_scan_in c chain ~faults ~candidates:p.comb_tests ~t0:!current_seq
        ~f0:!current_f0 ~targets:p.targets ~selected
    in
    let test, _u, f_so =
      select_scan_out c chain ~faults
        ~si:p.comb_tests.(index).state
        ~t0:!current_seq ~f_si ~targets:p.targets
    in
    let omitted = omit c chain test ~faults ~required:f_so ~config in
    let f_c = Bitvec.inter (Partial.detect ~only:p.targets c chain omitted ~faults) p.targets in
    let better =
      match !tau with
      | None -> true
      | Some (t, f) ->
          let cmp = compare (Bitvec.count f_c) (Bitvec.count f) in
          cmp > 0 || (cmp = 0 && Scan_test.length omitted < Scan_test.length t)
    in
    if better then tau := Some (omitted, f_c);
    if already_selected || !iter >= config.max_iterations || not better then stop := true
    else begin
      Bitvec.set selected index;
      current_seq := omitted.seq;
      current_f0 :=
        Bitvec.inter (Asc_fault.Seq_fsim.detect_no_scan c ~seq:!current_seq ~faults)
          p.targets
    end
  done;
  let tau_seq, f_seq = match !tau with Some x -> x | None -> assert false in
  (* Phase 3: top up with length-one tests from C, under partial
     detection. *)
  let undetected = ref (Bitvec.diff p.targets f_seq) in
  let n_c = Array.length p.comb_tests in
  let matrix = Bitmat.create n_c (Array.length faults) in
  Array.iteri
    (fun j (pat : Asc_sim.Pattern.t) ->
      let t = Scan_test.of_pattern pat in
      Bitmat.set_row matrix j (Partial.detect ~only:!undetected c chain t ~faults))
    p.comb_tests;
  let cover = Asc_compact.Set_cover.select ~matrix ~undetected:!undetected in
  let added =
    Array.of_list
      (List.map (fun j -> Scan_test.of_pattern p.comb_tests.(j)) cover.selected)
  in
  let initial_tests = Array.append [| tau_seq |] added in
  let cycles_initial = Partial.cycles c chain initial_tests in
  (* Phase 4. *)
  let final_tests = combine c chain initial_tests ~faults ~targets:p.targets ~config in
  let cycles_final = Partial.cycles c chain final_tests in
  let final_detected = Partial.coverage c chain final_tests ~faults in
  Bitvec.inter_into ~into:final_detected p.targets;
  {
    chain;
    tau_seq;
    f_seq;
    added;
    final_tests;
    final_detected;
    cycles_initial;
    cycles_final;
  }
