(* The scan model: the questions the proposed procedure asks of a scan
   architecture.  [Pipeline] runs the same four phases for full and
   partial scan (the paper's Section 1: the procedure "can be extended to
   the case of partial-scan circuits"); only the answers differ.  Each
   value is built once per run and captures the run's pool, budget and
   telemetry, so every question is answered on the one fault-simulation
   sweep. *)

open Asc_util
module Pattern = Asc_sim.Pattern
module Scan_test = Asc_scan.Scan_test
module Partial = Asc_scan.Partial
module Seq_fsim = Asc_fault.Seq_fsim
module Pair_book = Asc_compact.Pair_book

type seq = bool array array

type t = {
  candidate_rows : sis:bool array array -> seq:seq -> subset:int array -> Bitmat.t;
  profile : si:bool array -> seq:seq -> subset:int array -> Seq_fsim.profile;
  detect : only:Bitvec.t -> Scan_test.t -> Bitvec.t;
  omit : Scan_test.t -> required:Bitvec.t -> Scan_test.t;
  cover_rows : only:Bitvec.t -> Pattern.t array -> Bitmat.t;
  combine : targets:Bitvec.t -> Scan_test.t array -> Scan_test.t array;
  coverage : only:Bitvec.t -> Scan_test.t array -> Bitvec.t;
  cycles : Scan_test.t array -> int;
  max_iterations : int;
}

let full ?pool ?budget ?tel c ~faults =
  {
    candidate_rows =
      (fun ~sis ~seq ~subset ->
        Seq_fsim.candidate_detections ?pool ?budget ?tel c ~sis ~seq ~faults ~subset);
    profile =
      (fun ~si ~seq ~subset -> Seq_fsim.profile ?pool ?budget ?tel c ~si ~seq ~faults ~subset);
    detect = (fun ~only t -> Scan_test.detect ?pool ?budget ?tel ~only c t ~faults);
    omit =
      (fun t ~required ->
        (Asc_compact.Vector_omission.run ?pool ?budget ?tel c t ~faults ~required).test);
    cover_rows =
      (fun ~only patterns ->
        Asc_fault.Comb_fsim.detect_matrix ?pool ?budget ?tel ~only c ~patterns ~faults);
    combine =
      (fun ~targets tests ->
        (Asc_compact.Combine.run ?pool ?budget ?tel c tests ~faults ~targets).tests);
    coverage =
      (fun ~only tests -> Asc_scan.Tset.coverage ?pool ?budget ?tel ~only c tests ~faults);
    cycles = Asc_scan.Time_model.cycles_of_tests c;
    max_iterations = 8;
  }

(* --- Partial scan ------------------------------------------------------ *)

let omission_chunk = 16
let omission_checks = 120
let combine_attempts = 2_000

(* Phase 2 under partial scan: omission in halving power-of-two chunks
   from the tail, each trial a subset check of [required], under a trial
   budget. *)
let omit ~detect (test : Scan_test.t) ~required =
  let keeps candidate = Bitvec.subset required (detect ~only:required candidate) in
  let current = ref test in
  let checks = ref 0 in
  let chunk = ref (min omission_chunk (max 1 (Scan_test.length test / 4))) in
  while !chunk land (!chunk - 1) <> 0 do
    chunk := !chunk land (!chunk - 1)
  done;
  let continue_ = ref true in
  while !continue_ do
    let len = Scan_test.length !current in
    let p = ref (len - !chunk) in
    while !p >= 0 && !checks < omission_checks do
      (if !p + !chunk <= Scan_test.length !current && !chunk < Scan_test.length !current
       then begin
         incr checks;
         let candidate = Scan_test.omit_span !current ~p:!p ~count:!chunk in
         if keeps candidate then current := candidate
       end);
      p := !p - !chunk
    done;
    if !chunk = 1 || !checks >= omission_checks then continue_ := false
    else chunk := !chunk / 2
  done;
  !current

(* Phase 4 under partial scan: greedy pair combining with partial-semantics
   verification.  The combined test's row is everything it detects, so an
   acceptance can raise counts; the book forgets the failures that may
   depend on them. *)
let combine ~detect ~targets tests =
  let n = Array.length tests in
  if n <= 1 then tests
  else begin
    let detect t = detect ~only:targets t in
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
    while !progress && !attempts < combine_attempts do
      progress := false;
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if
            i <> j && Pair_book.alive book i && Pair_book.alive book j
            && !attempts < combine_attempts
          then if try_combine i j then progress := true
        done
      done
    done;
    Pair_book.survivors book
  end

let partial ?pool ?budget ?tel c ~faults chain =
  let detect ~only t = Partial.detect ?pool ?budget ?tel ~only c chain t ~faults in
  {
    candidate_rows =
      (fun ~sis ~seq ~subset ->
        Partial.candidate_detections ?pool ?budget ?tel c chain ~sis ~seq ~faults ~subset);
    profile =
      (fun ~si ~seq ~subset ->
        Partial.profile ?pool ?budget ?tel c chain (Scan_test.create ~si ~seq) ~faults
          ~subset);
    detect;
    omit = omit ~detect;
    (* Length-one tests from C: their partial detection is weaker, since
       one functional cycle cannot initialise unscanned state. *)
    cover_rows =
      (fun ~only patterns ->
        let rows = Bitmat.create (Array.length patterns) (Array.length faults) in
        Array.iteri
          (fun j pat -> Bitmat.set_row rows j (detect ~only (Scan_test.of_pattern pat)))
          patterns;
        rows);
    combine = combine ~detect;
    coverage =
      (fun ~only tests ->
        Bitvec.inter (Partial.coverage ?pool ?budget ?tel c chain tests ~faults) only);
    cycles = Partial.cycles chain;
    max_iterations = 4;
  }
