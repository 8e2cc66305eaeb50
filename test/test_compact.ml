(* Tests for Asc_compact: combining [4], vector omission [8], Phase-3 set
   covering, and the dynamic baseline.  The central properties are the
   coverage-preservation invariants each procedure promises. *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Scan_test = Asc_scan.Scan_test
module Collapse = Asc_fault.Collapse

let qtest = QCheck_alcotest.to_alcotest

let small_circuit seed =
  Asc_circuits.Profile.make "cmp" 4 3 5 45 ~t0_budget:10
  |> Asc_circuits.Generator.generate ~seed

let coverage c tests ~faults ~targets =
  Bitvec.inter (Asc_scan.Tset.coverage c tests ~faults) targets

(* A little test set from random patterns that detect something. *)
let random_test_set c ~faults rng n =
  let tests = ref [] in
  while List.length !tests < n do
    let p =
      Asc_sim.Pattern.random rng ~n_pis:(Circuit.n_inputs c) ~n_ffs:(Circuit.n_dffs c)
    in
    let t = Scan_test.of_pattern p in
    if not (Bitvec.is_empty (Scan_test.detect c t ~faults)) then tests := t :: !tests
  done;
  Array.of_list !tests

(* --- Combine ([4]) ----------------------------------------------------- *)

let prop_combine_preserves_coverage =
  QCheck.Test.make ~name:"combine preserves target coverage and reduces cycles"
    ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = small_circuit seed in
      let faults = Collapse.reps (Collapse.run c) in
      let rng = Rng.create (seed + 31) in
      let tests = random_test_set c ~faults rng 12 in
      let targets = Asc_scan.Tset.coverage c tests ~faults in
      let before = coverage c tests ~faults ~targets in
      let r = Asc_compact.Combine.run c tests ~faults ~targets in
      let after = coverage c r.tests ~faults ~targets in
      let cycles_before = Asc_scan.Time_model.cycles_of_tests c tests in
      let cycles_after = Asc_scan.Time_model.cycles_of_tests c r.tests in
      Bitvec.subset before after
      && cycles_after <= cycles_before
      && Array.length r.tests = Array.length tests - r.combinations)

let test_combine_chained_pair () =
  (* Two tests where the second's scan-in equals the first's scan-out:
     the combined test replays T_j identically, so the only faults at risk
     are those t1 detected solely through its (removed) scan-out.  Whether
     or not the pair combines, coverage must be preserved exactly. *)
  let c = Asc_circuits.S27.circuit () in
  let faults = Collapse.reps (Collapse.run c) in
  let rng = Rng.create 9 in
  let si = Rng.bool_array rng 3 in
  let seq1 = Array.init 2 (fun _ -> Rng.bool_array rng 4) in
  let t1 = Scan_test.create ~si ~seq:seq1 in
  let so1 = Scan_test.scan_out c t1 in
  let t2 = Scan_test.create ~si:so1 ~seq:(Array.init 2 (fun _ -> Rng.bool_array rng 4)) in
  let tests = [| t1; t2 |] in
  let targets = Asc_scan.Tset.coverage c tests ~faults in
  let r = Asc_compact.Combine.run c tests ~faults ~targets in
  let after = coverage c r.tests ~faults ~targets in
  Alcotest.(check bool) "coverage preserved" true (Bitvec.equal after targets);
  if r.combinations = 1 then begin
    Alcotest.(check int) "combined into one" 1 (Array.length r.tests);
    Alcotest.(check int) "length 4" 4 (Scan_test.length r.tests.(0))
  end
  else Alcotest.(check int) "pair kept" 2 (Array.length r.tests)

let test_combine_single_test_noop () =
  let c = Asc_circuits.S27.circuit () in
  let faults = Collapse.reps (Collapse.run c) in
  let rng = Rng.create 10 in
  let t =
    Scan_test.create ~si:(Rng.bool_array rng 3)
      ~seq:(Array.init 3 (fun _ -> Rng.bool_array rng 4))
  in
  let targets = Asc_scan.Tset.coverage c [| t |] ~faults in
  let r = Asc_compact.Combine.run c [| t |] ~faults ~targets in
  Alcotest.(check int) "unchanged" 1 (Array.length r.tests);
  Alcotest.(check int) "no attempts" 0 r.combinations

(* Differential oracle for Combine.run: the procedure of [4] written out
   plainly — the at-risk set by a per-fault fold over the detection
   counts, every pair verified from time 0 on the whole combined test, no
   failed-pair memo and no snapshots.  Combine.run must make exactly the
   same decisions and the same number of attempts. *)
let reference_combine c (tests : Scan_test.t array) ~faults ~targets =
  let config = Asc_compact.Combine.default_config in
  let n = Array.length tests and n_faults = Array.length faults in
  let rows =
    Array.map (fun t -> Bitvec.inter (Scan_test.detect ~only:targets c t ~faults) targets) tests
  in
  let counts = Array.make n_faults 0 in
  let bump d row = Bitvec.iter_set (fun f -> counts.(f) <- counts.(f) + d) row in
  Array.iter (bump 1) rows;
  let current = Array.copy tests and alive = Array.make n true in
  let at_risk i j =
    List.filter
      (fun f ->
        let own = Bool.to_int (Bitvec.get rows.(i) f) + Bool.to_int (Bitvec.get rows.(j) f) in
        own > 0 && counts.(f) = own)
      (List.init n_faults Fun.id)
  in
  let combinations = ref 0 and attempts = ref 0 in
  let try_combine i j =
    incr attempts;
    let combined = Scan_test.combine current.(i) current.(j) in
    let risk = Array.of_list (at_risk i j) in
    if Asc_fault.Seq_fsim.verify_required c ~si:combined.si ~seq:combined.seq ~faults ~subset:risk
    then begin
      let row = Scan_test.detect ~only:(Bitvec.union rows.(i) rows.(j)) c combined ~faults in
      bump (-1) rows.(i);
      bump (-1) rows.(j);
      bump 1 row;
      current.(i) <- combined;
      rows.(i) <- row;
      rows.(j) <- Bitvec.create n_faults;
      alive.(j) <- false;
      incr combinations;
      true
    end
    else false
  in
  let progress = ref true and sweep = ref 0 in
  while !progress && !sweep < config.max_sweeps && !attempts < config.max_attempts do
    incr sweep;
    progress := false;
    let pairs = ref [] in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j && alive.(i) && alive.(j) then
          pairs := (List.length (at_risk i j), i, j) :: !pairs
      done
    done;
    List.iter
      (fun (_, i, j) ->
        if alive.(i) && alive.(j) && !attempts < config.max_attempts && try_combine i j then
          progress := true)
      (List.sort compare !pairs)
  done;
  let kept = List.filter (fun i -> alive.(i)) (List.init n Fun.id) in
  (Array.of_list (List.map (fun i -> current.(i)) kept), !combinations, !attempts)

(* Combine.run at 1 and 2 domains against the reference. *)
let combine_matches_reference c tests ~faults ~targets =
  let want_tests, want_combinations, want_attempts =
    reference_combine c tests ~faults ~targets
  in
  List.for_all
    (fun domains ->
      let pool = Domain_pool.create ~domains () in
      Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) @@ fun () ->
      let r = Asc_compact.Combine.run ~pool c tests ~faults ~targets in
      r.combinations = want_combinations
      && r.attempts = want_attempts
      && Array.length r.tests = Array.length want_tests
      && Array.for_all2 Scan_test.equal r.tests want_tests)
    [ 1; 2 ]

(* Random tests of 1-3 vectors that each detect something, so combined
   tests grow and later sweeps meet changed partners. *)
let random_multi_vector_tests c ~faults rng n =
  let n_pis = Circuit.n_inputs c and n_ffs = Circuit.n_dffs c in
  let tests = ref [] in
  while List.length !tests < n do
    let seq = Array.init (1 + Rng.int rng 3) (fun _ -> Rng.bool_array rng n_pis) in
    let t = Scan_test.create ~si:(Rng.bool_array rng n_ffs) ~seq in
    if not (Bitvec.is_empty (Scan_test.detect c t ~faults)) then tests := t :: !tests
  done;
  Array.of_list !tests

let prop_combine_matches_reference =
  QCheck.Test.make ~name:"combine matches the plain reference at 1 and 2 domains"
    ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = small_circuit seed in
      let faults = Collapse.reps (Collapse.run c) in
      let rng = Rng.create (seed + 34) in
      let tests = random_multi_vector_tests c ~faults rng (8 + Rng.int rng 10) in
      let targets = Asc_scan.Tset.coverage c tests ~faults in
      combine_matches_reference c tests ~faults ~targets)

let test_combine_matches_reference_iscas () =
  List.iter
    (fun name ->
      let c = Asc_circuits.Registry.get name in
      let p = Asc_core.Pipeline.prepare c in
      let tests = Array.map Scan_test.of_pattern p.comb_tests in
      Alcotest.(check bool) (name ^ " matches the reference") true
        (combine_matches_reference c tests ~faults:p.faults ~targets:p.targets))
    [ "s298"; "s344" ]

(* Pair_book on hand-made rows: the count classes give the at-risk sets,
   and an acceptance forgets exactly the failures whose answer may change —
   those of the surviving test, and those of every test holding a fault
   the new row gains beyond the two old rows (the partial-scan Phase 4
   counts everything a combined test detects). *)
let test_pair_book_forgetting () =
  let module Pb = Asc_compact.Pair_book in
  let t = Scan_test.create ~si:[||] ~seq:[| [||] |] in
  let rows = List.map (Bitvec.of_list 3) [ [ 0 ]; [ 1 ]; [ 2 ]; [ 2 ]; [ 1 ]; [] ] in
  let book = Pb.create ~targets:(Bitvec.create ~default:true 3) (Array.make 6 t) (Array.of_list rows) in
  let risk i j = Bitvec.to_list (Pb.at_risk book i j) in
  Alcotest.(check (list int)) "fault 0 only test 0 detects" [ 0 ] (risk 0 1);
  Alcotest.(check (list int)) "fault 1 shared by exactly tests 1 and 4" [ 1 ] (risk 1 4);
  Alcotest.(check (list int)) "exposed by test 1" [ 0; 1 ] (Bitvec.to_list (Pb.exposed book 1));
  List.iter (fun (i, j) -> Pb.mark_failed book i j) [ (0, 1); (1, 4); (5, 2) ];
  (* (2, 3) becomes one test that also detects fault 0. *)
  Pb.replace book 2 3 t (Bitvec.of_list 3 [ 0; 2 ]);
  Alcotest.(check bool) "test 0 holds a gained fault" false (Pb.failed book 0 1);
  Alcotest.(check bool) "untouched pair still failed" true (Pb.failed book 1 4);
  Alcotest.(check bool) "the surviving test's failures are forgotten" false (Pb.failed book 5 2);
  Alcotest.(check (list int)) "fault 0 now has a second detector" [] (risk 0 1);
  Alcotest.(check (list int)) "fault 2 only the combined test detects" [ 2 ] (risk 2 5);
  Alcotest.(check bool) "test 3 is gone" false (Pb.alive book 3);
  Alcotest.(check int) "survivors" 5 (Array.length (Pb.survivors book))

(* --- Vector omission ([8]) --------------------------------------------- *)

let prop_omission_preserves_required =
  QCheck.Test.make ~name:"omission keeps every required fault detected" ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = small_circuit seed in
      let faults = Collapse.reps (Collapse.run c) in
      let rng = Rng.create (seed + 32) in
      let si = Rng.bool_array rng (Circuit.n_dffs c) in
      let seq = Array.init 16 (fun _ -> Rng.bool_array rng (Circuit.n_inputs c)) in
      let test = Scan_test.create ~si ~seq in
      let required = Scan_test.detect c test ~faults in
      let r = Asc_compact.Vector_omission.run c test ~faults ~required in
      let after = Scan_test.detect c r.test ~faults in
      Bitvec.subset required after
      && Scan_test.length r.test = 16 - r.omitted
      && Scan_test.length r.test >= 1)

let test_omission_removes_padding () =
  (* Vectors after the last detection are omitted. *)
  let c = Asc_circuits.S27.circuit () in
  let faults = Collapse.reps (Collapse.run c) in
  let rng = Rng.create 13 in
  let si = Rng.bool_array rng 3 in
  let core = Array.init 4 (fun _ -> Rng.bool_array rng 4) in
  let test = Scan_test.create ~si ~seq:core in
  let required = Scan_test.detect c test ~faults in
  (* Pad the test with vectors, then require only the original faults:
     omission should strip a good share of the padding. *)
  let padded =
    Scan_test.create ~si ~seq:(Array.append core (Array.make 12 (Array.make 4 false)))
  in
  let r = Asc_compact.Vector_omission.run c padded ~faults ~required in
  Alcotest.(check bool) "substantial removal" true (r.omitted >= 8);
  let after = Scan_test.detect c r.test ~faults in
  Alcotest.(check bool) "required kept" true (Bitvec.subset required after)

(* --- Set cover (Phase 3) ----------------------------------------------- *)

let test_set_cover_paper_rules () =
  (* 4 tests, 5 faults.  Fault 4 is covered only by test 1 (n=1, picked
     first); the rest follow the min-n(f) / last(f) rules. *)
  let m = Bitmat.create 4 5 in
  List.iter (fun (t, f) -> Bitmat.set m t f)
    [ (0, 0); (1, 0); (2, 0); (3, 0); (0, 1); (1, 1); (2, 2); (3, 2); (1, 4); (0, 3); (3, 3) ];
  let undetected = Bitvec.of_list 5 [ 0; 1; 2; 3; 4 ] in
  let r = Asc_compact.Set_cover.select ~matrix:m ~undetected in
  Alcotest.(check bool) "nothing uncovered" true (Bitvec.is_empty r.uncovered);
  (* Fault 4 has n=1 -> test 1 first.  Test 1 covers faults 0,1,4.
     Remaining: 2 (n=2, last=3), 3 (n=2, last=3) -> test 3 covers both. *)
  Alcotest.(check (list int)) "selection" [ 1; 3 ] r.selected

let test_set_cover_uncoverable () =
  let m = Bitmat.create 2 3 in
  Bitmat.set m 0 0;
  Bitmat.set m 1 1;
  let undetected = Bitvec.of_list 3 [ 0; 1; 2 ] in
  let r = Asc_compact.Set_cover.select ~matrix:m ~undetected in
  Alcotest.(check (list int)) "uncovered fault" [ 2 ] (Bitvec.to_list r.uncovered);
  Alcotest.(check int) "both tests needed" 2 (List.length r.selected)

let prop_set_cover_covers =
  QCheck.Test.make ~name:"set cover covers every coverable fault" ~count:50
    QCheck.(pair (int_range 1 12) (int_range 1 40))
    (fun (n_tests, n_faults) ->
      let rng = Rng.create (n_tests * 1000 + n_faults) in
      let m = Bitmat.create n_tests n_faults in
      for t = 0 to n_tests - 1 do
        for f = 0 to n_faults - 1 do
          if Rng.int rng 100 < 25 then Bitmat.set m t f
        done
      done;
      let undetected = Bitvec.create ~default:true n_faults in
      let r = Asc_compact.Set_cover.select ~matrix:m ~undetected in
      let covered = Bitvec.create n_faults in
      List.iter
        (fun t -> Bitvec.union_into ~into:covered (Bitmat.row m t))
        r.selected;
      (* covered + uncovered = everything; uncovered really has n(f)=0. *)
      Bitvec.equal (Bitvec.union covered r.uncovered) undetected
      && Bitvec.fold_set
           (fun acc f -> acc && Bitmat.column_count m f = 0)
           true r.uncovered)

(* --- Dynamic baseline --------------------------------------------------- *)

let test_dynamic_baseline_coverage () =
  let c = Asc_circuits.S27.circuit () in
  let faults = Collapse.reps (Collapse.run c) in
  let targets = Bitvec.create ~default:true (Array.length faults) in
  let rng = Rng.create 21 in
  let r = Asc_compact.Dynamic_baseline.run c ~faults ~targets ~rng in
  (* s27 is fully testable: everything detected, nothing unresolved. *)
  Alcotest.(check int) "full coverage" 32 (Bitvec.count r.detected);
  Alcotest.(check int) "no unresolved" 0 (Bitvec.count r.unresolved);
  (* The recorded coverage is real. *)
  let cov = Asc_scan.Tset.coverage c r.tests ~faults in
  Alcotest.(check bool) "coverage verified" true (Bitvec.subset r.detected cov);
  (* Extension produced at least one multi-vector test. *)
  let lengths = Array.map Scan_test.length r.tests in
  Alcotest.(check bool) "some test extends" true (Array.exists (fun l -> l > 1) lengths)

let prop_dynamic_baseline_sound =
  QCheck.Test.make ~name:"dynamic baseline's claimed coverage is real" ~count:5
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = small_circuit seed in
      let faults = Collapse.reps (Collapse.run c) in
      let targets = Bitvec.create ~default:true (Array.length faults) in
      let rng = Rng.create (seed + 33) in
      let r = Asc_compact.Dynamic_baseline.run c ~faults ~targets ~rng in
      let cov = Asc_scan.Tset.coverage c r.tests ~faults in
      Bitvec.subset r.detected cov
      && Bitvec.is_empty (Bitvec.inter r.detected r.unresolved))

let suite =
  [
    ( "compact",
      [
        qtest prop_combine_preserves_coverage;
        Alcotest.test_case "combine chained pair" `Quick test_combine_chained_pair;
        Alcotest.test_case "combine single noop" `Quick test_combine_single_test_noop;
        qtest prop_combine_matches_reference;
        Alcotest.test_case "combine matches the reference on s298, s344" `Quick
          test_combine_matches_reference_iscas;
        Alcotest.test_case "pair book forgets only changeable failures" `Quick
          test_pair_book_forgetting;
        qtest prop_omission_preserves_required;
        Alcotest.test_case "omission removes padding" `Quick test_omission_removes_padding;
        Alcotest.test_case "set cover paper rules" `Quick test_set_cover_paper_rules;
        Alcotest.test_case "set cover uncoverable" `Quick test_set_cover_uncoverable;
        qtest prop_set_cover_covers;
        Alcotest.test_case "dynamic baseline s27" `Quick test_dynamic_baseline_coverage;
        qtest prop_dynamic_baseline_sound;
      ] );
  ]
