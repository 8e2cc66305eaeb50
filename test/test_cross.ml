(* Cross-path consistency: the same question answered through different
   simulator paths must agree.  These are the integration seams between
   libraries — exactly where independent implementations drift apart. *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Scan_test = Asc_scan.Scan_test
module Collapse = Asc_fault.Collapse

let qtest = QCheck_alcotest.to_alcotest

let random_circuit seed =
  Asc_circuits.Profile.make "xp" 5 4 6 55 ~t0_budget:10
  |> Asc_circuits.Generator.generate ~seed

(* Path 1: comb_fsim on a pattern.  Path 2: seq_fsim on the equivalent
   length-one scan test.  Path 3: 3-valued partial detect with a full
   chain.  All three must agree fault by fault. *)
let prop_three_paths_agree =
  QCheck.Test.make ~name:"comb / seq / partial detection paths agree" ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = random_circuit seed in
      let faults = Collapse.reps (Collapse.run c) in
      let rng = Rng.create (seed + 101) in
      let p =
        Asc_sim.Pattern.random rng ~n_pis:(Circuit.n_inputs c) ~n_ffs:(Circuit.n_dffs c)
      in
      let test = Scan_test.of_pattern p in
      let comb =
        Asc_fault.Comb_fsim.detect_union c ~patterns:[| p |] ~faults
      in
      let seq = Scan_test.detect c test ~faults in
      let partial =
        Asc_scan.Partial.detect c (Asc_scan.Partial.full_chain c) test ~faults
      in
      Bitvec.equal comb seq && Bitvec.equal seq partial)

(* The no-scan detector must agree with the incremental simulator on
   arbitrary split points, and with 2-valued simulation refinement: a
   fault it reports is detected from EVERY binary initial state without
   looking at the final state. *)
let prop_no_scan_vs_incremental =
  QCheck.Test.make ~name:"one-shot no-scan = incremental at any split" ~count:10
    QCheck.(pair (int_range 0 10_000) (int_range 1 9))
    (fun (seed, split) ->
      let c = random_circuit seed in
      let faults = Collapse.reps (Collapse.run c) in
      let rng = Rng.create (seed + 102) in
      let seq = Array.init 10 (fun _ -> Rng.bool_array rng (Circuit.n_inputs c)) in
      let inc = Asc_fault.Seq_fsim.inc3_create c faults in
      let (_ : int) = Asc_fault.Seq_fsim.inc3_commit inc (Array.sub seq 0 split) in
      let (_ : int) =
        Asc_fault.Seq_fsim.inc3_commit inc (Array.sub seq split (10 - split))
      in
      Bitvec.equal
        (Asc_fault.Seq_fsim.inc3_detected inc)
        (Asc_fault.Seq_fsim.detect_no_scan c ~seq ~faults))

(* Combining two tests then simulating equals simulating the longer test
   directly (combine is pure data plumbing). *)
let prop_combine_is_concatenation =
  QCheck.Test.make ~name:"combine = concatenation semantics" ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = random_circuit seed in
      let faults = Collapse.reps (Collapse.run c) in
      let rng = Rng.create (seed + 103) in
      let si = Rng.bool_array rng (Circuit.n_dffs c) in
      let seq1 = Array.init 3 (fun _ -> Rng.bool_array rng (Circuit.n_inputs c)) in
      let seq2 = Array.init 4 (fun _ -> Rng.bool_array rng (Circuit.n_inputs c)) in
      let t1 = Scan_test.create ~si ~seq:seq1 in
      let t2 = Scan_test.create ~si:(Rng.bool_array rng (Circuit.n_dffs c)) ~seq:seq2 in
      let combined = Scan_test.combine t1 t2 in
      let direct = Scan_test.create ~si ~seq:(Array.append seq1 seq2) in
      Bitvec.equal
        (Scan_test.detect c combined ~faults)
        (Scan_test.detect c direct ~faults))

(* The audit's incremental coverage sums to the coverage computed
   independently, on the pipeline's real output. *)
let test_audit_vs_pipeline () =
  let c = Asc_circuits.Registry.get "s344" in
  let config = Result.get_ok (Asc_core.Experiments.config_for ~seed:1 ~t0:"directed" "s344") in
  let prepared = Asc_core.Pipeline.prepare ~config c in
  let r = Asc_core.Pipeline.run ~config prepared in
  let report =
    Asc_scan.Audit.run c r.final_tests ~faults:prepared.faults ~targets:prepared.targets
  in
  Alcotest.(check int) "audit coverage = pipeline coverage"
    (Bitvec.count r.final_detected)
    report.coverage;
  Alcotest.(check int) "audit cycles = pipeline cycles" r.cycles_final report.cycles;
  Alcotest.(check (list (pair int int))) "no duplicates in the final set" []
    report.duplicates

(* Saved and reloaded test sets behave identically. *)
let test_tset_io_behavioural_roundtrip () =
  let c = Asc_circuits.Registry.get "s298" in
  let config = Result.get_ok (Asc_core.Experiments.config_for ~seed:1 ~t0:"directed" "s298") in
  let prepared = Asc_core.Pipeline.prepare ~config c in
  let r = Asc_core.Pipeline.run ~config prepared in
  let text = Asc_scan.Tset_io.to_string c r.final_tests in
  let loaded = Asc_scan.Tset_io.check_compatible c (Asc_scan.Tset_io.of_string text) in
  let cov_orig = Asc_scan.Tset.coverage c r.final_tests ~faults:prepared.faults in
  let cov_load = Asc_scan.Tset.coverage c loaded ~faults:prepared.faults in
  Alcotest.(check bool) "identical coverage" true (Bitvec.equal cov_orig cov_load)

let suite =
  [
    ( "cross",
      [
        qtest prop_three_paths_agree;
        qtest prop_no_scan_vs_incremental;
        qtest prop_combine_is_concatenation;
        Alcotest.test_case "audit vs pipeline" `Quick test_audit_vs_pipeline;
        Alcotest.test_case "tset_io behavioural roundtrip" `Quick
          test_tset_io_behavioural_roundtrip;
      ] );
  ]
