(* Tests for the partial-scan pipeline: semantics, invariants, and its
   relationship to the full-scan procedure. *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Partial = Asc_scan.Partial
module Pipeline = Asc_core.Pipeline

(* s298 as `asc run s298` configures it (directed T0, 120 vectors). *)
let config = Result.get_ok (Asc_core.Experiments.config_for ~seed:1 ~t0:"directed" "s298")

let prepared_s298 =
  lazy
    (let c = Asc_circuits.Registry.get "s298" in
     (c, Pipeline.prepare ~config c))

let run_at ratio =
  let c, prepared = Lazy.force prepared_s298 in
  let chain = Partial.by_fanout c ~ratio in
  (c, prepared, chain, Pipeline.run ~config ~chain prepared)

let test_full_chain_equivalent_semantics () =
  (* With every flip-flop scanned, the partial pipeline's final coverage
     must match an independent full-scan evaluation of its own tests. *)
  let c, prepared, chain, r = run_at 1.0 in
  let full_eval =
    Bitvec.inter
      (Asc_scan.Tset.coverage c r.final_tests ~faults:prepared.faults)
      prepared.targets
  in
  Alcotest.(check bool) "3v coverage = 2v coverage under full chain" true
    (Bitvec.equal r.final_detected full_eval);
  Alcotest.(check int) "cycles match the full model"
    (Asc_scan.Time_model.cycles_of_tests c r.final_tests)
    (Partial.cycles chain r.final_tests)

let test_partial_runs_and_reports () =
  let c, prepared, chain, r = run_at 0.5 in
  ignore c;
  Alcotest.(check int) "half the flip-flops scanned" 7 (Partial.n_scanned chain);
  Alcotest.(check bool) "some coverage" true (Bitvec.count r.final_detected > 0);
  Alcotest.(check bool) "phase 4 never hurts" true (r.cycles_final <= r.cycles_initial);
  (* The reported coverage is conservative: no more than targets. *)
  Alcotest.(check bool) "within targets" true
    (Bitvec.subset r.final_detected prepared.targets);
  (* tau_seq's coverage is part of the final coverage. *)
  Alcotest.(check bool) "tau_seq contributes" true
    (Bitvec.subset r.f_seq r.final_detected)

let test_partial_cheaper_less_covering () =
  let _, _, _, full = run_at 1.0 in
  let _, _, _, half = run_at 0.5 in
  Alcotest.(check bool) "shorter chain, fewer cycles" true
    (half.cycles_final < full.cycles_final);
  Alcotest.(check bool) "shorter chain, no more coverage" true
    (Bitvec.count half.final_detected <= Bitvec.count full.final_detected)

let test_partial_beats_reused_full_scan_tests () =
  (* The point of adapting the procedure: tests *generated for* the
     partial chain should cover at least as much as the full-scan tests
     re-evaluated under the same chain. *)
  let c, prepared, chain, half = run_at 0.5 in
  let full = Pipeline.run ~config prepared in
  let reused =
    Bitvec.inter
      (Partial.coverage c chain full.final_tests ~faults:prepared.faults)
      prepared.targets
  in
  Alcotest.(check bool) "adapted >= reused" true
    (Bitvec.count half.final_detected >= Bitvec.count reused)

let suite =
  [
    ( "partial-pipeline",
      [
        Alcotest.test_case "full chain = full scan" `Quick
          test_full_chain_equivalent_semantics;
        Alcotest.test_case "partial runs and reports" `Quick test_partial_runs_and_reports;
        Alcotest.test_case "cheaper, less covering" `Quick
          test_partial_cheaper_less_covering;
        Alcotest.test_case "adapted beats reused tests" `Quick
          test_partial_beats_reused_full_scan_tests;
      ] );
  ]
