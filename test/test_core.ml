(* Tests for Asc_core: Phase 1's selection rules (including brute-force
   cross-checks of the scan-out choice), the end-to-end pipeline
   invariants, and the static baseline. *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Scan_test = Asc_scan.Scan_test
module Collapse = Asc_fault.Collapse
module Pipeline = Asc_core.Pipeline
module Phase1 = Asc_core.Phase1

let qtest = QCheck_alcotest.to_alcotest

let small_circuit seed =
  Asc_circuits.Profile.make "core" 4 3 6 50 ~t0_budget:30
  |> Asc_circuits.Generator.generate ~seed

let setup seed =
  let c = small_circuit seed in
  let faults = Collapse.reps (Collapse.run c) in
  let targets = Bitvec.create ~default:true (Array.length faults) in
  let rng = Rng.create (seed + 41) in
  let t0 = Asc_atpg.Random_tgen.generate rng ~n_pis:(Circuit.n_inputs c) ~len:12 in
  let candidates =
    Array.init 6 (fun _ ->
        Asc_sim.Pattern.random rng ~n_pis:(Circuit.n_inputs c) ~n_ffs:(Circuit.n_dffs c))
  in
  (c, faults, targets, t0, candidates)

(* --- Phase 1 scan-in selection ----------------------------------------- *)

let prop_scan_in_maximises =
  QCheck.Test.make ~name:"scan-in choice maximises detections over candidates"
    ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c, faults, targets, t0, candidates = setup seed in
      let f0 = Bitvec.inter (Asc_fault.Seq_fsim.detect_no_scan c ~seq:t0 ~faults) targets in
      let selected = Bitvec.create (Array.length candidates) in
      let choice =
        Phase1.select_scan_in c ~faults ~candidates ~t0 ~f0 ~targets ~selected
      in
      (* Brute force: count F - F0 detections per candidate. *)
      let count j =
        let det =
          Asc_fault.Seq_fsim.detect c ~si:candidates.(j).Asc_sim.Pattern.state ~seq:t0
            ~faults
        in
        Bitvec.count (Bitvec.diff (Bitvec.inter det targets) f0)
      in
      let counts = Array.init (Array.length candidates) count in
      let best = Array.fold_left max 0 counts in
      (not choice.already_selected)
      && counts.(choice.index) = best
      (* F_SI includes F0. *)
      && Bitvec.subset f0 choice.f_si)

let test_scan_in_prefers_unselected () =
  let c, faults, targets, t0, candidates = setup 7 in
  let f0 = Bitvec.create (Array.length faults) in
  let selected = Bitvec.create (Array.length candidates) in
  let first = Phase1.select_scan_in c ~faults ~candidates ~t0 ~f0 ~targets ~selected in
  Bitvec.set selected first.index;
  let second = Phase1.select_scan_in c ~faults ~candidates ~t0 ~f0 ~targets ~selected in
  if second.already_selected then
    (* Only legal when it is strictly better than every unselected one. *)
    Alcotest.(check int) "repeat is the same best" first.index second.index
  else Alcotest.(check bool) "fresh pick" true (second.index <> first.index)

(* --- Phase 1 scan-out selection ----------------------------------------- *)

(* The chosen u is the *minimum* u whose truncated test keeps all of F_SI
   — cross-checked against brute-force truncation. *)
let prop_scan_out_minimal =
  QCheck.Test.make ~name:"scan-out time is the paper's minimal i0" ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c, faults, targets, t0, candidates = setup seed in
      let si = candidates.(0).Asc_sim.Pattern.state in
      let det = Bitvec.inter (Asc_fault.Seq_fsim.detect c ~si ~seq:t0 ~faults) targets in
      let choice = Phase1.select_scan_out c ~faults ~si ~t0 ~f_si:det ~targets in
      let keeps u =
        let truncated = Array.sub t0 0 (u + 1) in
        let d = Asc_fault.Seq_fsim.detect c ~si ~seq:truncated ~faults in
        Bitvec.subset det d
      in
      keeps choice.u
      && (choice.u = 0 || not (keeps (choice.u - 1)))
      (* And F_SO really is the truncated test's full detection set. *)
      && Bitvec.equal choice.f_so
           (Bitvec.inter
              (Asc_fault.Seq_fsim.detect c ~si ~seq:(Array.sub t0 0 (choice.u + 1)) ~faults)
              targets))

(* --- End-to-end pipeline ------------------------------------------------ *)

let run_s298 =
  (* One shared full run on the s298 stand-in (directed T0). *)
  lazy
    (let c = Asc_circuits.Registry.get "s298" in
     let config = Result.get_ok (Asc_core.Experiments.config_for ~seed:1 ~t0:"directed" "s298") in
     let prepared = Pipeline.prepare ~config c in
     (c, prepared, Pipeline.run ~config prepared))

let test_pipeline_coverage_monotone () =
  let _, prepared, r = Lazy.force run_s298 in
  (* F0 <= |F_seq| <= |final|. *)
  Alcotest.(check bool) "F0 <= Fseq" true (r.f0_count <= Bitvec.count r.f_seq);
  Alcotest.(check bool) "Fseq <= final" true
    (Bitvec.count r.f_seq <= Bitvec.count r.final_detected);
  (* Final coverage reaches every target C can detect. *)
  let reachable =
    Bitvec.union r.f_seq (Bitvec.inter prepared.comb_detected prepared.targets)
  in
  Alcotest.(check bool) "final covers reachable" true
    (Bitvec.subset reachable r.final_detected)

let test_pipeline_cycles () =
  let c, _, r = Lazy.force run_s298 in
  Alcotest.(check bool) "phase 4 never hurts" true (r.cycles_final <= r.cycles_initial);
  (* The reported cycle counts match the model. *)
  Alcotest.(check int) "initial cycles"
    (Asc_scan.Time_model.cycles_of_tests c r.initial_tests)
    r.cycles_initial;
  Alcotest.(check int) "final cycles"
    (Asc_scan.Time_model.cycles_of_tests c r.final_tests)
    r.cycles_final;
  (* tau_seq leads the initial set; added tests have length one. *)
  Alcotest.(check bool) "tau_seq first" true
    (Scan_test.equal r.initial_tests.(0) r.tau_seq);
  Array.iter
    (fun t -> Alcotest.(check int) "added length 1" 1 (Scan_test.length t))
    r.added

let test_pipeline_fseq_is_tau_seq_coverage () =
  let c, prepared, r = Lazy.force run_s298 in
  let det =
    Bitvec.inter (Scan_test.detect c r.tau_seq ~faults:prepared.faults) prepared.targets
  in
  Alcotest.(check bool) "f_seq consistent" true (Bitvec.equal det r.f_seq)

let test_pipeline_deterministic () =
  let c = Asc_circuits.Registry.get "s344" in
  let config = Result.get_ok (Asc_core.Experiments.config_for ~seed:1 ~t0:"directed" "s344") in
  let p1 = Pipeline.prepare ~config c in
  let r1 = Pipeline.run ~config p1 in
  let p2 = Pipeline.prepare ~config c in
  let r2 = Pipeline.run ~config p2 in
  Alcotest.(check int) "same cycles" r1.cycles_final r2.cycles_final;
  Alcotest.(check int) "same added" (Array.length r1.added) (Array.length r2.added);
  Alcotest.(check bool) "same tau_seq" true (Scan_test.equal r1.tau_seq r2.tau_seq)

let test_static_baseline () =
  let _, prepared, _ = Lazy.force run_s298 in
  let b = Asc_core.Baseline_static.run prepared in
  Alcotest.(check int) "init tests = |C|" (Array.length prepared.comb_tests)
    (Array.length b.initial_tests);
  Alcotest.(check bool) "compaction helps or neutral" true
    (b.cycles_final <= b.cycles_initial);
  (* Coverage of the compacted set still includes everything C detected. *)
  let c = prepared.circuit in
  let cov =
    Bitvec.inter
      (Asc_scan.Tset.coverage c b.final_tests ~faults:prepared.faults)
      prepared.targets
  in
  Alcotest.(check bool) "coverage preserved" true
    (Bitvec.subset (Bitvec.inter prepared.comb_detected prepared.targets) cov)

(* N_cyc regression: recompute the paper's Section-2 cost formula
   (k + 1) * N_SV + sum_j L(T_j) directly from the final test sets —
   without Time_model — and check it against the figures the pipeline
   and the baseline report, on two circuits. *)
let n_cyc_by_hand c (tests : Scan_test.t array) =
  let k = Array.length tests in
  let n_sv = Circuit.n_dffs c in
  if k = 0 then 0
  else ((k + 1) * n_sv) + Array.fold_left (fun acc t -> acc + Scan_test.length t) 0 tests

let test_n_cyc_regression () =
  (* s298: pipeline initial/final and the static baseline. *)
  let c, prepared, r = Lazy.force run_s298 in
  Alcotest.(check int) "s298 initial N_cyc" (n_cyc_by_hand c r.initial_tests)
    r.cycles_initial;
  Alcotest.(check int) "s298 final N_cyc" (n_cyc_by_hand c r.final_tests) r.cycles_final;
  let b = Asc_core.Baseline_static.run prepared in
  Alcotest.(check int) "s298 baseline initial N_cyc"
    (n_cyc_by_hand c b.initial_tests) b.cycles_initial;
  Alcotest.(check int) "s298 baseline final N_cyc" (n_cyc_by_hand c b.final_tests)
    b.cycles_final;
  (* s344: a second, independent run. *)
  let c2 = Asc_circuits.Registry.get "s344" in
  let config = Result.get_ok (Asc_core.Experiments.config_for ~seed:1 ~t0:"directed" "s344") in
  let p2 = Pipeline.prepare ~config c2 in
  let r2 = Pipeline.run ~config p2 in
  Alcotest.(check int) "s344 initial N_cyc" (n_cyc_by_hand c2 r2.initial_tests)
    r2.cycles_initial;
  Alcotest.(check int) "s344 final N_cyc" (n_cyc_by_hand c2 r2.final_tests)
    r2.cycles_final

let test_pipeline_random_t0 () =
  let c = Asc_circuits.Registry.get "s344" in
  let config = { Pipeline.default_config with t0_source = Pipeline.Random_seq 200 } in
  let prepared = Pipeline.prepare ~config c in
  let r = Pipeline.run ~config prepared in
  Alcotest.(check int) "T0 length" 200 r.t0_length;
  Alcotest.(check bool) "tau_seq no longer than T0" true
    (Scan_test.length r.tau_seq <= 200);
  Alcotest.(check bool) "cycles sane" true (r.cycles_final <= r.cycles_initial)

let suite =
  [
    ( "core",
      [
        qtest prop_scan_in_maximises;
        Alcotest.test_case "scan-in prefers unselected" `Quick test_scan_in_prefers_unselected;
        qtest prop_scan_out_minimal;
        Alcotest.test_case "pipeline coverage monotone" `Quick test_pipeline_coverage_monotone;
        Alcotest.test_case "pipeline cycle model" `Quick test_pipeline_cycles;
        Alcotest.test_case "f_seq = tau_seq coverage" `Quick test_pipeline_fseq_is_tau_seq_coverage;
        Alcotest.test_case "pipeline deterministic" `Quick test_pipeline_deterministic;
        Alcotest.test_case "static baseline" `Quick test_static_baseline;
        Alcotest.test_case "N_cyc formula regression" `Quick test_n_cyc_regression;
        Alcotest.test_case "pipeline random T0" `Quick test_pipeline_random_t0;
      ] );
  ]
