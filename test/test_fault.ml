(* Tests for Asc_fault: the fault universe, equivalence collapsing, and
   both fault simulators cross-checked against naive per-fault simulation
   (Fault_oracle). *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Fault = Asc_fault.Fault
module Collapse = Asc_fault.Collapse

let qtest = QCheck_alcotest.to_alcotest

let small_circuit seed =
  Asc_circuits.Profile.make "fs" 4 3 5 45 ~t0_budget:10
  |> Asc_circuits.Generator.generate ~seed

(* --- Universe and collapsing ----------------------------------------- *)

let test_universe_s27 () =
  let c = Asc_circuits.S27.circuit () in
  let u = Fault.universe c in
  (* 2 output faults per gate + 2 per input pin. *)
  let pins =
    Array.to_list (Array.init (Circuit.n_gates c) (Circuit.fanins c))
    |> List.map Array.length |> List.fold_left ( + ) 0
  in
  Alcotest.(check int) "universe size" ((2 * Circuit.n_gates c) + (2 * pins))
    (Array.length u);
  let col = Collapse.run c in
  (* The standard collapsed count for s27 is 32. *)
  Alcotest.(check int) "collapsed classes" 32 (Collapse.n_classes col)

(* Equivalence soundness: every fault behaves exactly like its class
   representative on random scan tests. *)
let prop_collapse_sound =
  QCheck.Test.make ~name:"collapsed faults are behaviourally equivalent" ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = small_circuit seed in
      let col = Collapse.run c in
      let u = Collapse.universe col in
      let reps = Collapse.reps col in
      let rng = Rng.create (seed + 17) in
      let ok = ref true in
      for _ = 1 to 3 do
        let si = Rng.bool_array rng (Circuit.n_dffs c) in
        let seq = Array.init 4 (fun _ -> Rng.bool_array rng (Circuit.n_inputs c)) in
        let good = Fault_oracle.good_run c ~si ~seq in
        let detects f = Fault_oracle.(detected (simulate c good f)) in
        Array.iteri
          (fun i f ->
            if detects f <> detects reps.(Collapse.rep_of col i) then ok := false)
          u
      done;
      !ok)

(* --- Combinational fault simulation ---------------------------------- *)

let prop_comb_fsim_matches_naive =
  QCheck.Test.make ~name:"Comb_fsim matches naive detection" ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = small_circuit seed in
      let faults = Collapse.reps (Collapse.run c) in
      let rng = Rng.create (seed + 3) in
      let patterns =
        Array.init 70 (fun _ ->
            Asc_sim.Pattern.random rng ~n_pis:(Circuit.n_inputs c)
              ~n_ffs:(Circuit.n_dffs c))
      in
      let mat = Asc_fault.Comb_fsim.detect_matrix c ~patterns ~faults in
      let ok = ref true in
      Array.iteri
        (fun pi (p : Asc_sim.Pattern.t) ->
          Array.iteri
            (fun fi f ->
              let expected = Fault_oracle.detects c f ~si:p.state ~seq:[| p.pis |] in
              if Bitmat.get mat pi fi <> expected then ok := false)
            faults)
        patterns;
      !ok)

(* --- Sequential fault simulation -------------------------------------- *)

let prop_seq_detect_matches_naive =
  QCheck.Test.make ~name:"Seq_fsim.detect matches naive detection" ~count:12
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = small_circuit seed in
      let faults = Collapse.reps (Collapse.run c) in
      let rng = Rng.create (seed + 5) in
      let si = Rng.bool_array rng (Circuit.n_dffs c) in
      let seq = Array.init 7 (fun _ -> Rng.bool_array rng (Circuit.n_inputs c)) in
      let det = Asc_fault.Seq_fsim.detect c ~si ~seq ~faults in
      let ok = ref true in
      Array.iteri
        (fun fi f ->
          if Bitvec.get det fi <> Fault_oracle.detects c f ~si ~seq then ok := false)
        faults;
      !ok)

(* The profile is consistent with truncated-test detection: for every
   scan-out time u, the faults marked detected-at-u by the profile are
   exactly those Seq_fsim.detect reports on the truncated test. *)
let prop_profile_matches_truncation =
  QCheck.Test.make ~name:"profile agrees with truncated detection" ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = small_circuit seed in
      let faults = Collapse.reps (Collapse.run c) in
      let rng = Rng.create (seed + 7) in
      let si = Rng.bool_array rng (Circuit.n_dffs c) in
      let len = 6 in
      let seq = Array.init len (fun _ -> Rng.bool_array rng (Circuit.n_inputs c)) in
      let subset = Array.init (Array.length faults) (fun i -> i) in
      let prof = Asc_fault.Seq_fsim.profile c ~si ~seq ~faults ~subset in
      let ok = ref true in
      for u = 0 to len - 1 do
        let at_u = Asc_fault.Seq_fsim.profile_detected_at prof ~u in
        let truncated = Array.sub seq 0 (u + 1) in
        let det = Asc_fault.Seq_fsim.detect c ~si ~seq:truncated ~faults in
        Array.iteri
          (fun k fi -> if Bitvec.get at_u k <> Bitvec.get det fi then ok := false)
          subset
      done;
      !ok)

let prop_candidate_detections_match =
  QCheck.Test.make ~name:"candidate matrix matches per-candidate detection" ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = small_circuit seed in
      let faults = Collapse.reps (Collapse.run c) in
      let rng = Rng.create (seed + 9) in
      let sis = Array.init 5 (fun _ -> Rng.bool_array rng (Circuit.n_dffs c)) in
      let seq = Array.init 5 (fun _ -> Rng.bool_array rng (Circuit.n_inputs c)) in
      let subset = Array.init (Array.length faults) (fun i -> i) in
      let mat = Asc_fault.Seq_fsim.candidate_detections c ~sis ~seq ~faults ~subset in
      let ok = ref true in
      Array.iteri
        (fun ci si ->
          let det = Asc_fault.Seq_fsim.detect c ~si ~seq ~faults in
          Array.iteri
            (fun fi _ -> if Bitmat.get mat ci fi <> Bitvec.get det fi then ok := false)
            faults)
        sis;
      !ok)

let prop_verify_required_consistent =
  QCheck.Test.make ~name:"verify_required agrees with detect" ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = small_circuit seed in
      let faults = Collapse.reps (Collapse.run c) in
      let rng = Rng.create (seed + 11) in
      let si = Rng.bool_array rng (Circuit.n_dffs c) in
      let seq = Array.init 5 (fun _ -> Rng.bool_array rng (Circuit.n_inputs c)) in
      let det = Asc_fault.Seq_fsim.detect c ~si ~seq ~faults in
      let detected = Array.of_list (Bitvec.to_list det) in
      let all = Array.init (Array.length faults) (fun i -> i) in
      Asc_fault.Seq_fsim.verify_required c ~si ~seq ~faults ~subset:detected
      && Asc_fault.Seq_fsim.verify_required c ~si ~seq ~faults ~subset:all
         = (Bitvec.count det = Array.length faults))

(* --- 3-valued no-scan detection --------------------------------------- *)

(* Soundness: a fault reported detected without scan must be detected by
   the same sequence from every concrete initial state. *)
let prop_no_scan_sound =
  QCheck.Test.make ~name:"detect_no_scan sound wrt concrete initial states" ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = small_circuit seed in
      let faults = Collapse.reps (Collapse.run c) in
      let rng = Rng.create (seed + 13) in
      let seq = Array.init 8 (fun _ -> Rng.bool_array rng (Circuit.n_inputs c)) in
      let det = Asc_fault.Seq_fsim.detect_no_scan c ~seq ~faults in
      let ok = ref true in
      for _ = 1 to 4 do
        let si = Rng.bool_array rng (Circuit.n_dffs c) in
        (* PO-only detection from a concrete state: drop the final-state
           term by checking the naive first PO difference. *)
        let good = Fault_oracle.good_run c ~si ~seq in
        Bitvec.iter_set
          (fun fi ->
            if (Fault_oracle.simulate c good faults.(fi)).po_time = max_int then ok := false)
          det
      done;
      !ok)

(* --- Incremental 3-valued co-simulation ------------------------------- *)

let prop_inc3_matches_batch =
  QCheck.Test.make ~name:"inc3 incremental = one-shot no-scan detection" ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = small_circuit seed in
      let faults = Collapse.reps (Collapse.run c) in
      let rng = Rng.create (seed + 15) in
      let seq = Array.init 12 (fun _ -> Rng.bool_array rng (Circuit.n_inputs c)) in
      let inc = Asc_fault.Seq_fsim.inc3_create c faults in
      (* Commit in uneven chunks. *)
      let (_ : int) = Asc_fault.Seq_fsim.inc3_commit inc (Array.sub seq 0 5) in
      let (_ : int) = Asc_fault.Seq_fsim.inc3_commit inc (Array.sub seq 5 3) in
      let (_ : int) = Asc_fault.Seq_fsim.inc3_commit inc (Array.sub seq 8 4) in
      let batch = Asc_fault.Seq_fsim.detect_no_scan c ~seq ~faults in
      Bitvec.equal (Asc_fault.Seq_fsim.inc3_detected inc) batch)

let prop_inc3_peek_no_commit =
  QCheck.Test.make ~name:"inc3_peek does not change state" ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = small_circuit seed in
      let faults = Collapse.reps (Collapse.run c) in
      let rng = Rng.create (seed + 16) in
      let inc = Asc_fault.Seq_fsim.inc3_create c faults in
      let seg () = Array.init 4 (fun _ -> Rng.bool_array rng (Circuit.n_inputs c)) in
      let s1 = seg () and s2 = seg () in
      let (_ : int) = Asc_fault.Seq_fsim.inc3_commit inc s1 in
      let p1 = Asc_fault.Seq_fsim.inc3_peek inc s2 in
      let p2 = Asc_fault.Seq_fsim.inc3_peek inc s2 in
      let after_commit = Asc_fault.Seq_fsim.inc3_commit inc s2 in
      p1 = p2 && p1 = after_commit)

let suite =
  [
    ( "fault",
      [
        Alcotest.test_case "s27 universe and collapse" `Quick test_universe_s27;
        qtest prop_collapse_sound;
        qtest prop_comb_fsim_matches_naive;
        qtest prop_seq_detect_matches_naive;
        qtest prop_profile_matches_truncation;
        qtest prop_candidate_detections_match;
        qtest prop_verify_required_consistent;
        qtest prop_no_scan_sound;
        qtest prop_inc3_matches_batch;
        qtest prop_inc3_peek_no_commit;
      ] );
  ]
