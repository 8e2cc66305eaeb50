(* Metamorphic properties: transformations of the inputs with known
   effects on the outputs.  These catch bookkeeping bugs that point tests
   miss, because they compare two full runs of the machinery. *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Scan_test = Asc_scan.Scan_test
module Collapse = Asc_fault.Collapse

let qtest = QCheck_alcotest.to_alcotest

let random_circuit seed =
  Asc_circuits.Profile.make "mm" 4 3 5 45 ~t0_budget:10
  |> Asc_circuits.Generator.generate ~seed

let random_tests c rng n =
  Array.init n (fun _ ->
      Scan_test.create
        ~si:(Rng.bool_array rng (Circuit.n_dffs c))
        ~seq:
          (Array.init (1 + Rng.int rng 3) (fun _ ->
               Rng.bool_array rng (Circuit.n_inputs c))))

(* Appending a test never lowers coverage and never lowers any per-fault
   detection count. *)
let prop_append_monotone =
  QCheck.Test.make ~name:"appending a test is monotone" ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = random_circuit seed in
      let faults = Collapse.reps (Collapse.run c) in
      let rng = Rng.create (seed + 111) in
      let tests = random_tests c rng 5 in
      let extra = random_tests c rng 1 in
      let before = Asc_scan.Tset.coverage c tests ~faults in
      let after = Asc_scan.Tset.coverage c (Array.append tests extra) ~faults in
      let counts_before = Asc_scan.Tset.detection_counts c tests ~faults in
      let counts_after =
        Asc_scan.Tset.detection_counts c (Array.append tests extra) ~faults
      in
      Bitvec.subset before after
      && Array.for_all2 (fun a b -> b >= a) counts_before counts_after)

(* Reordering a test set changes neither coverage nor cycles. *)
let prop_permutation_invariant =
  QCheck.Test.make ~name:"test-set order does not change coverage or cycles" ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = random_circuit seed in
      let faults = Collapse.reps (Collapse.run c) in
      let rng = Rng.create (seed + 112) in
      let tests = random_tests c rng 6 in
      let shuffled = Array.copy tests in
      Rng.shuffle rng shuffled;
      Bitvec.equal
        (Asc_scan.Tset.coverage c tests ~faults)
        (Asc_scan.Tset.coverage c shuffled ~faults)
      && Asc_scan.Time_model.cycles_of_tests c tests
         = Asc_scan.Time_model.cycles_of_tests c shuffled)

(* Extending a scan test's sequence never loses PO-detected faults (the
   prefix is unchanged); only scan-out-detected ones may decay. *)
let prop_extension_keeps_po_detections =
  QCheck.Test.make ~name:"extending a test keeps PO detections" ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = random_circuit seed in
      let faults = Collapse.reps (Collapse.run c) in
      let rng = Rng.create (seed + 113) in
      let si = Rng.bool_array rng (Circuit.n_dffs c) in
      let seq = Array.init 5 (fun _ -> Rng.bool_array rng (Circuit.n_inputs c)) in
      let subset = Array.init (Array.length faults) (fun i -> i) in
      let prof = Asc_fault.Seq_fsim.profile c ~si ~seq ~faults ~subset in
      let longer =
        Array.append seq
          (Array.init 3 (fun _ -> Rng.bool_array rng (Circuit.n_inputs c)))
      in
      let det_longer = Asc_fault.Seq_fsim.detect c ~si ~seq:longer ~faults in
      let ok = ref true in
      Array.iteri
        (fun k fi ->
          if prof.po_time.(k) < 5 && not (Bitvec.get det_longer fi) then ok := false)
        subset;
      !ok)

(* A fault-free "defect" produces an all-pass observation, and diagnosis
   then ranks genuinely-undetected faults (empty signatures) at distance
   zero. *)
let prop_all_pass_observation =
  QCheck.Test.make ~name:"all-pass observation matches undetected faults" ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = random_circuit seed in
      let faults = Collapse.reps (Collapse.run c) in
      let rng = Rng.create (seed + 114) in
      let tests = random_tests c rng 5 in
      let dict = Asc_diag.Diag.build c tests ~faults in
      let observed = Bitvec.create (Array.length tests) in
      let matches = Asc_diag.Diag.perfect_matches dict ~observed in
      let coverage = Asc_scan.Tset.coverage c tests ~faults in
      List.for_all (fun fi -> not (Bitvec.get coverage fi)) matches
      && List.length matches = Array.length faults - Bitvec.count coverage)

(* Injecting the same fault twice (same overrides listed twice) changes
   nothing: override application is idempotent. *)
let prop_override_idempotent =
  QCheck.Test.make ~name:"duplicate overrides are idempotent" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = random_circuit seed in
      let rng = Rng.create (seed + 115) in
      let g = Rng.int rng (Circuit.n_gates c) in
      let stuck = Rng.bool rng in
      let once = [ Asc_sim.Override.output ~gate:g ~stuck ~lanes:Word.mask ] in
      let twice = once @ once in
      (* PO and captured-state differences over three cycles. *)
      let run ovr =
        let k = Asc_sim.Kernel.create c in
        let gw = Array.make (Circuit.n_gates c) 0 in
        let state =
          Array.map Word.splat (Rng.bool_array (Rng.create seed) (Circuit.n_dffs c))
        in
        Asc_sim.Kernel.set_overrides k ovr;
        Asc_sim.Kernel.reset k;
        List.map
          (fun cyc ->
            Asc_sim.Kernel.good_cycle k ~state ~v:gw
              ~pi_words:
                (Array.init (Circuit.n_inputs c) (fun i -> (i * 77 * cyc) land Word.mask));
            Asc_sim.Kernel.cycle k ~gw;
            let po = Asc_sim.Kernel.po_diff k in
            Asc_sim.Kernel.finish_cycle k ~gw;
            Asc_sim.Kernel.good_capture k ~v:gw ~state;
            (po, Array.init (Circuit.n_dffs c) (Asc_sim.Kernel.state_diff k)))
          [ 1; 2; 3 ]
      in
      run once = run twice)

let suite =
  [
    ( "metamorphic",
      [
        qtest prop_append_monotone;
        qtest prop_permutation_invariant;
        qtest prop_extension_keeps_po_detections;
        qtest prop_all_pass_observation;
        qtest prop_override_idempotent;
      ] );
  ]
