(* Edge cases across the stack: constant gates, degenerate circuits, the
   incremental simulator's group compaction, wide gates. *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Gate = Asc_netlist.Gate
module Builder = Asc_netlist.Builder
module Collapse = Asc_fault.Collapse

let qtest = QCheck_alcotest.to_alcotest

(* A circuit with constant sources: y = AND(a, c1), z = OR(a, c0). *)
let with_constants () =
  let b = Builder.create "consts" in
  let a = Builder.add_input b "a" in
  let c1 = Builder.add_const b true "one" in
  let c0 = Builder.add_const b false "zero" in
  let y = Builder.add_gate b Gate.And "y" [ a; c1 ] in
  let z = Builder.add_gate b Gate.Or "z" [ a; c0 ] in
  Builder.add_output b y;
  Builder.add_output b z;
  Builder.finalize b

(* The kernel's fault-free PO words y and z of one cycle. *)
let kernel_pos c pi_words =
  let k = Asc_sim.Kernel.create c in
  let v = Array.make (Circuit.n_gates c) 0 in
  Asc_sim.Kernel.good_cycle k ~pi_words ~state:[||] ~v;
  let po i = v.((Circuit.outputs c).(i)) in
  (po 0, po 1)

let test_constants_simulate () =
  let c = with_constants () in
  let v = Asc_sim.Naive.eval_comb c ~pis:[| true |] ~state:[||] in
  Alcotest.(check bool) "y = a" true (Asc_sim.Naive.outputs_of c v).(0);
  Alcotest.(check bool) "z = a" true (Asc_sim.Naive.outputs_of c v).(1);
  Alcotest.(check (pair int int)) "words y, z = 0" (0, 0) (kernel_pos c [| 0 |]);
  Alcotest.(check (pair int int)) "words y, z = 1s" (Word.mask, Word.mask)
    (kernel_pos c [| Word.mask |])

let test_constants_podem () =
  let c = with_constants () in
  let podem = Asc_atpg.Podem.create c in
  (* The constant-1 line stuck at 1 is redundant; stuck at 0 is testable. *)
  (match Circuit.find_signal c "one" with
  | None -> Alcotest.fail "missing const"
  | Some one -> (
      (match Asc_atpg.Podem.run podem (Asc_fault.Fault.output one true) with
      | Asc_atpg.Podem.Redundant -> ()
      | _ -> Alcotest.fail "sa1 on constant-1 must be redundant");
      match Asc_atpg.Podem.run podem (Asc_fault.Fault.output one false) with
      | Asc_atpg.Podem.Test _ -> ()
      | _ -> Alcotest.fail "sa0 on constant-1 must be testable"))

let test_constants_full_pipeline () =
  let c = with_constants () in
  (* No flip-flops at all: the procedure degenerates to combinational
     testing with zero-cost scans; it must not crash. *)
  let config =
    { Asc_core.Pipeline.default_config with
      t0_source = Asc_core.Pipeline.Random_seq 8 }
  in
  let prepared = Asc_core.Pipeline.prepare ~config c in
  let r = Asc_core.Pipeline.run ~config prepared in
  Alcotest.(check bool) "covers detectable" true
    (Bitvec.count r.final_detected = Bitvec.count prepared.targets
    || Bitvec.count r.final_detected
       = Bitvec.count (Bitvec.inter prepared.comb_detected prepared.targets))

(* Wide gates (splice-appended fanins) evaluate correctly. *)
let test_wide_gate () =
  let b = Builder.create "wide" in
  let pis = Array.init 6 (fun i -> Builder.add_input b (Printf.sprintf "a%d" i)) in
  let g = Builder.add_gate b Gate.Xor "g" (Array.to_list pis) in
  Builder.add_output b g;
  let c = Builder.finalize b in
  let rng = Rng.create 3 in
  for _ = 1 to 20 do
    let input = Rng.bool_array rng 6 in
    let expected = Array.fold_left (fun acc b -> acc <> b) false input in
    let v = Asc_sim.Naive.eval_comb c ~pis:input ~state:[||] in
    Alcotest.(check bool) "naive xor6" expected (Asc_sim.Naive.outputs_of c v).(0);
    let k = Asc_sim.Kernel.create c in
    let v = Array.make (Circuit.n_gates c) 0 in
    Asc_sim.Kernel.good_cycle k ~pi_words:(Array.map Word.splat input) ~state:[||] ~v;
    Alcotest.(check int) "kernel xor6" (Word.splat expected) v.(g)
  done

(* inc3's group compaction (triggered by many commits) must not change
   results. *)
let test_inc3_compaction_consistent () =
  let c = Asc_circuits.Registry.get "s344" in
  let faults = Collapse.reps (Collapse.run c) in
  let rng = Rng.create 5 in
  let n_pis = Circuit.n_inputs c in
  let segments =
    Array.init 20 (fun _ ->
        Array.init 6 (fun _ -> Rng.bool_array rng n_pis))
  in
  let inc = Asc_fault.Seq_fsim.inc3_create c faults in
  Array.iter (fun seg -> ignore (Asc_fault.Seq_fsim.inc3_commit inc seg)) segments;
  let all = Array.concat (Array.to_list segments) in
  let batch = Asc_fault.Seq_fsim.detect_no_scan c ~seq:all ~faults in
  Alcotest.(check bool) "compaction-safe" true
    (Bitvec.equal (Asc_fault.Seq_fsim.inc3_detected inc) batch)

(* Single-PI circuits (b02/b09 profiles) run end to end. *)
let test_single_pi_profile () =
  let c = Asc_circuits.Registry.get "b02" in
  Alcotest.(check int) "one PI" 1 (Circuit.n_inputs c);
  let config =
    { Asc_core.Pipeline.default_config with
      t0_source = Asc_core.Pipeline.Directed 50 }
  in
  let prepared = Asc_core.Pipeline.prepare ~config c in
  let r = Asc_core.Pipeline.run ~config prepared in
  Alcotest.(check bool) "some coverage" true (Bitvec.count r.final_detected > 0);
  Alcotest.(check bool) "phase 4 sane" true (r.cycles_final <= r.cycles_initial)

(* Truncated detection is monotone in the scan-out time only for the
   PO-detected part; the full detection sets of nested prefixes still obey
   po-detection monotonicity. *)
let prop_prefix_po_monotone =
  QCheck.Test.make ~name:"PO detections grow with the prefix" ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let profile = Asc_circuits.Profile.make "edge" 4 3 5 40 ~t0_budget:10 in
      let c = Asc_circuits.Generator.generate ~seed profile in
      let faults = Collapse.reps (Collapse.run c) in
      let rng = Rng.create (seed + 71) in
      let si = Rng.bool_array rng (Circuit.n_dffs c) in
      let seq = Array.init 8 (fun _ -> Rng.bool_array rng (Circuit.n_inputs c)) in
      let subset = Array.init (Array.length faults) (fun i -> i) in
      let prof = Asc_fault.Seq_fsim.profile c ~si ~seq ~faults ~subset in
      (* If a fault is PO-detected at time t, every longer prefix detects
         it too (profile_detected_at must reflect that). *)
      let ok = ref true in
      Array.iteri
        (fun k _ ->
          if prof.po_time.(k) < 8 then
            for u = prof.po_time.(k) to 7 do
              if not (Bitvec.get (Asc_fault.Seq_fsim.profile_detected_at prof ~u) k)
              then ok := false
            done)
        subset;
      !ok)

let suite =
  [
    ( "edge",
      [
        Alcotest.test_case "constants simulate" `Quick test_constants_simulate;
        Alcotest.test_case "constants podem" `Quick test_constants_podem;
        Alcotest.test_case "constants pipeline" `Quick test_constants_full_pipeline;
        Alcotest.test_case "wide xor" `Quick test_wide_gate;
        Alcotest.test_case "inc3 compaction" `Quick test_inc3_compaction_consistent;
        Alcotest.test_case "single-PI profile" `Quick test_single_pi_profile;
        qtest prop_prefix_po_monotone;
      ] );
  ]
