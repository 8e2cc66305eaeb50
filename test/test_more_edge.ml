(* Additional deterministic edge coverage: 3-valued source injection, the
   transition-fault DFF launch path, registry/profile metadata. *)

open Asc_util
module Gate = Asc_netlist.Gate
module Builder = Asc_netlist.Builder
module Circuit = Asc_netlist.Circuit
module Scan_test = Asc_scan.Scan_test

(* A stuck PI in selected lanes of the 3-valued kernel. *)
let test_kernel3_source_override () =
  let b = Builder.create "src3" in
  let a = Builder.add_input b "a" in
  let g = Builder.add_gate b Gate.Not "g" [ a ] in
  Builder.add_output b g;
  let c = Builder.finalize b in
  let lanes = 0b110 in
  let k = Asc_sim.Kernel3.create c in
  let gb = Bytes.make (Circuit.n_gates c) Asc_sim.Kernel3.x in
  (* Drive a = 0 everywhere: the good NOT a is 1; overridden lanes see
     a = 1, so NOT a = 0 there — a complementary binary value. *)
  Asc_sim.Kernel3.good_cycle k ~pis:[| false |] ~state:Bytes.empty ~gb;
  Alcotest.(check char) "good value" Asc_sim.Kernel3.one (Bytes.get gb g);
  Asc_sim.Kernel3.set_overrides k [ Asc_sim.Override.output ~gate:a ~stuck:true ~lanes ];
  Asc_sim.Kernel3.reset k;
  Asc_sim.Kernel3.cycle k ~gb;
  Alcotest.(check int) "detected lanes" lanes (Asc_sim.Kernel3.po_detect k ~gb land 0b111)

(* Slow-to-rise on a flip-flop output: the launch comes from the state
   update, not from a PI change. *)
let test_tfault_dff_launch () =
  let b = Builder.create "dfftf" in
  let d = Builder.add_input b "d" in
  let q = Builder.add_dff b "q" in
  Builder.set_dff_input b q d;
  let out = Builder.add_gate b Gate.Buf "out" [ q ] in
  Builder.add_output b out;
  let c = Builder.finalize b in
  let str_q = { Asc_tfault.Tfault.gate = q; rising = true } in
  let stf_q = { Asc_tfault.Tfault.gate = q; rising = false } in
  (* Scan in q = 0; d = 1 at cycle 0 so q rises at cycle 1: a slow-to-rise
     q shows 0 at cycle 1 while the good machine shows 1. *)
  let test = Scan_test.create ~si:[| false |] ~seq:[| [| true |]; [| false |] |] in
  let det = Asc_tfault.Tfault.detect c test ~faults:[| str_q; stf_q |] in
  Alcotest.(check bool) "slow-to-rise q detected" true (Bitvec.get det 0);
  (* A falling launch (q: 1 -> 0) with the mirrored test. *)
  let test_fall = Scan_test.create ~si:[| true |] ~seq:[| [| false |]; [| true |] |] in
  let det_fall = Asc_tfault.Tfault.detect c test_fall ~faults:[| str_q; stf_q |] in
  Alcotest.(check bool) "slow-to-fall q detected" true (Bitvec.get det_fall 1)

let test_registry_metadata () =
  Alcotest.(check int) "s27 default budget" 50 (Asc_circuits.Registry.t0_budget "s27");
  Alcotest.(check int) "profile budget" 120 (Asc_circuits.Registry.t0_budget "s298");
  (* Only s35932 is a scaled stand-in. *)
  List.iter
    (fun (p : Asc_circuits.Profile.t) ->
      Alcotest.(check bool) (p.name ^ " scaled flag") (p.name = "s35932") p.scaled)
    Asc_circuits.Profile.all;
  (* init_frac models the paper's hard circuits. *)
  List.iter
    (fun name ->
      match Asc_circuits.Profile.find name with
      | Some p -> Alcotest.(check bool) (name ^ " is hard") true (p.init_frac < 0.5)
      | None -> Alcotest.fail "missing profile")
    [ "s382"; "s400"; "s526"; "b09" ]

(* Scan-test detection distributes over test-set coverage. *)
let test_coverage_is_union () =
  let c = Asc_circuits.S27.circuit () in
  let faults = Asc_fault.Collapse.reps (Asc_fault.Collapse.run c) in
  let rng = Rng.create 4 in
  let mk () =
    Scan_test.create ~si:(Rng.bool_array rng 3)
      ~seq:(Array.init 2 (fun _ -> Rng.bool_array rng 4))
  in
  let t1 = mk () and t2 = mk () and t3 = mk () in
  let union =
    Bitvec.union
      (Scan_test.detect c t1 ~faults)
      (Bitvec.union (Scan_test.detect c t2 ~faults) (Scan_test.detect c t3 ~faults))
  in
  Alcotest.(check bool) "coverage = union of detections" true
    (Bitvec.equal union (Asc_scan.Tset.coverage c [| t1; t2; t3 |] ~faults))

let suite =
  [
    ( "more-edge",
      [
        Alcotest.test_case "kernel3 source override" `Quick test_kernel3_source_override;
        Alcotest.test_case "tfault dff launch" `Quick test_tfault_dff_launch;
        Alcotest.test_case "registry metadata" `Quick test_registry_metadata;
        Alcotest.test_case "coverage is union" `Quick test_coverage_is_union;
      ] );
  ]
