(* Small-surface unit tests: exact error behaviour, golden formats, and
   API corner cases not covered by the larger suites. *)

open Asc_util
module Gate = Asc_netlist.Gate
module Builder = Asc_netlist.Builder

(* Exact VCD golden for a one-gate circuit: locks the format. *)
let test_vcd_golden () =
  let b = Builder.create "g1" in
  let a = Builder.add_input b "a" in
  let g = Builder.add_gate b Gate.Not "y" [ a ] in
  Builder.add_output b g;
  let c = Builder.finalize b in
  let vcd = Asc_sim.Vcd.of_scan_test c ~si:[||] ~seq:[| [| false |]; [| true |] |] in
  let expected =
    "$version asc waveform dump $end\n\
     $timescale 1ns $end\n\
     $scope module g1 $end\n\
     $var wire 1 ! clock $end\n\
     $var wire 1 \" a $end\n\
     $var wire 1 % y $end\n\
     $upscope $end\n\
     $enddefinitions $end\n\
     #0\n1!\n0\"\n1%\n#1\n0!\n#2\n1!\n1\"\n0%\n#3\n0!\n#4\n"
  in
  Alcotest.(check string) "vcd golden" expected vcd

let test_gate_controlling_values () =
  let check kind expected =
    Alcotest.(check bool) (Gate.to_string kind) true
      (Gate.controlling_value kind = expected)
  in
  check Gate.And (Some false);
  check Gate.Nand (Some false);
  check Gate.Or (Some true);
  check Gate.Nor (Some true);
  check Gate.Xor None;
  check Gate.Not None;
  check Gate.Buf None

let test_rng_errors () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0));
  Alcotest.check_raises "weighted all zero"
    (Invalid_argument "Rng.weighted: non-positive total weight") (fun () ->
      ignore (Rng.weighted rng [| 0; 0 |]));
  Alcotest.check_raises "word too wide" (Invalid_argument "Rng.word: width out of range")
    (fun () -> ignore (Rng.word rng ~width:63))

let test_time_model_errors () =
  Alcotest.check_raises "empty stats"
    (Invalid_argument "Time_model.length_stats: empty test set") (fun () ->
      ignore (Asc_scan.Time_model.length_stats [||]));
  Alcotest.check_raises "zero chains"
    (Invalid_argument "Time_model.cycles_multi_chain") (fun () ->
      ignore (Asc_scan.Time_model.cycles_multi_chain ~n_sv:4 ~chains:0 [ 1 ]))

let test_bitvec_init_of_list_agree () =
  let n = 130 in
  let pred i = i mod 7 = 3 in
  let a = Bitvec.init n pred in
  let b = Bitvec.of_list n (List.filter pred (List.init n Fun.id)) in
  Alcotest.(check bool) "init = of_list" true (Bitvec.equal a b)

let test_bitmat_copy_independent () =
  let m = Bitmat.create 3 10 in
  Bitmat.set m 1 4;
  let m' = Bitmat.copy m in
  Bitmat.set m' 2 7;
  Alcotest.(check bool) "original untouched" false (Bitmat.get m 2 7);
  Alcotest.(check bool) "copy has both" true (Bitmat.get m' 1 4 && Bitmat.get m' 2 7)

let test_seq_tgen_tiny_budget () =
  let c = Asc_circuits.S27.circuit () in
  let faults = Asc_fault.Collapse.reps (Asc_fault.Collapse.run c) in
  let r = Asc_atpg.Seq_tgen.generate ~max_length:3 c ~faults ~rng:(Rng.create 2) in
  Alcotest.(check bool) "respects tiny budget" true
    (Array.length r.seq >= 1 && Array.length r.seq <= 3)

let test_transfer_zero_pairs_is_plain_combine () =
  let c = Asc_circuits.S27.circuit () in
  let faults = Asc_fault.Collapse.reps (Asc_fault.Collapse.run c) in
  let rng = Rng.create 3 in
  let tests =
    Array.init 5 (fun _ ->
        Asc_scan.Scan_test.create ~si:(Rng.bool_array rng 3)
          ~seq:[| Rng.bool_array rng 4 |])
  in
  let targets = Asc_scan.Tset.coverage c tests ~faults in
  let plain = Asc_compact.Combine.run c tests ~faults ~targets in
  let tr = Asc_compact.Transfer.run ~max_pairs:0 c tests ~faults ~targets ~rng in
  Alcotest.(check int) "no transfers attempted" 0 tr.transfers;
  Alcotest.(check int) "same test count as plain" (Array.length plain.tests)
    (Array.length tr.tests)

let test_profile_defaults () =
  let p = Asc_circuits.Profile.make "x" 1 1 1 10 ~t0_budget:5 in
  Alcotest.(check (float 1e-9)) "default init_frac" 0.8 p.init_frac;
  Alcotest.(check bool) "default unscaled" false p.scaled

let test_fault_to_string () =
  let c = Asc_circuits.S27.circuit () in
  match Asc_netlist.Circuit.find_signal c "G10" with
  | None -> Alcotest.fail "G10 missing"
  | Some g ->
      Alcotest.(check string) "output fault" "G10/sa1"
        (Asc_fault.Fault.to_string c (Asc_fault.Fault.output g true));
      Alcotest.(check string) "pin fault" "G10.in1/sa0"
        (Asc_fault.Fault.to_string c (Asc_fault.Fault.input g 1 false))

let suite =
  [
    ( "small-units",
      [
        Alcotest.test_case "vcd golden" `Quick test_vcd_golden;
        Alcotest.test_case "controlling values" `Quick test_gate_controlling_values;
        Alcotest.test_case "rng errors" `Quick test_rng_errors;
        Alcotest.test_case "time model errors" `Quick test_time_model_errors;
        Alcotest.test_case "bitvec init/of_list" `Quick test_bitvec_init_of_list_agree;
        Alcotest.test_case "bitmat copy" `Quick test_bitmat_copy_independent;
        Alcotest.test_case "seq_tgen tiny budget" `Quick test_seq_tgen_tiny_budget;
        Alcotest.test_case "transfer zero pairs" `Quick
          test_transfer_zero_pairs_is_plain_combine;
        Alcotest.test_case "profile defaults" `Quick test_profile_defaults;
        Alcotest.test_case "fault to_string" `Quick test_fault_to_string;
      ] );
  ]
