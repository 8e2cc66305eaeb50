(* Final coverage batch: file-based IO paths, partial-scan profile
   consistency, report content checks, and T0-generator regressions on the
   hard-to-initialise stand-in. *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Scan_test = Asc_scan.Scan_test
module Collapse = Asc_fault.Collapse

let qtest = QCheck_alcotest.to_alcotest

(* File-based IO round-trips (the string paths are covered elsewhere). *)
let test_file_io_roundtrips () =
  let c = Asc_circuits.S27.circuit () in
  let rng = Rng.create 4 in
  let tests =
    Array.init 3 (fun _ ->
        Scan_test.create ~si:(Rng.bool_array rng 3)
          ~seq:(Array.init 2 (fun _ -> Rng.bool_array rng 4)))
  in
  let tset_path = Filename.temp_file "asc" ".tests" in
  Asc_scan.Tset_io.write_file tset_path c tests;
  let loaded = Asc_scan.Tset_io.check_compatible c (Asc_scan.Tset_io.read_file tset_path) in
  Sys.remove tset_path;
  Alcotest.(check bool) "tset file roundtrip" true (Array.for_all2 Scan_test.equal tests loaded);
  let vcd_path = Filename.temp_file "asc" ".vcd" in
  Asc_sim.Vcd.write_file vcd_path c ~si:tests.(0).si ~seq:tests.(0).seq;
  let ic = open_in vcd_path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove vcd_path;
  Alcotest.(check string) "vcd file = vcd string"
    (Asc_sim.Vcd.of_scan_test c ~si:tests.(0).si ~seq:tests.(0).seq)
    contents

(* Partial-scan profile agrees with truncated partial detection, mirroring
   the full-scan property. *)
let prop_partial_profile_matches_truncation =
  QCheck.Test.make ~name:"partial profile agrees with truncated detection" ~count:6
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c =
        Asc_circuits.Profile.make "pf" 4 3 6 45 ~t0_budget:10
        |> Asc_circuits.Generator.generate ~seed
      in
      let faults = Collapse.reps (Collapse.run c) in
      let chain = Asc_scan.Partial.by_fanout c ~ratio:0.5 in
      let rng = Rng.create (seed + 121) in
      let len = 5 in
      let test =
        Scan_test.create
          ~si:(Rng.bool_array rng (Circuit.n_dffs c))
          ~seq:(Array.init len (fun _ -> Rng.bool_array rng (Circuit.n_inputs c)))
      in
      let subset = Array.init (Array.length faults) (fun i -> i) in
      let prof = Asc_scan.Partial.profile c chain test ~faults ~subset in
      let ok = ref true in
      for u = 0 to len - 1 do
        let truncated = Scan_test.truncate test ~u in
        let det = Asc_scan.Partial.detect c chain truncated ~faults in
        Array.iteri
          (fun k fi ->
            let profile_says =
              prof.po_time.(k) <= u || Bitvec.get prof.state_diff_at.(k) u
            in
            if profile_says <> Bitvec.get det fi then ok := false)
          subset
      done;
      !ok)

(* Rendered report numbers match the run they were built from. *)
let test_report_numbers_match_run () =
  let r = Asc_core.Experiments.run_circuit ~seed:1 "s27" in
  let rendered = Asc_util.Table.render (Asc_report.Report.table3 [ r ]) in
  let expect =
    [
      string_of_int r.static_baseline.cycles_initial;
      string_of_int r.static_baseline.cycles_final;
      string_of_int r.directed.cycles_initial;
      string_of_int r.directed.cycles_final;
      string_of_int r.random.cycles_initial;
      string_of_int r.random.cycles_final;
    ]
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun n -> Alcotest.(check bool) ("table3 contains " ^ n) true (contains rendered n))
    expect

(* Regression on the hard-to-initialise stand-in: the directed and genetic
   generators find the reset arming sequence, plain random does not (the
   Table-5 mechanism).  Deterministic under the fixed seeds. *)
let test_hard_circuit_generators () =
  let c = Asc_circuits.Registry.get "s382" in
  let faults = Collapse.reps (Collapse.run c) in
  let budget = 150 in
  let gen_random () =
    let rng = Rng.create 7 in
    let seq = Asc_atpg.Random_tgen.generate rng ~n_pis:(Circuit.n_inputs c) ~len:budget in
    Bitvec.count (Asc_fault.Seq_fsim.detect_no_scan c ~seq ~faults)
  in
  let gen_directed () =
    let rng = Rng.create 7 in
    Bitvec.count (Asc_atpg.Seq_tgen.generate ~max_length:budget c ~faults ~rng).detected
  in
  let gen_ga () =
    let rng = Rng.create 7 in
    Bitvec.count (Asc_atpg.Ga_tgen.generate ~max_length:budget c ~faults ~rng).detected
  in
  let r = gen_random () and d = gen_directed () and g = gen_ga () in
  Alcotest.(check bool)
    (Printf.sprintf "directed (%d) >> random (%d)" d r)
    true
    (d > 4 * r);
  Alcotest.(check bool) (Printf.sprintf "genetic (%d) >> random (%d)" g r) true (g > 4 * r)

(* The dynamic baseline's cycle helper equals the model. *)
let test_dynamic_cycles_helper () =
  let c = Asc_circuits.S27.circuit () in
  let faults = Collapse.reps (Collapse.run c) in
  let targets = Bitvec.create ~default:true (Array.length faults) in
  let rng = Rng.create 10 in
  let d = Asc_compact.Dynamic_baseline.run c ~faults ~targets ~rng in
  Alcotest.(check int) "helper = model"
    (Asc_scan.Time_model.cycles_of_tests c d.tests)
    (Asc_core.Experiments.dynamic_cycles d c)

let suite =
  [
    ( "final",
      [
        Alcotest.test_case "file IO roundtrips" `Quick test_file_io_roundtrips;
        qtest prop_partial_profile_matches_truncation;
        Alcotest.test_case "report numbers match run" `Quick test_report_numbers_match_run;
        Alcotest.test_case "hard-circuit generators" `Quick test_hard_circuit_generators;
        Alcotest.test_case "dynamic cycles helper" `Quick test_dynamic_cycles_helper;
      ] );
  ]
