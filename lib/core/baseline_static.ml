(* The baseline flow of [4]: the combinational test set C, viewed as scan
   tests with length-one PI sequences, compacted by the combining
   procedure.  Produces the paper's "[4] init" and "[4] comp" columns. *)

module Circuit = Asc_netlist.Circuit
module Scan_test = Asc_scan.Scan_test

type result = {
  initial_tests : Scan_test.t array;
  final_tests : Scan_test.t array;
  cycles_initial : int;
  cycles_final : int;
  combinations : int;
}

let run ?pool (p : Pipeline.prepared) =
  let c = p.circuit in
  let initial_tests = Array.map Scan_test.of_pattern p.comb_tests in
  let cycles_initial = Asc_scan.Time_model.cycles_of_tests c initial_tests in
  let combined =
    Asc_compact.Combine.run ?pool c initial_tests ~faults:p.faults ~targets:p.targets
  in
  {
    initial_tests;
    final_tests = combined.tests;
    cycles_initial;
    cycles_final = Asc_scan.Time_model.cycles_of_tests c combined.tests;
    combinations = combined.combinations;
  }
