(* Regeneration of the paper's tables.

   Each [tableN] function renders the corresponding table of the paper
   from a list of per-circuit experiment runs, with the same columns and
   layout (Table 3's total row excludes s35932, as the paper's footnote
   does).  [table_at_speed] is the repository's extension: transition-fault
   coverage, quantifying the paper's at-speed claim. *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Scan_test = Asc_scan.Scan_test
module Experiments = Asc_core.Experiments

type run = Experiments.circuit_run

let n_sv (r : run) = Circuit.n_dffs r.prepared.circuit

let detected_count (_ : run) (result : Asc_core.Pipeline.result) =
  Bitvec.count result.final_detected

(* Table 1: faults detected by T0, by tau_seq ("scan"), by the final set. *)
let table1 (runs : run list) =
  let t =
    Table.create ~caption:"Table 1: Detected faults (directed T0)"
      ~groups:[ ("", 4); ("detected", 3) ]
      [
        Table.left "circuit"; Table.right "ff"; Table.right "comb tsts";
        Table.right "flts"; Table.right "T0"; Table.right "scan";
        Table.right "final";
      ]
  in
  List.iter
    (fun (r : run) ->
      Table.add_row t
        [
          r.name;
          string_of_int (n_sv r);
          string_of_int (Array.length r.prepared.comb_tests);
          string_of_int (Array.length r.prepared.faults);
          string_of_int r.directed.f0_count;
          string_of_int (Bitvec.count r.directed.f_seq);
          string_of_int (detected_count r r.directed);
        ])
    runs;
  t

(* Table 2: sequence lengths and Phase-3 top-up counts. *)
let table2 (runs : run list) =
  let t =
    Table.create ~caption:"Table 2: Test lengths (directed T0)"
      ~groups:[ ("", 1); ("seq length", 2); ("", 1) ]
      [
        Table.left "circuit"; Table.right "T0"; Table.right "scan";
        Table.right "added c.tst";
      ]
  in
  List.iter
    (fun (r : run) ->
      Table.add_row t
        [
          r.name;
          string_of_int r.directed.t0_length;
          string_of_int (Scan_test.length r.directed.tau_seq);
          string_of_int (Array.length r.directed.added);
        ])
    runs;
  t

(* Table 3: clock cycles of every flow.  The paper's totals exclude
   s35932. *)
let table3 (runs : run list) =
  let t =
    Table.create ~caption:"Table 3: Numbers of clock cycles"
      ~groups:[ ("", 2); ("[4]", 2); ("prop directed", 2); ("prop rand", 2) ]
      [
        Table.left "circuit"; Table.right "[2,3]"; Table.right "init";
        Table.right "comp"; Table.right "init"; Table.right "comp";
        Table.right "init"; Table.right "comp";
      ]
  in
  let totals = Array.make 6 0 in
  List.iter
    (fun (r : run) ->
      let dyn =
        match r.dynamic_baseline with
        | Some d ->
            string_of_int (Experiments.dynamic_cycles d r.prepared.circuit)
        | None -> "-"
      in
      let cells =
        [|
          r.static_baseline.cycles_initial; r.static_baseline.cycles_final;
          r.directed.cycles_initial; r.directed.cycles_final;
          r.random.cycles_initial; r.random.cycles_final;
        |]
      in
      if r.name <> "s35932" then Array.iteri (fun i v -> totals.(i) <- totals.(i) + v) cells;
      Table.add_row t
        (r.name :: dyn :: Array.to_list (Array.map string_of_int cells)))
    runs;
  if List.length runs > 1 then
    Table.add_row t
      ("total*" :: "-" :: Array.to_list (Array.map string_of_int totals));
  t

(* Table 4: at-speed PI sequence lengths (average and range) of the final
   compacted test sets. *)
let table4 (runs : run list) =
  let t =
    Table.create ~caption:"Table 4: At-speed test lengths"
      ~groups:[ ("", 1); ("[4]", 2); ("prop directed", 2); ("prop rand", 2) ]
      [
        Table.left "circuit"; Table.right "ave"; Table.right "range";
        Table.right "ave"; Table.right "range"; Table.right "ave";
        Table.right "range";
      ]
  in
  let fmt tests =
    let s = Asc_scan.Time_model.length_stats tests in
    (Printf.sprintf "%.2f" s.average, Printf.sprintf "%d-%d" s.lo s.hi)
  in
  List.iter
    (fun (r : run) ->
      let a4, r4 = fmt r.static_baseline.final_tests in
      let ad, rd = fmt r.directed.final_tests in
      let ar, rr = fmt r.random.final_tests in
      Table.add_row t [ r.name; a4; r4; ad; rd; ar; rr ])
    runs;
  t

(* Table 5: the random-T0 runs in the paper's layout. *)
let table5 (runs : run list) =
  let t =
    Table.create ~caption:"Table 5: Results for random sequences"
      ~groups:[ ("", 1); ("detected", 3); ("seq length", 2); ("", 1) ]
      [
        Table.left "circuit"; Table.right "T0"; Table.right "scan";
        Table.right "final"; Table.right "T0"; Table.right "scan";
        Table.right "added c.tst";
      ]
  in
  List.iter
    (fun (r : run) ->
      Table.add_row t
        [
          r.name;
          string_of_int r.random.f0_count;
          string_of_int (Bitvec.count r.random.f_seq);
          string_of_int (detected_count r r.random);
          string_of_int r.random.t0_length;
          string_of_int (Scan_test.length r.random.tau_seq);
          string_of_int (Array.length r.random.added);
        ])
    runs;
  t

(* Extension: transition-fault coverage of the final test sets — the
   paper's at-speed claim, quantified. *)
let table_at_speed ?pool ?tel (runs : run list) =
  let t =
    Table.create
      ~caption:
        "Table A (extension): Transition-fault coverage of the final test sets"
      [
        Table.left "circuit"; Table.right "trans flts"; Table.right "[4] comp";
        Table.right "prop directed"; Table.right "prop rand";
      ]
  in
  List.iter
    (fun (r : run) ->
      let c = r.prepared.circuit in
      let tf = Asc_tfault.Tfault.universe c in
      let cov tests =
        Bitvec.count (Asc_tfault.Tfault.coverage ?pool ?tel c tests ~faults:tf)
      in
      Table.add_row t
        [
          r.name;
          string_of_int (Array.length tf);
          string_of_int (cov r.static_baseline.final_tests);
          string_of_int (cov r.directed.final_tests);
          string_of_int (cov r.random.final_tests);
        ])
    runs;
  t

let all_tables ?pool ?tel ?(with_at_speed = true) runs =
  let base =
    [ table1 runs; table2 runs; table3 runs; table4 runs; table5 runs ]
  in
  if with_at_speed then base @ [ table_at_speed ?pool ?tel runs ] else base

let render_all ?pool ?tel ?with_at_speed runs =
  String.concat "\n" (List.map Table.render (all_tables ?pool ?tel ?with_at_speed runs))
