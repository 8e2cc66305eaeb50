(* Ablation studies for the design choices DESIGN.md calls out.

   A. T0-source quality: the paper's central observation is that the
      *initial* test set determines how far compaction can go.  Compare
      random, PROPTEST-style directed, and STRATEGATE-style genetic T0
      end to end.
   B. Scan-out criterion: the paper's i_0 (earliest valid) versus the i_1
      alternative it discusses and rejects (Section 3.1).
   C. Transfer sequences: how much [7] adds on top of the plain [4]
      combining.
   D. Partial scan: cycles versus coverage as the chain shrinks, on the
      paper's final test sets.
   E. Multiple scan chains: how chain count rescales the comparison of
      Table 3 (scan operations get cheaper, so the proposed procedure's
      advantage shrinks).
   F. Partial scan, adapted: the procedure re-run for a 50% chain
      (Pipeline.run ~chain) against full-scan tests merely re-used there. *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Pipeline = Asc_core.Pipeline
module Scan_test = Asc_scan.Scan_test

let config_with ~seed t0_source = { Pipeline.default_config with seed; t0_source }

(* The configuration `asc run` gives a circuit: its directed T0. *)
let directed ~seed name =
  Result.get_ok (Asc_core.Experiments.config_for ~seed ~t0:"directed" name)

(* --- A: T0 source quality ------------------------------------------------ *)

let t0_sources name =
  let budget = Asc_circuits.Registry.t0_budget name in
  [
    ("random", Pipeline.Random_seq budget);
    ("directed", Pipeline.Directed budget);
    ("genetic", Pipeline.Genetic budget);
  ]

let t0_quality ~seed names =
  let t =
    Table.create ~caption:"Ablation A: T0 source quality (same length budget)"
      [
        Table.left "circuit"; Table.left "T0 source"; Table.right "F0";
        Table.right "Fseq"; Table.right "L(Tseq)"; Table.right "added";
        Table.right "init"; Table.right "comp";
      ]
  in
  List.iter
    (fun name ->
      let c = Asc_circuits.Registry.get ~seed name in
      let prepared = Pipeline.prepare ~config:(config_with ~seed (Pipeline.Directed 1)) c in
      List.iter
        (fun (label, source) ->
          let r = Pipeline.run ~config:(config_with ~seed source) prepared in
          Table.add_row t
            [
              name; label;
              string_of_int r.f0_count;
              string_of_int (Bitvec.count r.f_seq);
              string_of_int (Scan_test.length r.tau_seq);
              string_of_int (Array.length r.added);
              string_of_int r.cycles_initial;
              string_of_int r.cycles_final;
            ])
        (t0_sources name))
    names;
  t

(* --- B: scan-out criterion (i0 vs i1) ------------------------------------ *)

let scan_out_policy ~seed names =
  let t =
    Table.create
      ~caption:"Ablation B: scan-out criterion — the paper's i0 vs the i1 alternative"
      [
        Table.left "circuit"; Table.left "criterion"; Table.right "Fseq";
        Table.right "L(Tseq)"; Table.right "init"; Table.right "comp";
      ]
  in
  List.iter
    (fun name ->
      let c = Asc_circuits.Registry.get ~seed name in
      let base = directed ~seed name in
      let prepared = Pipeline.prepare ~config:base c in
      List.iter
        (fun (label, policy) ->
          let r =
            Pipeline.run ~config:{ base with scan_out_policy = policy } prepared
          in
          Table.add_row t
            [
              name; label;
              string_of_int (Bitvec.count r.f_seq);
              string_of_int (Scan_test.length r.tau_seq);
              string_of_int r.cycles_initial;
              string_of_int r.cycles_final;
            ])
        [ ("i0 (earliest)", Asc_core.Phase1.Earliest);
          ("i1 (max detection)", Asc_core.Phase1.Max_detection) ])
    names;
  t

(* --- C: transfer sequences on top of [4] --------------------------------- *)

let transfer ~seed names =
  let t =
    Table.create ~caption:"Ablation C: [4] combining vs [4] + transfer sequences [7]"
      [
        Table.left "circuit"; Table.right "[4] comp"; Table.right "+transfer";
        Table.right "transfers"; Table.right "xfer cycles";
      ]
  in
  List.iter
    (fun name ->
      let c = Asc_circuits.Registry.get ~seed name in
      let prepared = Pipeline.prepare ~config:{ Pipeline.default_config with seed } c in
      let tests = Array.map Scan_test.of_pattern prepared.comb_tests in
      let rng = Rng.of_name ~seed (name ^ "/transfer") in
      let plain =
        Asc_compact.Combine.run c tests ~faults:prepared.faults ~targets:prepared.targets
      in
      let tr =
        Asc_compact.Transfer.run c tests ~faults:prepared.faults
          ~targets:prepared.targets ~rng
      in
      Table.add_row t
        [
          name;
          string_of_int (Asc_scan.Time_model.cycles_of_tests c plain.tests);
          string_of_int (Asc_scan.Time_model.cycles_of_tests c tr.tests);
          string_of_int tr.transfers;
          string_of_int tr.transfer_cycles;
        ])
    names;
  t

(* --- D: partial scan ------------------------------------------------------ *)

let partial_scan ~seed names =
  let t =
    Table.create
      ~caption:
        "Ablation D: the proposed final test set under shrinking scan chains"
      [
        Table.left "circuit"; Table.right "chain"; Table.right "scanned";
        Table.right "cycles"; Table.right "coverage";
      ]
  in
  List.iter
    (fun name ->
      let c = Asc_circuits.Registry.get ~seed name in
      let config = directed ~seed name in
      let prepared = Pipeline.prepare ~config c in
      let r = Pipeline.run ~config prepared in
      List.iter
        (fun ratio ->
          let chain = Asc_scan.Partial.by_fanout c ~ratio in
          let cov =
            Asc_scan.Partial.coverage c chain r.final_tests ~faults:prepared.faults
          in
          Table.add_row t
            [
              name;
              Printf.sprintf "%.0f%%" (100.0 *. ratio);
              string_of_int (Asc_scan.Partial.n_scanned chain);
              string_of_int (Asc_scan.Partial.cycles chain r.final_tests);
              Printf.sprintf "%d/%d"
                (Bitvec.count (Bitvec.inter cov prepared.targets))
                (Bitvec.count prepared.targets);
            ])
        [ 1.0; 0.75; 0.5; 0.25 ])
    names;
  t

(* --- E: multiple scan chains ---------------------------------------------- *)

let multi_chain ~seed names =
  let t =
    Table.create
      ~caption:
        "Ablation E: proposed vs [4] under multiple scan chains (cycles)"
      ~groups:[ ("", 1); ("1 chain", 2); ("4 chains", 2); ("16 chains", 2) ]
      [
        Table.left "circuit"; Table.right "[4]"; Table.right "prop";
        Table.right "[4]"; Table.right "prop"; Table.right "[4]";
        Table.right "prop";
      ]
  in
  List.iter
    (fun name ->
      let c = Asc_circuits.Registry.get ~seed name in
      let config = directed ~seed name in
      let prepared = Pipeline.prepare ~config c in
      let r = Pipeline.run ~config prepared in
      let b = Asc_core.Baseline_static.run prepared in
      let n_sv = Circuit.n_dffs c in
      let cycles chains tests =
        Asc_scan.Time_model.cycles_multi_chain ~n_sv ~chains
          (Array.to_list (Array.map Scan_test.length tests))
      in
      Table.add_row t
        [
          name;
          string_of_int (cycles 1 b.final_tests);
          string_of_int (cycles 1 r.final_tests);
          string_of_int (cycles 4 b.final_tests);
          string_of_int (cycles 4 r.final_tests);
          string_of_int (cycles 16 b.final_tests);
          string_of_int (cycles 16 r.final_tests);
        ])
    names;
  t

(* --- F: the procedure adapted to partial scan ----------------------------- *)

let partial_adapted ~seed names =
  let t =
    Table.create
      ~caption:
        "Ablation F: partial scan at 50% — full-scan tests reused vs the procedure \
         adapted to the chain"
      ~groups:[ ("", 1); ("reused", 2); ("adapted", 2) ]
      [
        Table.left "circuit"; Table.right "cycles"; Table.right "coverage";
        Table.right "cycles"; Table.right "coverage";
      ]
  in
  List.iter
    (fun name ->
      let c = Asc_circuits.Registry.get ~seed name in
      let config = directed ~seed name in
      let prepared = Pipeline.prepare ~config c in
      let full = Pipeline.run ~config prepared in
      let chain = Asc_scan.Partial.by_fanout c ~ratio:0.5 in
      let reused_cov =
        Bitvec.count
          (Bitvec.inter
             (Asc_scan.Partial.coverage c chain full.final_tests ~faults:prepared.faults)
             prepared.targets)
      in
      let adapted = Pipeline.run ~config ~chain prepared in
      let n_targets = Bitvec.count prepared.targets in
      Table.add_row t
        [
          name;
          string_of_int (Asc_scan.Partial.cycles chain full.final_tests);
          Printf.sprintf "%d/%d" reused_cov n_targets;
          string_of_int adapted.cycles_final;
          Printf.sprintf "%d/%d" (Bitvec.count adapted.final_detected) n_targets;
        ])
    names;
  t

let default_circuits = [ "s298"; "s344"; "s382"; "s820"; "b03"; "b10" ]

let run_all ?(seed = 1) ?(names = default_circuits) () =
  List.iter
    (fun table -> print_string (Table.render table ^ "\n"))
    [
      t0_quality ~seed names;
      scan_out_policy ~seed names;
      transfer ~seed names;
      partial_scan ~seed names;
      multi_chain ~seed names;
      partial_adapted ~seed names;
    ]
