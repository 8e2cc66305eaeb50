(* Tests for Asc_report and golden end-to-end regressions.

   The golden tests pin exact numbers for the embedded s27 circuit at
   seed 1: the whole pipeline is deterministic, so any change to these
   values signals a behavioural change somewhere in the stack.  The
   naive re-checks recompute the same runs' coverage and N_cyc without
   the fast path. *)

module Bv = Asc_util.Bitvec

(* A tiny substring helper. *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let s27_run = lazy (Asc_core.Experiments.run_circuit ~seed:1 ~with_dynamic:true "s27")

let test_tables_render () =
  let r = Lazy.force s27_run in
  let tables = Asc_report.Report.all_tables [ r ] in
  Alcotest.(check int) "six tables" 6 (List.length tables);
  List.iter
    (fun t ->
      let s = Asc_util.Table.render t in
      (* Caption, separator, header, at least one data row. *)
      Alcotest.(check bool) "table has rows" true
        (List.length (String.split_on_char '\n' s) >= 5);
      Alcotest.(check bool) "mentions s27" true (contains s "s27"))
    tables

let test_table3_totals_exclude_s35932 () =
  (* Build two fake-ish runs: s27 plus a second circuit named s35932 is
     too expensive; instead check the totals logic on two cheap runs by
     renaming is not possible — so verify the total row equals the sum of
     the one included circuit. *)
  let r = Lazy.force s27_run in
  let rendered = Asc_util.Table.render (Asc_report.Report.table3 [ r; r ]) in
  (* With two identical s27 rows, the totals must be exactly twice the
     per-row values. *)
  let init2 = 2 * r.static_baseline.cycles_initial in
  Alcotest.(check bool) "total doubles"
    true
    (contains rendered (string_of_int init2))

let test_golden_s27 () =
  let r = Lazy.force s27_run in
  let p = r.prepared in
  (* Structure. *)
  Alcotest.(check int) "collapsed faults" 32 (Array.length p.faults);
  Alcotest.(check int) "targets" 32 (Bv.count p.targets);
  (* Full coverage from every flow. *)
  Alcotest.(check int) "directed final coverage" 32 (Bv.count r.directed.final_detected);
  Alcotest.(check int) "random final coverage" 32 (Bv.count r.random.final_detected);
  (match r.dynamic_baseline with
  | Some d -> Alcotest.(check int) "dynamic coverage" 32 (Bv.count d.detected)
  | None -> Alcotest.fail "dynamic baseline requested");
  (* The proposed procedure beats or matches the [4] baseline on s27. *)
  Alcotest.(check bool) "proposed <= [4] compacted" true
    (r.directed.cycles_final <= r.static_baseline.cycles_final);
  (* Determinism: the exact numbers for seed 1.  If an intentional change
     shifts these, update the constants — the point is to notice. *)
  let again = Asc_core.Experiments.run_circuit ~seed:1 ~with_dynamic:false "s27" in
  Alcotest.(check int) "re-run cycles identical" r.directed.cycles_final
    again.directed.cycles_final;
  Alcotest.(check int) "re-run |C| identical"
    (Array.length p.comb_tests)
    (Array.length again.prepared.comb_tests)

(* Mid-size pins: [Pipeline.run] at seed 1 — final test count, N_cyc and
   the CRC-32 of the saved test-set text.  A drifted vector-omission or
   test-combination decision moves at least one of them. *)
let golden_mid =
  [ ("s298", 14, 258, "8e709bde"); ("s344", 15, 315, "4fbc3e50"); ("s382", 5, 209, "68588ae5") ]

let tset_crc c tests =
  Asc_util.Crc.to_hex (Asc_util.Crc.crc32 (Asc_scan.Tset_io.to_string c tests))

(* One seed-1 preparation and run per circuit, shared by the pins below. *)
let mid_runs =
  List.map
    (fun (name, _, _, _) ->
      ( name,
        lazy
          (let c = Asc_circuits.Registry.get name in
           let p = Asc_core.Pipeline.prepare c in
           (c, p, Asc_core.Pipeline.run p)) ))
    golden_mid

let check_pin name (tests, cycles, crc) c final cycles_final =
  Alcotest.(check int) (name ^ " tests") tests (Array.length final);
  Alcotest.(check int) (name ^ " N_cyc") cycles cycles_final;
  Alcotest.(check string) (name ^ " tset crc") crc (tset_crc c final)

let test_golden_mid (name, tests, cycles, crc) () =
  let c, _, r = Lazy.force (List.assoc name mid_runs) in
  check_pin name (tests, cycles, crc) c r.final_tests r.cycles_final

(* Phase 4 pins: [Combine.run] on the end-of-Phase-3 set, which must keep
   both its decisions and the number of pairs it tries. *)
let golden_combine = [ ("s298", 182, 0); ("s344", 424, 1); ("s382", 42, 1) ]

let test_golden_combine (name, attempts, combinations) () =
  let c, p, r = Lazy.force (List.assoc name mid_runs) in
  let cb =
    Asc_compact.Combine.run c r.initial_tests ~faults:p.faults ~targets:p.targets
  in
  Alcotest.(check int) (name ^ " attempts") attempts cb.attempts;
  Alcotest.(check int) (name ^ " combinations") combinations cb.combinations

(* The other combining loops at seed 1: the procedure run for the
   half-fanout partial-scan chain (on the calling domain and across a
   2-domain pool), and transfer compaction of C as ablation C runs it.
   Each pin is (tests, N_cyc, CRC-32 of the Tset_io text). *)
let golden_partial = [ ("s298", 2, 71, "a287b8be"); ("s344", 7, 131, "42b0674b") ]
let golden_transfer = [ ("s298", 16, 269, "3e00577a"); ("s344", 25, 428, "a837ab83") ]

let test_golden_partial (name, tests, cycles, crc) () =
  let c, p, _ = Lazy.force (List.assoc name mid_runs) in
  let chain = Asc_scan.Partial.by_fanout c ~ratio:0.5 in
  List.iter
    (fun domains ->
      let pool = Option.map (fun domains -> Asc_util.Domain_pool.create ~domains ()) domains in
      let r =
        Fun.protect
          ~finally:(fun () -> Option.iter Asc_util.Domain_pool.shutdown pool)
          (fun () -> Asc_core.Pipeline.run ?pool ~chain p)
      in
      check_pin name (tests, cycles, crc) c r.final_tests r.cycles_final)
    [ None; Some 2 ]

let test_golden_transfer (name, tests, cycles, crc) () =
  let c, p, _ = Lazy.force (List.assoc name mid_runs) in
  let rng = Asc_util.Rng.of_name ~seed:1 (name ^ "/transfer") in
  let r =
    Asc_compact.Transfer.run c
      (Array.map Asc_scan.Scan_test.of_pattern p.comb_tests)
      ~faults:p.faults ~targets:p.targets ~rng
  in
  check_pin name (tests, cycles, crc) c r.tests
    (Asc_scan.Time_model.cycles_of_tests c r.tests)

(* Paper quantities re-checked by an oracle that shares no code with the
   fast path: each final test set is re-simulated fault by fault with
   the scalar, Naive-based Fault_oracle, whose detections over the target
   faults must be exactly [final_detected] (which counts targets only),
   and N_cyc is recomputed from the tests themselves as
   (k+1)·N_SV + ΣL(T_j). *)
let naive_recheck c (p : Asc_core.Pipeline.prepared) (r : Asc_core.Pipeline.result) =
  let tests = r.final_tests in
  let goods =
    Array.map
      (fun (t : Asc_scan.Scan_test.t) -> Fault_oracle.good_run c ~si:t.si ~seq:t.seq)
      tests
  in
  let covered = Bv.create (Array.length p.faults) in
  Bv.iter_set
    (fun fi ->
      let detects good = Fault_oracle.(detected (simulate c good p.faults.(fi))) in
      if Array.exists detects goods then Bv.set covered fi)
    p.targets;
  Alcotest.(check (list int)) "naive coverage = final_detected"
    (Bv.to_list r.final_detected) (Bv.to_list covered);
  let n_sv = Asc_netlist.Circuit.n_dffs c in
  Array.iter
    (fun (t : Asc_scan.Scan_test.t) ->
      Alcotest.(check int) "scan-in width = N_SV" n_sv (Array.length t.si))
    tests;
  let sum_l =
    Array.fold_left (fun acc (t : Asc_scan.Scan_test.t) -> acc + Array.length t.seq) 0 tests
  in
  Alcotest.(check int) "N_cyc = (k+1)·N_SV + ΣL(T_j)"
    (((Array.length tests + 1) * n_sv) + sum_l)
    r.cycles_final

let test_naive_recheck name () =
  if name = "s27" then
    let r = Lazy.force s27_run in
    naive_recheck r.prepared.circuit r.prepared r.directed
  else
    let c, p, r = Lazy.force (List.assoc name mid_runs) in
    naive_recheck c p r

let test_seed_changes_everything () =
  let a = Asc_core.Experiments.run_circuit ~seed:1 "s27" in
  let b = Asc_core.Experiments.run_circuit ~seed:2 "s27" in
  (* Different seeds must change at least the generated T0 and typically
     the test set (not necessarily the cycle count on a tiny circuit). *)
  Alcotest.(check bool) "tau_seq differs" true
    (not
       (Asc_scan.Scan_test.equal a.directed.tau_seq b.directed.tau_seq)
    || a.directed.t0_length <> b.directed.t0_length
    || Array.length a.prepared.comb_tests <> Array.length b.prepared.comb_tests)

let suite =
  [
    ( "report",
      [
        Alcotest.test_case "tables render" `Quick test_tables_render;
        Alcotest.test_case "table3 totals" `Quick test_table3_totals_exclude_s35932;
        Alcotest.test_case "golden s27" `Quick test_golden_s27;
      ]
      @ List.map
          (fun ((name, _, _, _) as pin) ->
            Alcotest.test_case ("golden " ^ name) `Quick (test_golden_mid pin))
          golden_mid
      @ List.map
          (fun ((name, _, _) as pin) ->
            Alcotest.test_case ("golden combine " ^ name) `Quick (test_golden_combine pin))
          golden_combine
      @ List.map
          (fun ((name, _, _, _) as pin) ->
            Alcotest.test_case ("golden partial " ^ name) `Quick (test_golden_partial pin))
          golden_partial
      @ List.map
          (fun ((name, _, _, _) as pin) ->
            Alcotest.test_case ("golden transfer " ^ name) `Quick (test_golden_transfer pin))
          golden_transfer
      @ List.map
          (fun name ->
            Alcotest.test_case ("naive re-check " ^ name) `Quick (test_naive_recheck name))
          [ "s27"; "s298"; "s344"; "s382" ]
      @ [
        Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_everything;
      ] );
  ]
