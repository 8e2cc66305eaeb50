(* Tests for the extension modules: the genetic sequence generator, the
   transfer-sequence compaction of [7], partial scan, the multi-chain time
   model, test-set serialization, and the i0/i1 scan-out policies. *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Scan_test = Asc_scan.Scan_test
module Collapse = Asc_fault.Collapse

let qtest = QCheck_alcotest.to_alcotest

let small_circuit seed =
  Asc_circuits.Profile.make "ext" 4 3 5 45 ~t0_budget:10
  |> Asc_circuits.Generator.generate ~seed

(* --- Genetic sequence generation --------------------------------------- *)

let test_ga_tgen_consistency () =
  let c = Asc_circuits.Registry.get "s298" in
  let faults = Collapse.reps (Collapse.run c) in
  let rng = Rng.create 5 in
  let r = Asc_atpg.Ga_tgen.generate ~max_length:120 c ~faults ~rng in
  Alcotest.(check bool) "non-empty" true (Array.length r.seq > 0);
  Alcotest.(check bool) "within budget" true (Array.length r.seq <= 120);
  let batch = Asc_fault.Seq_fsim.detect_no_scan c ~seq:r.seq ~faults in
  Alcotest.(check bool) "coverage consistent" true (Bitvec.equal r.detected batch);
  Alcotest.(check bool) "detects a majority" true
    (2 * Bitvec.count r.detected > Array.length faults)

let test_ga_deterministic () =
  let c = Asc_circuits.Registry.get "s27" in
  let faults = Collapse.reps (Collapse.run c) in
  let r1 = Asc_atpg.Ga_tgen.generate ~max_length:40 c ~faults ~rng:(Rng.create 9) in
  let r2 = Asc_atpg.Ga_tgen.generate ~max_length:40 c ~faults ~rng:(Rng.create 9) in
  Alcotest.(check bool) "same sequence" true (r1.seq = r2.seq)

(* --- Transfer sequences ([7]) ------------------------------------------- *)

let prop_transfer_preserves_coverage =
  QCheck.Test.make ~name:"transfer compaction preserves coverage, not worse than [4]"
    ~count:6
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = small_circuit seed in
      let faults = Collapse.reps (Collapse.run c) in
      let rng = Rng.create (seed + 61) in
      let tests = ref [] in
      while List.length !tests < 10 do
        let p =
          Asc_sim.Pattern.random rng ~n_pis:(Circuit.n_inputs c)
            ~n_ffs:(Circuit.n_dffs c)
        in
        let t = Scan_test.of_pattern p in
        if not (Bitvec.is_empty (Scan_test.detect c t ~faults)) then
          tests := t :: !tests
      done;
      let tests = Array.of_list !tests in
      let targets = Asc_scan.Tset.coverage c tests ~faults in
      let plain = Asc_compact.Combine.run c tests ~faults ~targets in
      let tr = Asc_compact.Transfer.run c tests ~faults ~targets ~rng in
      let cov result_tests =
        Bitvec.inter (Asc_scan.Tset.coverage c result_tests ~faults) targets
      in
      Bitvec.equal (cov tr.tests) targets
      && Asc_scan.Time_model.cycles_of_tests c tr.tests
         <= Asc_scan.Time_model.cycles_of_tests c plain.tests
      && Array.length tr.tests
         = Array.length tests - tr.combinations - tr.transfers)

(* --- Partial scan -------------------------------------------------------- *)

let test_partial_chain_selection () =
  let c = Asc_circuits.Registry.get "s298" in
  let full = Asc_scan.Partial.full_chain c in
  Alcotest.(check int) "full chain" (Circuit.n_dffs c) (Asc_scan.Partial.n_scanned full);
  let half = Asc_scan.Partial.by_fanout c ~ratio:0.5 in
  Alcotest.(check int) "half chain" 7 (Asc_scan.Partial.n_scanned half);
  let none = Asc_scan.Partial.by_fanout c ~ratio:0.0 in
  Alcotest.(check int) "no chain" 0 (Asc_scan.Partial.n_scanned none)

(* Partial detection at the chain's two extremes: with every flip-flop
   scanned it is the binary simulator's full-scan detection, with none it
   is detection without scan — on the calling domain and across a
   2-domain pool alike. *)
let prop_partial_full_chain_equals_full_scan =
  QCheck.Test.make
    ~name:"partial scan with a full chain = full scan, with none = no scan (1 and 2 domains)"
    ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = small_circuit seed in
      let faults = Collapse.reps (Collapse.run c) in
      let rng = Rng.create (seed + 62) in
      let t =
        Scan_test.create
          ~si:(Rng.bool_array rng (Circuit.n_dffs c))
          ~seq:(Array.init 5 (fun _ -> Rng.bool_array rng (Circuit.n_inputs c)))
      in
      let full = Asc_scan.Partial.full_chain c in
      let none = Asc_scan.Partial.by_fanout c ~ratio:0.0 in
      let agree ?pool () =
        Bitvec.equal
          (Asc_scan.Partial.detect ?pool c full t ~faults)
          (Scan_test.detect c t ~faults)
        && Bitvec.equal
             (Asc_scan.Partial.detect ?pool c none t ~faults)
             (Asc_fault.Seq_fsim.detect_no_scan c ~seq:t.seq ~faults)
      in
      let pool = Domain_pool.create ~domains:2 () in
      Fun.protect
        ~finally:(fun () -> Domain_pool.shutdown pool)
        (fun () -> agree () && agree ~pool ()))

(* Shrinking the chain never detects more (3-valued pessimism is
   monotone in the scanned set). *)
let prop_partial_monotone =
  QCheck.Test.make ~name:"smaller chains detect no more faults" ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = small_circuit seed in
      let faults = Collapse.reps (Collapse.run c) in
      let rng = Rng.create (seed + 63) in
      let t =
        Scan_test.create
          ~si:(Rng.bool_array rng (Circuit.n_dffs c))
          ~seq:(Array.init 6 (fun _ -> Rng.bool_array rng (Circuit.n_inputs c)))
      in
      let full = Asc_scan.Partial.detect c (Asc_scan.Partial.full_chain c) t ~faults in
      let half =
        Asc_scan.Partial.detect c (Asc_scan.Partial.by_fanout c ~ratio:0.5) t ~faults
      in
      Bitvec.subset half full)

let test_partial_cycles () =
  let c = Asc_circuits.Registry.get "s298" in
  let rng = Rng.create 3 in
  let tests =
    Array.init 4 (fun _ ->
        Scan_test.create
          ~si:(Rng.bool_array rng (Circuit.n_dffs c))
          ~seq:[| Rng.bool_array rng (Circuit.n_inputs c) |])
  in
  let half = Asc_scan.Partial.by_fanout c ~ratio:0.5 in
  Alcotest.(check int) "half-chain cycles" ((5 * 7) + 4)
    (Asc_scan.Partial.cycles half tests)

(* --- Multi-chain time model ---------------------------------------------- *)

let test_multi_chain () =
  let lengths = [ 3; 5 ] in
  Alcotest.(check int) "1 chain = paper model"
    (Asc_scan.Time_model.cycles ~n_sv:20 lengths)
    (Asc_scan.Time_model.cycles_multi_chain ~n_sv:20 ~chains:1 lengths);
  Alcotest.(check int) "4 chains" ((3 * 5) + 8)
    (Asc_scan.Time_model.cycles_multi_chain ~n_sv:20 ~chains:4 lengths);
  (* Rounding up on uneven splits. *)
  Alcotest.(check int) "uneven split" ((3 * 7) + 8)
    (Asc_scan.Time_model.cycles_multi_chain ~n_sv:20 ~chains:3 lengths)

(* --- Test-set serialization ----------------------------------------------- *)

let prop_tset_io_roundtrip =
  QCheck.Test.make ~name:"test-set serialization round-trips" ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = small_circuit seed in
      let rng = Rng.create (seed + 64) in
      let tests =
        Array.init
          (1 + Rng.int rng 6)
          (fun _ ->
            Scan_test.create
              ~si:(Rng.bool_array rng (Circuit.n_dffs c))
              ~seq:
                (Array.init (1 + Rng.int rng 4) (fun _ ->
                     Rng.bool_array rng (Circuit.n_inputs c))))
      in
      let text = Asc_scan.Tset_io.to_string c tests in
      let loaded = Asc_scan.Tset_io.check_compatible c (Asc_scan.Tset_io.of_string text) in
      Array.length loaded = Array.length tests
      && Array.for_all2 Scan_test.equal loaded tests)

let test_tset_io_errors () =
  let expect_error text =
    match Asc_scan.Tset_io.of_string text with
    | exception Asc_scan.Tset_io.Format_error _ -> ()
    | _ -> Alcotest.fail "expected format error"
  in
  expect_error "test\nsi 01\nv 1\nend\n" (* missing header *);
  expect_error "circuit x 1 2\nsi 01\n" (* si outside test *);
  expect_error "circuit x 1 2\ntest\nv 1\nend\n" (* no si *);
  expect_error "circuit x 1 2\ntest\nsi 01\nend\n" (* no vectors *);
  expect_error "circuit x 1 2\ntest\nsi 0z\nv 1\nend\n" (* bad bit *);
  let c = Asc_circuits.Registry.get "s27" in
  match
    Asc_scan.Tset_io.check_compatible c ("not-s27", [||])
  with
  | exception Asc_scan.Tset_io.Format_error _ -> ()
  | _ -> Alcotest.fail "expected circuit-name mismatch"

(* --- Scan-out policies (i0 vs i1) ------------------------------------------ *)

let test_scan_out_policies () =
  let c = Asc_circuits.Registry.get "s298" in
  let faults = Collapse.reps (Collapse.run c) in
  let targets = Bitvec.create ~default:true (Array.length faults) in
  let rng = Rng.create 11 in
  let t0 = Asc_atpg.Random_tgen.generate rng ~n_pis:(Circuit.n_inputs c) ~len:40 in
  let si = Rng.bool_array rng (Circuit.n_dffs c) in
  let f_si =
    Bitvec.inter (Asc_fault.Seq_fsim.detect c ~si ~seq:t0 ~faults) targets
  in
  let model = Asc_core.Scan_model.full c ~faults in
  let i0 =
    Asc_core.Phase1.select_scan_out ~policy:Asc_core.Phase1.Earliest model ~si ~t0
      ~f_si ~targets
  in
  let i1 =
    Asc_core.Phase1.select_scan_out ~policy:Asc_core.Phase1.Max_detection model ~si
      ~t0 ~f_si ~targets
  in
  (* Both keep F_SI; i1 detects at least as much and is never shorter than
     necessary for that. *)
  Alcotest.(check bool) "i0 keeps F_SI" true (Bitvec.subset f_si i0.f_so);
  Alcotest.(check bool) "i1 keeps F_SI" true (Bitvec.subset f_si i1.f_so);
  Alcotest.(check bool) "i1 detects >= i0" true
    (Bitvec.count i1.f_so >= Bitvec.count i0.f_so);
  Alcotest.(check bool) "i0 is earliest" true (i0.u <= i1.u)

let suite =
  [
    ( "extensions",
      [
        Alcotest.test_case "ga_tgen consistency" `Quick test_ga_tgen_consistency;
        Alcotest.test_case "ga_tgen deterministic" `Quick test_ga_deterministic;
        qtest prop_transfer_preserves_coverage;
        Alcotest.test_case "partial chain selection" `Quick test_partial_chain_selection;
        qtest prop_partial_full_chain_equals_full_scan;
        qtest prop_partial_monotone;
        Alcotest.test_case "partial cycles" `Quick test_partial_cycles;
        Alcotest.test_case "multi-chain model" `Quick test_multi_chain;
        qtest prop_tset_io_roundtrip;
        Alcotest.test_case "tset_io errors" `Quick test_tset_io_errors;
        Alcotest.test_case "scan-out policies" `Quick test_scan_out_policies;
      ] );
  ]
