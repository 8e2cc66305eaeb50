(* Tests for Asc_diag: dictionary construction, diagnosis of injected
   faults, resolution metrics. *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Scan_test = Asc_scan.Scan_test
module Collapse = Asc_fault.Collapse
module Diag = Asc_diag.Diag

let qtest = QCheck_alcotest.to_alcotest

let setup seed =
  let c =
    Asc_circuits.Profile.make "diag" 4 3 5 40 ~t0_budget:10
    |> Asc_circuits.Generator.generate ~seed
  in
  let faults = Collapse.reps (Collapse.run c) in
  let rng = Rng.create (seed + 81) in
  let tests =
    Array.init 10 (fun _ ->
        Scan_test.create
          ~si:(Rng.bool_array rng (Circuit.n_dffs c))
          ~seq:
            (Array.init (1 + Rng.int rng 3) (fun _ ->
                 Rng.bool_array rng (Circuit.n_inputs c))))
  in
  (c, faults, tests)

(* Injecting any modelled fault and diagnosing must place it among the
   distance-0 candidates. *)
let prop_injected_fault_diagnosed =
  QCheck.Test.make ~name:"injected faults are perfectly diagnosed" ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c, faults, tests = setup seed in
      let dict = Diag.build c tests ~faults in
      let ok = ref true in
      Array.iteri
        (fun fi f ->
          let observed = Diag.observe c tests ~fault:f in
          if not (List.mem fi (Diag.perfect_matches dict ~observed)) then ok := false)
        faults;
      !ok)

(* The diagnose ranking is sorted by distance and covers every fault. *)
let prop_diagnose_sorted =
  QCheck.Test.make ~name:"diagnosis ranking is sorted and complete" ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c, faults, tests = setup seed in
      let dict = Diag.build c tests ~faults in
      let rng = Rng.create (seed + 82) in
      let observed =
        Bitvec.init (Array.length tests) (fun _ -> Rng.bool rng)
      in
      let ranked = Diag.diagnose dict ~observed in
      Array.length ranked = Array.length faults
      && Array.for_all Fun.id
           (Array.init
              (Array.length ranked - 1)
              (fun i -> ranked.(i).Diag.distance <= ranked.(i + 1).Diag.distance)))

let test_signature_matches_matrix () =
  let c, faults, tests = setup 3 in
  let dict = Diag.build c tests ~faults in
  (* Signature bit (test t) equals per-test detection. *)
  Array.iteri
    (fun fi f ->
      let s = Diag.signature dict fi in
      Array.iteri
        (fun ti test ->
          let det = Scan_test.detect c test ~faults:[| f |] in
          Alcotest.(check bool) "signature bit" (Bitvec.get det 0) (Bitvec.get s ti))
        tests)
    (Array.sub faults 0 (min 8 (Array.length faults)))

let test_resolution_metrics () =
  let c, faults, tests = setup 5 in
  let dict = Diag.build c tests ~faults in
  let hist = Diag.resolution_histogram dict in
  (* Histogram masses add up to the fault count. *)
  let total = List.fold_left (fun acc (size, count) -> acc + (size * count)) 0 hist in
  Alcotest.(check int) "histogram covers all faults" (Array.length faults) total;
  let u = Diag.unique_resolution dict in
  Alcotest.(check bool) "unique resolution in [0,1]" true (u >= 0.0 && u <= 1.0);
  (* The empty test set resolves nothing. *)
  let c27 = Asc_circuits.S27.circuit () in
  let f27 = Collapse.reps (Collapse.run c27) in
  let empty = Diag.build c27 [||] ~faults:f27 in
  Alcotest.(check (float 1e-9)) "no tests, no resolution" 0.0
    (Diag.unique_resolution empty)

(* Faults whose detection signature is nonempty and shared with no other
   fault. *)
let uniquely_resolved dict n_faults =
  let signature fi = Bitvec.to_string (Diag.signature dict fi) in
  let count = Hashtbl.create n_faults in
  for fi = 0 to n_faults - 1 do
    let s = signature fi in
    Hashtbl.replace count s (1 + Option.value ~default:0 (Hashtbl.find_opt count s))
  done;
  List.filter
    (fun fi ->
      (not (Bitvec.is_empty (Diag.signature dict fi)))
      && Hashtbl.find count (signature fi) = 1)
    (List.init n_faults Fun.id)

(* Detection rows are per test, so appending tests only splits signature
   classes: every fault the prefix set resolves uniquely stays uniquely
   resolved, and their count never drops.  (The unique-resolution
   *share* can drop: faults the new tests detect join its denominator.) *)
let prop_resolution_monotone =
  QCheck.Test.make ~name:"adding tests never lowers uniquely resolved count" ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c, faults, tests = setup seed in
      let n = Array.length faults in
      let half = Array.sub tests 0 (Array.length tests / 2) in
      let full = uniquely_resolved (Diag.build c tests ~faults) n in
      List.for_all (fun fi -> List.mem fi full)
        (uniquely_resolved (Diag.build c half ~faults) n))

let suite =
  [
    ( "diag",
      [
        qtest prop_injected_fault_diagnosed;
        qtest prop_diagnose_sorted;
        Alcotest.test_case "signature = matrix" `Quick test_signature_matches_matrix;
        Alcotest.test_case "resolution metrics" `Quick test_resolution_metrics;
        qtest prop_resolution_monotone;
      ] );
  ]
