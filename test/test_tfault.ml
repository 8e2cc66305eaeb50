(* Tests for Asc_tfault: the delay rule, the structural properties the
   model promises (length-one blindness, launch requirement), and a naive
   cross-check of the parallel simulator. *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Gate = Asc_netlist.Gate
module Scan_test = Asc_scan.Scan_test
module Tfault = Asc_tfault.Tfault

let qtest = QCheck_alcotest.to_alcotest

let with_pool domains f =
  let pool = Domain_pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) (fun () -> f pool)

(* A generated circuit of varying size: 1-5 PIs, 1-4 POs, 1-8 flip-flops
   (the generator needs at least one) and 10-59 gates. *)
let random_circuit rng seed =
  let pis = 1 + Rng.int rng 5 and pos = 1 + Rng.int rng 4 in
  let ffs = 1 + Rng.int rng 8 and gates = 10 + Rng.int rng 50 in
  Asc_circuits.Profile.make "tf" pis pos ffs gates ~t0_budget:10
  |> Asc_circuits.Generator.generate ~seed

(* Naive scalar transition-fault simulation of one fault. *)
let naive_detects c (f : Tfault.t) ~si ~seq =
  let n = Circuit.n_gates c in
  let good_state = ref (Array.copy si) in
  let bad_state = ref (Array.copy si) in
  let prev = ref None in
  let detected = ref false in
  Array.iteri
    (fun u pis ->
      let gv = Asc_sim.Naive.eval_comb c ~pis ~state:!good_state in
      (* Faulty machine: recompute with the delay applied at the site. *)
      let bv = Array.make n false in
      Array.iteri (fun i g -> bv.(g) <- pis.(i)) (Circuit.inputs c);
      Array.iteri (fun i g -> bv.(g) <- !bad_state.(i)) (Circuit.dffs c);
      let apply g v =
        if g <> f.gate then v
        else if u = 0 then begin
          prev := Some v;
          v
        end
        else begin
          let p = Option.get !prev in
          let v' =
            if f.rising && (not p) && v then false
            else if (not f.rising) && p && not v then true
            else v
          in
          prev := Some v';
          v'
        end
      in
      Array.iter (fun g -> bv.(g) <- apply g bv.(g)) (Circuit.inputs c);
      Array.iter (fun g -> bv.(g) <- apply g bv.(g)) (Circuit.dffs c);
      Array.iter
        (fun g ->
          let ins =
            Array.to_list (Array.map (fun fin -> bv.(fin)) (Circuit.fanins c g))
          in
          bv.(g) <- apply g (Asc_sim.Naive.eval_gate2 (Circuit.kind c g) ins))
        (Circuit.order c);
      if Asc_sim.Naive.outputs_of c gv <> Asc_sim.Naive.outputs_of c bv then
        detected := true;
      good_state := Asc_sim.Naive.next_state_of c gv;
      bad_state := Asc_sim.Naive.next_state_of c bv)
    seq;
  !detected || !good_state <> !bad_state

let test_universe () =
  let c = Asc_circuits.S27.circuit () in
  Alcotest.(check int) "two polarities per gate" (2 * Circuit.n_gates c)
    (Array.length (Tfault.universe c))

let test_length_one_blind () =
  (* A length-one test detects no transition fault at all. *)
  let c = Asc_circuits.S27.circuit () in
  let faults = Tfault.universe c in
  let rng = Rng.create 3 in
  for _ = 1 to 10 do
    let t =
      Scan_test.create ~si:(Rng.bool_array rng 3) ~seq:[| Rng.bool_array rng 4 |]
    in
    Alcotest.(check int) "no detection" 0 (Bitvec.count (Tfault.detect c t ~faults))
  done

let test_launch_detects () =
  (* A hand-built two-cycle test on a buffer chain detects the PI's
     slow-to-rise fault: pi 0 -> 1 launches, the PO captures late. *)
  let b = Asc_netlist.Builder.create "launch" in
  let a = Asc_netlist.Builder.add_input b "a" in
  let g = Asc_netlist.Builder.add_gate b Gate.Buf "g" [ a ] in
  Asc_netlist.Builder.add_output b g;
  let c = Asc_netlist.Builder.finalize b in
  let test = Scan_test.create ~si:[||] ~seq:[| [| false |]; [| true |] |] in
  let str_a = { Tfault.gate = a; rising = true } in
  let stf_a = { Tfault.gate = a; rising = false } in
  let det = Tfault.detect c test ~faults:[| str_a; stf_a |] in
  Alcotest.(check bool) "slow-to-rise detected" true (Bitvec.get det 0);
  Alcotest.(check bool) "slow-to-fall needs a fall" false (Bitvec.get det 1)

(* On random circuits and tests of 1-24 vectors: [detect] of each test,
   without a pool and on 2 domains, and [coverage] of the set, whose
   fault dropping must keep the union of the tests' detections. *)
let prop_matches_naive =
  QCheck.Test.make ~name:"parallel transition simulation matches naive" ~count:100
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create (seed + 51) in
      let c = random_circuit rng seed in
      let faults = Tfault.universe c in
      let n = Array.length faults in
      let tests =
        Array.init (1 + Rng.int rng 3) (fun _ ->
            Scan_test.create
              ~si:(Rng.bool_array rng (Circuit.n_dffs c))
              ~seq:
                (Array.init (1 + Rng.int rng 24) (fun _ ->
                     Rng.bool_array rng (Circuit.n_inputs c))))
      in
      let expected =
        Array.map
          (fun (t : Scan_test.t) ->
            Bitvec.init n (fun fi -> naive_detects c faults.(fi) ~si:t.si ~seq:t.seq))
          tests
      in
      let union = Bitvec.create n in
      Array.iter (fun e -> Bitvec.union_into ~into:union e) expected;
      with_pool 2 (fun pool ->
          Array.for_all2
            (fun t e ->
              Bitvec.equal (Tfault.detect c t ~faults) e
              && Bitvec.equal (Tfault.detect ~pool c t ~faults) e)
            tests expected
          && Bitvec.equal (Tfault.coverage c tests ~faults) union
          && Bitvec.equal (Tfault.coverage ~pool c tests ~faults) union))

let test_coverage_drops_and_skips () =
  let c = Asc_circuits.S27.circuit () in
  let faults = Tfault.universe c in
  let rng = Rng.create 8 in
  let long =
    Scan_test.create ~si:(Rng.bool_array rng 3)
      ~seq:(Array.init 20 (fun _ -> Rng.bool_array rng 4))
  in
  let short =
    Scan_test.create ~si:(Rng.bool_array rng 3) ~seq:[| Rng.bool_array rng 4 |]
  in
  let cov = Tfault.coverage c [| short; long |] ~faults in
  let direct = Tfault.detect c long ~faults in
  Alcotest.(check bool) "set coverage = long test's detection" true
    (Bitvec.equal cov direct);
  Alcotest.(check bool) "long sequences detect transitions" true (Bitvec.count cov > 0)

let suite =
  [
    ( "tfault",
      [
        Alcotest.test_case "universe" `Quick test_universe;
        Alcotest.test_case "length-one blind" `Quick test_length_one_blind;
        Alcotest.test_case "launch detects" `Quick test_launch_detects;
        qtest prop_matches_naive;
        Alcotest.test_case "coverage drops/skips" `Quick test_coverage_drops_and_skips;
      ] );
  ]
