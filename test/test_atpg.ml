(* Tests for Asc_atpg: SCOAP, cubes, PODEM soundness and completeness on
   exhaustively-checkable circuits, combinational test-set generation, the
   sequence generators. *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Gate = Asc_netlist.Gate
module Fault = Asc_fault.Fault
module Collapse = Asc_fault.Collapse
module Podem = Asc_atpg.Podem

let qtest = QCheck_alcotest.to_alcotest

let small_circuit ?(pis = 4) ?(ffs = 4) ?(gates = 40) seed =
  Asc_circuits.Profile.make "atpg" pis 3 ffs gates ~t0_budget:10
  |> Asc_circuits.Generator.generate ~seed

(* Ground-truth detectability by exhaustive enumeration of all PI+state
   assignments (combinational, full-scan semantics). *)
let exhaustively_detectable c fault =
  let n_pis = Circuit.n_inputs c and n_ffs = Circuit.n_dffs c in
  let total = n_pis + n_ffs in
  assert (total <= 16);
  let patterns =
    Array.init (1 lsl total) (fun k ->
        let bit i = (k lsr i) land 1 = 1 in
        {
          Asc_sim.Pattern.pis = Array.init n_pis bit;
          state = Array.init n_ffs (fun i -> bit (n_pis + i));
        })
  in
  not
    (Bitvec.is_empty (Asc_fault.Comb_fsim.patterns_detecting c ~patterns ~fault))

(* --- Scoap ------------------------------------------------------------ *)

let test_scoap_basic () =
  let b = Asc_netlist.Builder.create "scoap" in
  let a = Asc_netlist.Builder.add_input b "a" in
  let c_in = Asc_netlist.Builder.add_input b "c" in
  let g1 = Asc_netlist.Builder.add_gate b Gate.And "g1" [ a; c_in ] in
  let g2 = Asc_netlist.Builder.add_gate b Gate.And "g2" [ g1; a ] in
  Asc_netlist.Builder.add_output b g2;
  let c = Asc_netlist.Builder.finalize b in
  let s = Asc_atpg.Scoap.compute c in
  (* Setting an AND output to 1 is harder than to 0. *)
  Alcotest.(check bool) "cc1 > cc0 for and" true
    (Asc_atpg.Scoap.cc s g2 true > Asc_atpg.Scoap.cc s g2 false);
  (* Deeper gate has larger cc1. *)
  Alcotest.(check bool) "depth grows cc1" true
    (Asc_atpg.Scoap.cc s g2 true > Asc_atpg.Scoap.cc s g1 true);
  Alcotest.(check int) "po obs depth" 0 (Asc_atpg.Scoap.obs_depth s g2)

(* --- Cube -------------------------------------------------------------- *)

let test_cube_fill () =
  let cube = Asc_atpg.Cube.create ~n_pis:3 ~n_ffs:2 in
  cube.pis.(0) <- Asc_atpg.Cube.One;
  cube.state.(1) <- Asc_atpg.Cube.Zero;
  Alcotest.(check int) "specified count" 2 (Asc_atpg.Cube.specified_count cube);
  let rng = Rng.create 1 in
  let p = Asc_atpg.Cube.fill rng cube in
  Alcotest.(check bool) "specified pi preserved" true p.pis.(0);
  Alcotest.(check bool) "specified state preserved" false p.state.(1)

(* --- PODEM ------------------------------------------------------------- *)

(* Soundness: every Test is verified by fault simulation.  Completeness:
   every Redundant claim is confirmed by exhaustive enumeration. *)
let prop_podem_sound_and_complete =
  QCheck.Test.make ~name:"PODEM sound (tests) and complete (redundancy)" ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = small_circuit ~pis:4 ~ffs:4 ~gates:30 seed in
      let faults = Collapse.reps (Collapse.run c) in
      let podem = Podem.create c in
      let rng = Rng.create (seed + 1) in
      let ok = ref true in
      Array.iteri
        (fun fi f ->
          match Podem.run ~backtrack_limit:1000 podem f with
          | Podem.Test cube ->
              let p = Asc_atpg.Cube.fill rng cube in
              let det =
                Bitmat.column_union
                  (Asc_fault.Comb_fsim.detect_matrix c ~patterns:[| p |] ~faults)
              in
              if not (Bitvec.get det fi) then ok := false
          | Podem.Redundant -> if exhaustively_detectable c f then ok := false
          | Podem.Aborted -> ())
        faults;
      !ok)

let test_podem_fixed_assignment () =
  (* With the state fixed adversarially, a state-dependent fault becomes
     untestable; PODEM must respect the fixed pins. *)
  let b = Asc_netlist.Builder.create "fixed" in
  let a = Asc_netlist.Builder.add_input b "a" in
  let q = Asc_netlist.Builder.add_dff b "q" in
  let g = Asc_netlist.Builder.add_gate b Gate.And "g" [ a; q ] in
  Asc_netlist.Builder.set_dff_input b q g;
  Asc_netlist.Builder.add_output b g;
  let c = Asc_netlist.Builder.finalize b in
  let podem = Podem.create c in
  (* a stuck-at-0: needs a = 1 and q = 1 to excite-and-propagate. *)
  let f = Fault.output a false in
  (match Podem.run podem f with
  | Podem.Test cube ->
      Alcotest.(check bool) "state assigned 1" true (cube.state.(0) = Asc_atpg.Cube.One)
  | _ -> Alcotest.fail "expected a test");
  match Podem.run ~fixed:[ (q, false) ] podem f with
  | Podem.Redundant -> ()
  | Podem.Test _ -> Alcotest.fail "test should be impossible with q fixed to 0"
  | Podem.Aborted -> Alcotest.fail "tiny search should not abort"

let test_podem_dff_pin_fault () =
  (* D-pin faults are detected via the captured value. *)
  let b = Asc_netlist.Builder.create "dpin" in
  let a = Asc_netlist.Builder.add_input b "a" in
  let q = Asc_netlist.Builder.add_dff b "q" in
  Asc_netlist.Builder.set_dff_input b q a;
  let g = Asc_netlist.Builder.add_gate b Gate.Buf "g" [ q ] in
  Asc_netlist.Builder.add_output b g;
  let c = Asc_netlist.Builder.finalize b in
  let podem = Podem.create c in
  match Podem.run podem (Fault.input q 0 true) with
  | Podem.Test cube ->
      (* Excitation requires a = 0. *)
      Alcotest.(check bool) "a=0" true (cube.pis.(0) = Asc_atpg.Cube.Zero)
  | _ -> Alcotest.fail "expected a test"

(* Dual-rail implication of [podem]'s current assignment under [fault],
   re-simulated from scratch with Naive's 3-valued gate function. *)
let naive_rails c podem (fault : Fault.t) =
  let n = Circuit.n_gates c in
  let good = Array.make n None and faulty = Array.make n None in
  let stuck = Some fault.stuck in
  let stem g = fault.pin = -1 && fault.gate = g in
  let source g =
    good.(g) <- Podem.assigned podem g;
    faulty.(g) <- (if stem g then stuck else good.(g))
  in
  Array.iter source (Circuit.inputs c);
  Array.iter source (Circuit.dffs c);
  Array.iter
    (fun g ->
      let fi = Array.to_list (Circuit.fanins c g) in
      let kind = Circuit.kind c g in
      good.(g) <- Asc_sim.Naive.eval_gate3 kind (List.map (fun f -> good.(f)) fi);
      faulty.(g) <-
        (if stem g then stuck
         else
           Asc_sim.Naive.eval_gate3 kind
             (List.mapi
                (fun i f -> if fault.gate = g && fault.pin = i then stuck else faulty.(f))
                fi)))
    (Circuit.order c);
  (good, faulty)

(* PODEM's event-driven rails equal a full Naive re-simulation after
   every step of a random walk: runs on random faults (some with random
   [~fixed] pins), then random assigns, flips and unassigns of sources. *)
let implication_matches c ~seed =
  let faults = Collapse.reps (Collapse.run c) in
  let podem = Podem.create c in
  let rng = Rng.create (seed + 5) in
  let sources = Array.append (Circuit.inputs c) (Circuit.dffs c) in
  let pick a = a.(Rng.int rng (Array.length a)) in
  let fault = ref (pick faults) in
  let agrees () =
    let good, faulty = naive_rails c podem !fault in
    List.for_all
      (fun g -> Podem.rails podem g = (good.(g), faulty.(g)))
      (List.init (Circuit.n_gates c) Fun.id)
  in
  let ok = ref true in
  for _ = 1 to 6 do
    fault := pick faults;
    let fixed =
      if Rng.bool rng then []
      else List.init (Rng.int rng 4) (fun _ -> (pick sources, Rng.bool rng))
    in
    ignore (Podem.run ~backtrack_limit:(Rng.int rng 20) ~fixed podem !fault : Podem.result);
    ok := !ok && agrees ();
    for _ = 1 to 8 do
      let g = pick sources in
      (match (Rng.int rng 3, Podem.assigned podem g) with
      | 0, _ -> Podem.assign podem g None
      | 1, Some v -> Podem.assign podem g (Some (not v))
      | _ -> Podem.assign podem g (Some (Rng.bool rng)));
      ok := !ok && agrees ()
    done
  done;
  !ok

let prop_podem_implication =
  QCheck.Test.make ~name:"PODEM incremental implication = Naive dual-rail re-simulation"
    ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      implication_matches (small_circuit ~pis:4 ~ffs:4 ~gates:40 seed) ~seed
      && implication_matches (Asc_circuits.Registry.get "s298") ~seed)

(* Seed-1 PODEM counters of [Pipeline.prepare]: decisions, backtracks,
   aborts, tests, redundant.  Implication is a pure function of the
   assignment, so a faster implication must leave every search
   decision, and hence these counts, unchanged. *)
let test_podem_counters_pinned () =
  List.iter
    (fun (name, want) ->
      let tel = Telemetry.create () in
      ignore (Asc_core.Pipeline.prepare ~tel (Asc_circuits.Registry.get name));
      let snap = Telemetry.drain tel in
      let got =
        List.map (Telemetry.counter_value snap)
          [
            "podem_decisions"; "podem_backtracks"; "podem_aborts"; "podem_tests";
            "podem_redundant";
          ]
      in
      Alcotest.(check (list int)) name want got)
    [
      ("s298", [ 3038; 2915; 3; 14; 51 ]);
      ("s344", [ 3467; 3307; 7; 9; 36 ]);
      ("s382", [ 1456; 1420; 6; 0; 6 ]);
      ("s1423", [ 11057; 8915; 43; 11; 5 ]);
    ]

(* Seed-1 work of s1423's one-domain job, directed and random T0, as
   [asc run s1423 --t0 T --domains 1 --counters] prints it: cone gates,
   faults simulated, faulty cycles, good cycles, detections, budget
   polls, trace-cache hits and misses.  Every count is a function of the
   compaction decisions, so a change that keeps the decisions keeps
   them, and a change that removes work lowers them. *)
let test_s1423_work_pinned () =
  let c = Asc_circuits.Registry.get "s1423" in
  List.iter
    (fun (t0, want) ->
      Asc_fault.Seq_fsim.clear_trace_cache ();
      let config = Result.get_ok (Asc_core.Experiments.config_for ~seed:1 ~t0 "s1423") in
      let tel = Telemetry.create () in
      let prepared = Asc_core.Pipeline.prepare ~tel ~config c in
      ignore
        (Asc_core.Pipeline.run_bounded ~tel ~config prepared : Asc_core.Pipeline.outcome);
      let snap = Telemetry.drain tel in
      let got =
        List.map (Telemetry.counter_value snap)
          [
            "cone_gates_evaluated"; "faults_simulated"; "faulty_cycles"; "good_cycles";
            "fault_detections"; "budget_polls"; "trace_cache_hits"; "trace_cache_misses";
          ]
      in
      Alcotest.(check (list int)) ("s1423 " ^ t0) want got)
    [
      ("directed", [ 28408879; 77800; 767483; 38125; 186974; 24560; 418; 39 ]);
      ("random", [ 19516885; 82929; 994185; 27133; 201387; 22071; 644; 206 ]);
    ]

(* --- Combinational test-set generation --------------------------------- *)

let prop_comb_tgen_complete =
  QCheck.Test.make ~name:"Comb_tgen covers every detectable fault" ~count:6
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = small_circuit ~pis:4 ~ffs:4 ~gates:35 seed in
      let faults = Collapse.reps (Collapse.run c) in
      let rng = Rng.create (seed + 2) in
      let r = Asc_atpg.Comb_tgen.generate c ~faults ~rng in
      (* Classification is a partition modulo aborts. *)
      let classified =
        Bitvec.count (Bitvec.union r.detected (Bitvec.union r.redundant r.aborted))
      in
      if classified <> Array.length faults then false
      else begin
        (* detected/redundant must be disjoint, and the kept tests must
           reproduce the recorded coverage. *)
        Bitvec.is_empty (Bitvec.inter r.detected r.redundant)
        &&
        let cov =
          Bitmat.column_union
            (Asc_fault.Comb_fsim.detect_matrix c ~patterns:r.tests ~faults)
        in
        Bitvec.equal cov r.detected
      end)

(* Exhaustive oracle for the domain-parallel PODEM phase, on circuits
   small enough (<= 16 PIs+FFs) to enumerate every input assignment:
   every fault the parallel generator covers is confirmed by a kept
   pattern through the independent Comb_fsim.patterns_detecting path, and
   every fault it proves redundant is exhaustively undetectable. *)
let prop_parallel_podem_oracle =
  QCheck.Test.make ~name:"parallel Comb_tgen matches the exhaustive oracle" ~count:5
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = small_circuit ~pis:4 ~ffs:4 ~gates:35 seed in
      assert (Circuit.n_inputs c + Circuit.n_dffs c <= 16);
      let faults = Collapse.reps (Collapse.run c) in
      let rng = Rng.create (seed + 3) in
      let pool = Asc_util.Domain_pool.create ~domains:2 () in
      Fun.protect
        ~finally:(fun () -> Asc_util.Domain_pool.shutdown pool)
        (fun () ->
          let r = Asc_atpg.Comb_tgen.generate ~pool c ~faults ~rng in
          let ok = ref true in
          Array.iteri
            (fun fi f ->
              if Bitvec.get r.redundant fi then begin
                if exhaustively_detectable c f then ok := false
              end
              else if Bitvec.get r.detected fi then begin
                (* An emitted pattern must detect the fault, per the
                   independent single-fault oracle. *)
                let witnesses =
                  Asc_fault.Comb_fsim.patterns_detecting c ~patterns:r.tests ~fault:f
                in
                if Bitvec.is_empty witnesses then ok := false
              end)
            faults;
          !ok))

let test_comb_tgen_s27_full_coverage () =
  let c = Asc_circuits.S27.circuit () in
  let faults = Collapse.reps (Collapse.run c) in
  let rng = Rng.create 11 in
  let r = Asc_atpg.Comb_tgen.generate c ~faults ~rng in
  Alcotest.(check int) "full coverage" 32 (Bitvec.count r.detected);
  Alcotest.(check int) "no redundant" 0 (Bitvec.count r.redundant);
  Alcotest.(check int) "no aborted" 0 (Bitvec.count r.aborted);
  (* Compaction keeps the set small. *)
  Alcotest.(check bool) "compact" true (Array.length r.tests <= 12)

(* --- Sequence generators ------------------------------------------------ *)

let test_random_tgen () =
  let rng = Rng.create 3 in
  let seq = Asc_atpg.Random_tgen.generate rng ~n_pis:5 ~len:100 in
  Alcotest.(check int) "length" 100 (Array.length seq);
  Array.iter (fun v -> Alcotest.(check int) "arity" 5 (Array.length v)) seq;
  let start = Array.make 5 false in
  let walk = Asc_atpg.Random_tgen.walk rng ~n_pis:5 ~len:50 ~flip:0.0 ~start in
  Alcotest.(check bool) "flip 0 holds the vector" true
    (Array.for_all (fun v -> v = start) walk)

(* The generators' recorded coverage is the one-shot no-scan simulation
   of their sequence, so Pipeline.make_t0 takes F0 from them instead of
   re-simulating T0. *)
let test_seq_tgen_consistency () =
  List.iter
    (fun name ->
      let c = Asc_circuits.Registry.get name in
      let faults = Collapse.reps (Collapse.run c) in
      let check label seq detected =
        Alcotest.(check bool) (label ^ " non-empty") true (Array.length seq > 0);
        Alcotest.(check bool) (label ^ " within budget") true (Array.length seq <= 120);
        let batch = Asc_fault.Seq_fsim.detect_no_scan c ~seq ~faults in
        Alcotest.(check bool)
          (label ^ " coverage consistent")
          true (Bitvec.equal detected batch)
      in
      let r =
        Asc_atpg.Seq_tgen.generate ~max_length:120 c ~faults ~rng:(Rng.create 4)
      in
      check (name ^ " seq_tgen") r.seq r.detected;
      if name = "s298" then
        Alcotest.(check bool) "detects a majority" true
          (Bitvec.count r.detected * 2 > Array.length faults);
      let g =
        Asc_atpg.Ga_tgen.generate ~max_length:120 c ~faults ~rng:(Rng.create 4)
      in
      check (name ^ " ga_tgen") g.seq g.detected)
    [ "s27"; "s298"; "s344"; "s382"; "b01"; "b06" ]

let suite =
  [
    ( "atpg",
      [
        Alcotest.test_case "scoap basics" `Quick test_scoap_basic;
        Alcotest.test_case "cube fill" `Quick test_cube_fill;
        qtest prop_podem_sound_and_complete;
        Alcotest.test_case "podem fixed pins" `Quick test_podem_fixed_assignment;
        Alcotest.test_case "podem dff pin fault" `Quick test_podem_dff_pin_fault;
        qtest prop_podem_implication;
        Alcotest.test_case "podem counters pinned" `Quick test_podem_counters_pinned;
        Alcotest.test_case "s1423 work pinned" `Quick test_s1423_work_pinned;
        qtest prop_comb_tgen_complete;
        qtest prop_parallel_podem_oracle;
        Alcotest.test_case "comb_tgen s27" `Quick test_comb_tgen_s27_full_coverage;
        Alcotest.test_case "random_tgen" `Quick test_random_tgen;
        Alcotest.test_case "seq_tgen consistency" `Quick test_seq_tgen_consistency;
      ] );
  ]
