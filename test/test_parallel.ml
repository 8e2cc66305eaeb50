(* Tests for the domain-parallel simulation layer.

   Four families: unit tests of Asc_util.Domain_pool itself (scheduling,
   determinism of the merge contract, exception propagation, nesting),
   end-to-end determinism tests asserting that every parallel fault-sim
   entry point returns bit-identical results for 1, 2 and 4 domains — on
   the embedded s27 netlist and on a synthetic circuit from
   Asc_circuits.Generator — tests of Asc_fault.Sweep (its contract, and
   every work counter equal at any domain count), and ATPG determinism
   tests asserting the same for Pipeline.prepare (PODEM + the set C) and
   the T0 generators. *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Seq_fsim = Asc_fault.Seq_fsim
module Comb_fsim = Asc_fault.Comb_fsim

let with_pool n f =
  let pool = Domain_pool.create ~domains:n () in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) (fun () -> f pool)

(* --- Domain_pool unit tests ---------------------------------------- *)

let test_pool_covers_all () =
  List.iter
    (fun domains ->
      with_pool domains (fun pool ->
          let n = 1000 in
          let hit = Array.make n 0 in
          Domain_pool.run pool n (fun i -> hit.(i) <- hit.(i) + 1);
          Alcotest.(check bool)
            (Printf.sprintf "every index ran exactly once (%d domains)" domains)
            true
            (Array.for_all (fun k -> k = 1) hit)))
    [ 1; 2; 4 ]

let test_pool_reuse () =
  with_pool 3 (fun pool ->
      for round = 1 to 5 do
        let n = 100 * round in
        let acc = Array.make n 0 in
        Domain_pool.run pool n (fun i -> acc.(i) <- i);
        let total = Array.fold_left ( + ) 0 acc in
        Alcotest.(check int) "sum" (n * (n - 1) / 2) total
      done)

let test_pool_exception () =
  with_pool 2 (fun pool ->
      match Domain_pool.run pool 64 (fun i -> if i = 13 then failwith "boom") with
      | () -> Alcotest.fail "expected exception"
      | exception Failure msg -> Alcotest.(check string) "message" "boom" msg)

let test_pool_nested () =
  (* A task submitting to its own pool must degrade to inline execution,
     not deadlock. *)
  with_pool 2 (fun pool ->
      let acc = Atomic.make 0 in
      Domain_pool.run pool 4 (fun _ ->
          Domain_pool.run pool 8 (fun _ -> ignore (Atomic.fetch_and_add acc 1)));
      Alcotest.(check int) "nested iterations" 32 (Atomic.get acc))

let test_pool_split () =
  List.iter
    (fun (n, pieces) ->
      let ranges = Domain_pool.split ~n ~pieces in
      let covered = Array.make (max 1 n) false in
      Array.iter
        (fun (start, len) ->
          Alcotest.(check bool) "non-empty range" true (len >= 1);
          for i = start to start + len - 1 do
            Alcotest.(check bool) "no overlap" false covered.(i);
            covered.(i) <- true
          done)
        ranges;
      Alcotest.(check int) "covers [0, n)" n
        (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0
           (if n = 0 then [||] else covered));
      Alcotest.(check bool) "at most pieces" true (Array.length ranges <= max 1 pieces))
    [ (0, 4); (1, 4); (7, 3); (8, 3); (100, 16); (5, 8) ]

let test_pool_env_default () =
  (* ASC_DOMAINS is not readable reliably inside the suite (the runner may
     set it); just check the resolver returns a sane positive count and
     respects an explicit size. *)
  Alcotest.(check bool) "default >= 1" true (Domain_pool.default_domains () >= 1);
  with_pool 1 (fun p -> Alcotest.(check int) "size 1" 1 (Domain_pool.size p));
  with_pool 4 (fun p -> Alcotest.(check int) "size 4" 4 (Domain_pool.size p))

(* --- Fault-simulation determinism across domain counts -------------- *)

let generated_circuit () =
  let profile =
    Asc_circuits.Profile.make ~t0_budget:100 "par-test" 7 5 11 120
  in
  Asc_circuits.Generator.generate ~seed:11 profile

let test_circuits () =
  [ ("s27", Asc_circuits.Registry.get "s27"); ("generated", generated_circuit ()) ]

(* Run [f] sequentially and under pools of 1, 2 and 4 domains; pass every
   result to [check label]. *)
let across_pools ~label ~check f =
  let reference = f None in
  List.iter
    (fun domains ->
      with_pool domains (fun pool ->
          check (Printf.sprintf "%s (%d domains)" label domains) reference
            (f (Some pool))))
    [ 1; 2; 4 ]

let scan_test_of c ~rng ~len =
  let si = Rng.bool_array rng (Circuit.n_dffs c) in
  let seq = Array.init len (fun _ -> Rng.bool_array rng (Circuit.n_inputs c)) in
  (si, seq)

let check_bitvec label a b =
  Alcotest.(check bool) label true (Bitvec.equal a b)

(* The small circuits with collapsed faults and one 48-vector test, and
   two registry circuits at full size: the uncollapsed universe over four
   random 256-vector scan tests. *)
let detect_inputs () =
  let reps (name, c) = (name, c, Asc_fault.Collapse.(reps (run c)), 1, 48) in
  let universe name =
    let c = Asc_circuits.Registry.get name in
    (name, c, Asc_fault.Collapse.(universe (run c)), 4, 256)
  in
  List.map reps (test_circuits ()) @ [ universe "s344"; universe "s1423" ]

let test_detect_deterministic () =
  List.iter
    (fun (name, c, faults, n_tests, len) ->
      let rng = Rng.of_name ~seed:3 (name ^ "/par-detect") in
      for t = 1 to n_tests do
        let si, seq = scan_test_of c ~rng ~len in
        let label what = Printf.sprintf "%s %s #%d" name what t in
        across_pools ~label:(label "detect") ~check:check_bitvec (fun pool ->
            Seq_fsim.detect ?pool c ~si ~seq ~faults);
        across_pools ~label:(label "detect_no_scan") ~check:check_bitvec (fun pool ->
            Seq_fsim.detect_no_scan ?pool c ~seq ~faults)
      done)
    (detect_inputs ())

let test_profile_deterministic () =
  List.iter
    (fun (name, c) ->
      let collapse = Asc_fault.Collapse.run c in
      let faults = Asc_fault.Collapse.reps collapse in
      let rng = Rng.of_name ~seed:5 (name ^ "/par-profile") in
      let si, seq = scan_test_of c ~rng ~len:40 in
      let subset = Array.init (Array.length faults) (fun i -> i) in
      across_pools ~label:(name ^ " profile")
        ~check:(fun label (a : Seq_fsim.profile) (b : Seq_fsim.profile) ->
          Alcotest.(check bool) (label ^ " po_time") true (a.po_time = b.po_time);
          Alcotest.(check bool)
            (label ^ " state_diff_at") true
            (Array.for_all2 Bitvec.equal a.state_diff_at b.state_diff_at))
        (fun pool -> Seq_fsim.profile ?pool c ~si ~seq ~faults ~subset);
      across_pools ~label:(name ^ " verify_required")
        ~check:(fun label a b -> Alcotest.(check bool) label a b)
        (fun pool -> Seq_fsim.verify_required ?pool c ~si ~seq ~faults ~subset))
    (test_circuits ())

let test_candidates_deterministic () =
  List.iter
    (fun (name, c) ->
      let collapse = Asc_fault.Collapse.run c in
      let faults = Asc_fault.Collapse.reps collapse in
      let rng = Rng.of_name ~seed:7 (name ^ "/par-cand") in
      let _, seq = scan_test_of c ~rng ~len:24 in
      let sis =
        Array.init 130 (fun _ -> Rng.bool_array rng (Circuit.n_dffs c))
      in
      let subset = Array.init (Array.length faults) (fun i -> i) in
      across_pools ~label:(name ^ " candidate_detections")
        ~check:(fun label a b ->
          Alcotest.(check bool) label true
            (Bitmat.rows a = Bitmat.rows b
            && Array.for_all
                 (fun r -> Bitvec.equal (Bitmat.row a r) (Bitmat.row b r))
                 (Array.init (Bitmat.rows a) (fun r -> r))))
        (fun pool -> Seq_fsim.candidate_detections ?pool c ~sis ~seq ~faults ~subset))
    (test_circuits ())

let test_comb_deterministic () =
  List.iter
    (fun (name, c) ->
      let collapse = Asc_fault.Collapse.run c in
      let faults = Asc_fault.Collapse.reps collapse in
      let rng = Rng.of_name ~seed:9 (name ^ "/par-comb") in
      let patterns =
        Array.init 150 (fun _ ->
            {
              Asc_sim.Pattern.pis = Rng.bool_array rng (Circuit.n_inputs c);
              state = Rng.bool_array rng (Circuit.n_dffs c);
            })
      in
      across_pools ~label:(name ^ " comb detect_matrix union") ~check:check_bitvec
        (fun pool ->
          Bitmat.column_union (Comb_fsim.detect_matrix ?pool c ~patterns ~faults));
      across_pools ~label:(name ^ " comb detect_matrix")
        ~check:(fun label a b ->
          Alcotest.(check bool) label true
            (Array.for_all
               (fun r -> Bitvec.equal (Bitmat.row a r) (Bitmat.row b r))
               (Array.init (Bitmat.rows a) (fun r -> r))))
        (fun pool -> Comb_fsim.detect_matrix ?pool c ~patterns ~faults))
    (test_circuits ())

(* --- Sweep: the one chunked loop behind every fault simulator -------- *)

module Sweep = Asc_fault.Sweep

let counter tel name = Telemetry.counter_value (Telemetry.drain tel) name

(* Items come back in index order, and every item of a chunk runs on that
   chunk's engine: the engines read along the items never decrease. *)
let test_sweep_order () =
  let check label out =
    Alcotest.(check (array int)) (label ^ " results") (Array.init 257 (fun i -> i * i))
      (Array.map snd out);
    Alcotest.(check bool) (label ^ " contiguous chunks") true
      (Array.for_all (fun i -> fst out.(i - 1) <= fst out.(i)) (Array.init 256 succ))
  in
  let sweep pool =
    Sweep.run ?pool ~engine:Fun.id ~evaluated:(fun _ -> 0) ~init:(-1, -1) 257
      (fun ci _ i -> (ci, i * i))
  in
  check "no pool" (sweep None);
  List.iter
    (fun domains ->
      with_pool domains (fun pool ->
          check (Printf.sprintf "%d domains" domains) (sweep (Some pool))))
    [ 1; 2; 4 ]

(* At one domain, the item that meets [stop] is the last to run. *)
let test_sweep_stop () =
  let run pool =
    let ran = Array.make 100 false in
    let out =
      Sweep.run ?pool ~stop:(fun r -> r = 10) ~engine:ignore
        ~evaluated:(fun () -> 0)
        ~init:(-1) 100
        (fun () _ i ->
          ran.(i) <- true;
          i)
    in
    Alcotest.(check (array int)) "later items keep init"
      (Array.init 100 (fun i -> if i <= 10 then i else -1))
      out;
    Alcotest.(check (array bool))
      "later items never ran"
      (Array.init 100 (fun i -> i <= 10))
      ran
  in
  run None;
  with_pool 1 (fun pool -> run (Some pool))

let test_sweep_budget () =
  let budget = Budget.create () in
  Budget.cancel budget;
  let ran = ref 0 in
  (match
     Sweep.run ~budget ~engine:ignore ~evaluated:(fun () -> 0) ~init:() 10 (fun () _ _ ->
         incr ran)
   with
  | _ -> Alcotest.fail "expected Budget.Exhausted"
  | exception Budget.Exhausted Budget.Cancelled -> ());
  Alcotest.(check int) "no item ran" 0 !ran

(* Polls are counted only when a budget is given; the work the steps
   report and the engines' evaluated gates are counted once per chunk. *)
let test_sweep_accounting () =
  let run ?budget () =
    let tel = Telemetry.create () in
    ignore
      (Sweep.run ?budget ~tel ~engine:ignore ~evaluated:(fun () -> 1) ~init:() 10
         (fun () w _ ->
           w.lanes <- w.lanes + 2;
           w.cycles <- w.cycles + 3;
           w.hits <- w.hits + 1)
        : unit array);
    List.map
      (Telemetry.counter_value (Telemetry.drain tel))
      [
        "budget_polls"; "faults_simulated"; "faulty_cycles"; "fault_detections";
        "cone_gates_evaluated";
      ]
  in
  Alcotest.(check (list int))
    "with a budget" [ 10; 20; 30; 10; 4 ]
    (run ~budget:Budget.unlimited ());
  Alcotest.(check (list int)) "without a budget" [ 0; 20; 30; 10; 4 ] (run ())

(* Every counter of every swept entry point is the same at any domain
   count (the pools carry no telemetry of their own, which would add
   their task counts).  [verify_required] is left out: across domains
   its chunks race to the shared stop flag. *)
let test_sweep_counters_invariant () =
  List.iter
    (fun name ->
      let c = Asc_circuits.Registry.get name in
      let faults = Asc_fault.Collapse.(reps (run c)) in
      let all = Array.init (Array.length faults) Fun.id in
      let rng = Rng.of_name ~seed:21 (name ^ "/sweep-counters") in
      let si, seq = scan_test_of c ~rng ~len:40 in
      let sis = Array.init 70 (fun _ -> Rng.bool_array rng (Circuit.n_dffs c)) in
      let patterns =
        Array.init 100 (fun _ ->
            {
              Asc_sim.Pattern.pis = Rng.bool_array rng (Circuit.n_inputs c);
              state = Rng.bool_array rng (Circuit.n_dffs c);
            })
      in
      (* A partial-scan start: even flip-flops scanned in and observed,
         odd ones X and unobserved. *)
      let start =
        Bytes.init (Circuit.n_dffs c) (fun i ->
            if i mod 2 = 0 then Asc_sim.Kernel3.of_bool si.(i) else Asc_sim.Kernel3.x)
      in
      let observe = Array.init (Circuit.n_dffs c) (fun i -> i mod 2 = 0) in
      let inc3 ?pool ~tel () =
        let t = Seq_fsim.inc3_create c faults in
        for s = 0 to 9 do
          let segment = Array.sub seq (4 * s) 4 in
          ignore (Seq_fsim.inc3_peek ?pool ~tel t segment : int);
          ignore (Seq_fsim.inc3_commit ?pool ~tel t segment : int)
        done
      in
      let entries =
        [
          ( "detect",
            fun ?pool ~tel () -> ignore (Seq_fsim.detect ?pool ~tel c ~si ~seq ~faults) );
          ( "profile",
            fun ?pool ~tel () ->
              ignore (Seq_fsim.profile ?pool ~tel c ~si ~seq ~faults ~subset:all) );
          ( "snapshots",
            fun ?pool ~tel () ->
              ignore
                (Seq_fsim.snapshots ?pool ~tel c ~si ~seq ~faults ~subset:all
                   ~boundaries:[| 0; 13; 40 |]) );
          ( "candidate_detections",
            fun ?pool ~tel () ->
              ignore
                (Seq_fsim.candidate_detections ?pool ~tel c ~sis ~seq ~faults ~subset:all)
          );
          ( "detect_no_scan",
            fun ?pool ~tel () ->
              ignore (Seq_fsim.detect_no_scan ?pool ~tel c ~seq ~faults) );
          ( "detect3",
            fun ?pool ~tel () ->
              ignore (Seq_fsim.detect3 ?pool ~tel ~start ~observe c ~seq ~faults) );
          ( "profile3",
            fun ?pool ~tel () ->
              ignore
                (Seq_fsim.profile3 ?pool ~tel ~start ~observe c ~seq ~faults ~subset:all) );
          ("inc3_peek/inc3_commit", inc3);
          ( "detect_matrix",
            fun ?pool ~tel () ->
              ignore (Comb_fsim.detect_matrix ?pool ~tel c ~patterns ~faults) );
        ]
      in
      List.iter
        (fun (label, (f : ?pool:Domain_pool.t -> tel:Telemetry.t -> unit -> unit)) ->
          across_pools ~label:(name ^ " " ^ label)
            ~check:(fun label a b -> Alcotest.(check (list (pair string int))) label a b)
            (fun pool ->
              Seq_fsim.clear_trace_cache ();
              let tel = Telemetry.create () in
              f ?pool ~tel ();
              (Telemetry.drain tel).counters))
        entries)
    [ "s298"; "s1423" ]

(* A peek polls the budget once per fault group, and counts each poll; a
   commit polls on entry only, uncounted. *)
let test_peek_polls_per_group () =
  let c = Asc_circuits.Registry.get "s298" in
  let faults = Asc_fault.Collapse.(reps (run c)) in
  let rng = Rng.of_name ~seed:23 "s298/peek-polls" in
  let _, segment = scan_test_of c ~rng ~len:20 in
  let t = Seq_fsim.inc3_create c faults in
  let tel = Telemetry.create () in
  Alcotest.(check bool)
    "the segment detects" true
    (Seq_fsim.inc3_peek ~tel t segment > 0);
  Alcotest.(check int) "one poll per group"
    ((Array.length faults + Word.width - 1) / Word.width)
    (counter tel "budget_polls");
  ignore (Seq_fsim.inc3_commit ~tel t segment : int);
  Alcotest.(check int) "commit polls uncounted" 0 (counter tel "budget_polls")

(* --- ATPG (prepare) determinism across domain counts ----------------- *)

let check_pattern_array label (a : Asc_sim.Pattern.t array) b =
  Alcotest.(check int) (label ^ " count") (Array.length a) (Array.length b);
  Alcotest.(check bool) (label ^ " contents") true
    (Array.for_all2 (fun (p : Asc_sim.Pattern.t) (q : Asc_sim.Pattern.t) ->
         p.pis = q.pis && p.state = q.state)
       a b)

(* Pipeline.prepare — PODEM, the set C, the redundancy proofs — must be
   bit-identical for any domain count, on s27, a generated circuit and two
   paper-profile stand-ins. *)
let test_prepare_deterministic () =
  List.iter
    (fun (name, c) ->
      let reference = Asc_core.Pipeline.prepare c in
      List.iter
        (fun domains ->
          with_pool domains (fun pool ->
              let p = Asc_core.Pipeline.prepare ~pool c in
              let label what =
                Printf.sprintf "%s prepare %s (%d domains)" name what domains
              in
              check_pattern_array (label "comb_tests") reference.comb_tests
                p.comb_tests;
              check_bitvec (label "comb_detected") reference.comb_detected
                p.comb_detected;
              check_bitvec (label "redundant") reference.redundant p.redundant;
              check_bitvec (label "aborted") reference.aborted p.aborted;
              check_bitvec (label "targets") reference.targets p.targets))
        [ 1; 2; 4 ])
    (test_circuits ()
    @ List.map (fun name -> (name, Asc_circuits.Registry.get name)) [ "s298"; "s344" ])

(* The T0 generators fan their candidate co-simulation out over fault
   groups; the committed sequence must not depend on the domain count. *)
let test_t0_deterministic () =
  let name, c = ("s298", Asc_circuits.Registry.get "s298") in
  let faults = Asc_fault.Collapse.reps (Asc_fault.Collapse.run c) in
  let directed pool =
    let rng = Rng.of_name ~seed:13 (name ^ "/par-t0") in
    (Asc_atpg.Seq_tgen.generate ?pool ~max_length:60 c ~faults ~rng).seq
  in
  let genetic pool =
    let rng = Rng.of_name ~seed:17 (name ^ "/par-ga") in
    (Asc_atpg.Ga_tgen.generate ?pool ~max_length:30 ~generations:2 c ~faults ~rng).seq
  in
  List.iter
    (fun (label, gen) ->
      across_pools ~label
        ~check:(fun label (a : bool array array) b ->
          Alcotest.(check bool) label true (a = b))
        gen)
    [ ("seq_tgen domain-invariant", directed); ("ga_tgen domain-invariant", genetic) ]

(* End to end: the whole pipeline under a pool equals the sequential run
   on the cheapest benchmark circuit. *)
let test_pipeline_deterministic () =
  let c = Asc_circuits.Registry.get "s27" in
  let config =
    { Asc_core.Pipeline.default_config with
      t0_source = Asc_core.Pipeline.Directed 200 }
  in
  let prepared = Asc_core.Pipeline.prepare ~config c in
  let reference = Asc_core.Pipeline.run ~config prepared in
  with_pool 4 (fun pool ->
      let parallel = Asc_core.Pipeline.run ~pool ~config prepared in
      Alcotest.(check bool)
        "final coverage identical" true
        (Bitvec.equal reference.final_detected parallel.final_detected);
      Alcotest.(check int)
        "final cycles identical" reference.cycles_final parallel.cycles_final;
      Alcotest.(check bool)
        "final tests identical" true
        (Array.for_all2 Asc_scan.Scan_test.equal reference.final_tests
           parallel.final_tests))

let suite =
  [
    ( "parallel",
      [
        Alcotest.test_case "pool runs every index once" `Quick test_pool_covers_all;
        Alcotest.test_case "pool is reusable across jobs" `Quick test_pool_reuse;
        Alcotest.test_case "pool re-raises task exceptions" `Quick test_pool_exception;
        Alcotest.test_case "nested pool runs degrade inline" `Quick test_pool_nested;
        Alcotest.test_case "split covers without overlap" `Quick test_pool_split;
        Alcotest.test_case "pool sizing" `Quick test_pool_env_default;
        Alcotest.test_case "detect is domain-count invariant" `Quick
          test_detect_deterministic;
        Alcotest.test_case "profile is domain-count invariant" `Quick
          test_profile_deterministic;
        Alcotest.test_case "candidate detections are domain-count invariant" `Quick
          test_candidates_deterministic;
        Alcotest.test_case "comb fsim is domain-count invariant" `Quick
          test_comb_deterministic;
        Alcotest.test_case "sweep returns results in index order" `Quick test_sweep_order;
        Alcotest.test_case "sweep stop leaves later items unrun" `Quick test_sweep_stop;
        Alcotest.test_case "sweep raises on a fired budget" `Quick test_sweep_budget;
        Alcotest.test_case "sweep counts polls only with a budget" `Quick
          test_sweep_accounting;
        Alcotest.test_case "sweep counters are domain-count invariant" `Quick
          test_sweep_counters_invariant;
        Alcotest.test_case "peek counts one poll per group" `Quick
          test_peek_polls_per_group;
        Alcotest.test_case "prepare is domain-count invariant" `Quick
          test_prepare_deterministic;
        Alcotest.test_case "t0 generators are domain-count invariant" `Quick
          test_t0_deterministic;
        Alcotest.test_case "pipeline is domain-count invariant" `Quick
          test_pipeline_deterministic;
      ] );
  ]
