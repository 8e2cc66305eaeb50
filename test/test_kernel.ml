(* Kernel-equivalence suite: the levelized event-driven kernel
   (--sim-kernel=levelized, the default) must be bit-identical to the
   interpretive reference sweep (--sim-kernel=reference) — same detection
   vectors, same profiles, same candidate matrices — on every registry
   circuit and at every domain count.  This is the contract that lets the
   reference path serve as a bisection escape hatch. *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Collapse = Asc_fault.Collapse
module Seq_fsim = Asc_fault.Seq_fsim
module SK = Asc_sim.Sim_kernel

let qtest = QCheck_alcotest.to_alcotest

let with_kernel k f =
  let saved = SK.current () in
  SK.set k;
  Fun.protect ~finally:(fun () -> SK.set saved) f

let with_pool domains f =
  if domains <= 1 then f None
  else
    let pool = Domain_pool.create ~domains () in
    Fun.protect
      ~finally:(fun () -> Domain_pool.shutdown pool)
      (fun () -> f (Some pool))

(* Deterministic per-circuit test stimulus. *)
let stimulus c name ~len =
  let rng = Rng.of_name ~seed:0 (name ^ "/kernel-equiv") in
  let si = Rng.bool_array rng (Circuit.n_dffs c) in
  let seq = Array.init len (fun _ -> Rng.bool_array rng (Circuit.n_inputs c)) in
  (si, seq)

(* Every registry circuit: the levelized detection vector at 1, 2 and 4
   domains equals the reference one. *)
let test_registry_detect_equivalence () =
  List.iter
    (fun name ->
      let c = Asc_circuits.Registry.get name in
      let faults = Collapse.reps (Collapse.run c) in
      let si, seq = stimulus c name ~len:6 in
      let reference =
        with_kernel SK.Reference (fun () -> Seq_fsim.detect c ~si ~seq ~faults)
      in
      List.iter
        (fun domains ->
          with_pool domains (fun pool ->
              let det =
                with_kernel SK.Levelized (fun () ->
                    Seq_fsim.clear_trace_cache ();
                    Seq_fsim.detect ?pool c ~si ~seq ~faults)
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s: levelized = reference at %d domains" name
                   domains)
                true
                (Bitvec.equal reference det)))
        [ 1; 2; 4 ])
    Asc_circuits.Registry.names

(* The richer entry points — profile, candidate_detections,
   verify_required — on a representative circuit, across domain counts. *)
let test_rich_ops_equivalence () =
  let name = "s298" in
  let c = Asc_circuits.Registry.get name in
  let faults = Collapse.reps (Collapse.run c) in
  let si, seq = stimulus c name ~len:8 in
  let subset = Array.init (Array.length faults) Fun.id in
  let rng = Rng.of_name ~seed:1 (name ^ "/kernel-equiv-sis") in
  let sis =
    Array.init 5 (fun _ -> Rng.bool_array rng (Circuit.n_dffs c))
  in
  let run kernel pool =
    with_kernel kernel (fun () ->
        Seq_fsim.clear_trace_cache ();
        let prof = Seq_fsim.profile ?pool c ~si ~seq ~faults ~subset in
        let cand =
          Seq_fsim.candidate_detections ?pool c ~sis ~seq ~faults ~subset
        in
        let required = Seq_fsim.verify_required ?pool c ~si ~seq ~faults ~subset in
        (prof, cand, required))
  in
  let ref_prof, ref_cand, ref_req = run SK.Reference None in
  List.iter
    (fun domains ->
      with_pool domains (fun pool ->
          let prof, cand, required = run SK.Levelized pool in
          let label fmt = Printf.sprintf fmt domains in
          Alcotest.(check (array int))
            (label "profile po_time at %d domains")
            ref_prof.Seq_fsim.po_time prof.Seq_fsim.po_time;
          Alcotest.(check bool)
            (label "profile state_diff_at at %d domains")
            true
            (Array.for_all2 Bitvec.equal ref_prof.Seq_fsim.state_diff_at
               prof.Seq_fsim.state_diff_at);
          Alcotest.(check bool)
            (label "candidate matrix at %d domains")
            true
            (Array.for_all2
               (fun r -> Bitvec.equal (Bitmat.row ref_cand r))
               (Array.init (Array.length sis) Fun.id)
               (Array.init (Array.length sis) (Bitmat.row cand)));
          Alcotest.(check bool)
            (label "verify_required at %d domains")
            ref_req required))
    [ 1; 2; 4 ]

(* --- Property: cone-limited evaluation = full re-simulation ----------- *)

let small_circuit seed =
  Asc_circuits.Profile.make "kq" 4 3 5 45 ~t0_budget:10
  |> Asc_circuits.Generator.generate ~seed

(* The levelized kernel only evaluates the fanout cone of the fault sites
   and diverged flip-flops, with early exit on reconvergence and
   detected-lane pruning; the reference sweep re-simulates every gate of
   every cycle.  On random circuits and random fault subsets both must
   agree on detection and on the full detection-time profile (the profile
   prunes a lane only at its first PO detection, so scan-out-only faults
   pin the cone walk over the whole test). *)
let prop_cone_matches_full_resim =
  QCheck.Test.make
    ~name:"cone-limited fault evaluation matches full re-simulation" ~count:12
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = small_circuit seed in
      let all = Collapse.reps (Collapse.run c) in
      let rng = Rng.create (seed + 23) in
      (* A random subset of the collapsed faults, so fault-site seeds sit
         at arbitrary places in the schedule. *)
      let faults =
        Array.of_list
          (List.filter (fun _ -> Rng.bool rng) (Array.to_list all))
      in
      let faults = if Array.length faults = 0 then all else faults in
      let subset = Array.init (Array.length faults) Fun.id in
      let si = Rng.bool_array rng (Circuit.n_dffs c) in
      let seq = Array.init 7 (fun _ -> Rng.bool_array rng (Circuit.n_inputs c)) in
      let run kernel =
        with_kernel kernel (fun () ->
            Seq_fsim.clear_trace_cache ();
            let det = Seq_fsim.detect c ~si ~seq ~faults in
            let prof = Seq_fsim.profile c ~si ~seq ~faults ~subset in
            (det, prof))
      in
      let ref_det, ref_prof = run SK.Reference in
      let lv_det, lv_prof = run SK.Levelized in
      Bitvec.equal ref_det lv_det
      && ref_prof.Seq_fsim.po_time = lv_prof.Seq_fsim.po_time
      && Array.for_all2 Bitvec.equal ref_prof.Seq_fsim.state_diff_at
           lv_prof.Seq_fsim.state_diff_at)

(* Combinational path: the per-pattern detect matrix is kernel-independent. *)
let prop_comb_matrix_kernel_independent =
  QCheck.Test.make ~name:"Comb_fsim matrix is kernel-independent" ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = small_circuit seed in
      let faults = Collapse.reps (Collapse.run c) in
      let rng = Rng.create (seed + 29) in
      let patterns =
        Array.init 40 (fun _ ->
            Asc_sim.Pattern.random rng ~n_pis:(Circuit.n_inputs c)
              ~n_ffs:(Circuit.n_dffs c))
      in
      let run kernel =
        with_kernel kernel (fun () ->
            Asc_fault.Comb_fsim.detect_matrix c ~patterns ~faults)
      in
      let ref_mat = run SK.Reference in
      let lv_mat = run SK.Levelized in
      let ok = ref true in
      for p = 0 to Array.length patterns - 1 do
        if not (Bitvec.equal (Bitmat.row ref_mat p) (Bitmat.row lv_mat p)) then
          ok := false
      done;
      !ok)

(* --- Property: resumed verification = simulation from time 0 -------- *)

(* Snapshot (si, seq) at a random cut [p] (plus other random boundaries),
   then resume over a random suffix: the resumed verdict and PO times
   must equal [verify_required] and [profile] of seq[0,p) . suffix, for a
   random fault subset that includes every scan-out-only fault of that
   sequence, both on the whole subset (usually failing) and on its
   detected part (passing).  A snapshot of that subset alone (fault
   positions no longer equal fault indices) must behave the same. *)
let resume_matches c ~seed ~pool =
  let faults = Collapse.reps (Collapse.run c) in
  let all = Array.init (Array.length faults) Fun.id in
  let rng = Rng.create (seed + 31) in
  let vec () = Rng.bool_array rng (Circuit.n_inputs c) in
  let len = 1 + Rng.int rng 8 in
  let si = Rng.bool_array rng (Circuit.n_dffs c) in
  let seq = Array.init len (fun _ -> vec ()) in
  let p = match Rng.int rng 4 with 0 -> 0 | 1 -> len | _ -> Rng.int rng (len + 1) in
  let suffix = Array.init (Rng.int rng 6 + if p = 0 then 1 else 0) (fun _ -> vec ()) in
  let joined = Array.append (Array.sub seq 0 p) suffix in
  let prof_joined = Seq_fsim.profile ?pool c ~si ~seq:joined ~faults ~subset:all in
  let detected = Seq_fsim.detect ?pool c ~si ~seq:joined ~faults in
  let pick f = Array.of_list (List.filter f (Array.to_list all)) in
  let subset =
    pick (fun f ->
        Rng.int rng 3 = 0
        || (Bitvec.get detected f && prof_joined.Seq_fsim.po_time.(f) = max_int))
  in
  let det_subset = Array.of_list (List.filter (Bitvec.get detected) (Array.to_list subset)) in
  (* [p] first, then up to three more distinct boundaries. *)
  let others = List.sort_uniq compare (List.init 3 (fun _ -> Rng.int rng (len + 1))) in
  let boundaries = Array.of_list (p :: List.filter (( <> ) p) others) in
  let po_time, snaps = Seq_fsim.snapshots ?pool c ~si ~seq ~faults ~subset:all ~boundaries in
  let of_subset =
    (snd (Seq_fsim.snapshots ?pool c ~si ~seq ~faults ~subset ~boundaries:[| p |])).(0)
  in
  let agrees snap =
    List.for_all
      (fun sub ->
        Seq_fsim.resume_verify ?pool c snap ~suffix ~faults ~subset:sub
        = Seq_fsim.verify_required ?pool c ~si ~seq:joined ~faults ~subset:sub
        && Seq_fsim.resume_po_time ?pool c snap ~suffix ~faults ~subset:sub
           = Array.map (fun f -> prof_joined.Seq_fsim.po_time.(f)) sub)
      [ subset; det_subset ]
  in
  po_time = (Seq_fsim.profile ?pool c ~si ~seq ~faults ~subset:all).Seq_fsim.po_time
  && agrees snaps.(0) && agrees of_subset

let prop_resume_matches_from_scratch =
  QCheck.Test.make ~name:"resumed verify/po_time match simulation from time 0" ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let s298 = Asc_circuits.Registry.get "s298" in
      List.for_all
        (fun domains ->
          with_pool domains (fun pool ->
              resume_matches (small_circuit seed) ~seed ~pool
              && resume_matches s298 ~seed ~pool))
        [ 1; 2 ])

(* The trace cache recalls a test's good trace by (scan-in, seq): a
   repeated detect -> profile of one test misses once and hits once, a
   snapshot pass over it hits again, and a resumed verify computes its
   suffix rows without a lookup. *)
let test_trace_cache_counts () =
  let c = Asc_circuits.Registry.get "s298" in
  let faults = Collapse.reps (Collapse.run c) in
  let subset = Array.init (Array.length faults) Fun.id in
  let si, seq = stimulus c "s298" ~len:8 in
  let tel = Telemetry.create () in
  with_kernel SK.Levelized (fun () ->
      Seq_fsim.clear_trace_cache ();
      ignore (Seq_fsim.detect ~tel c ~si ~seq ~faults);
      ignore (Seq_fsim.profile ~tel c ~si ~seq ~faults ~subset);
      let _, snaps = Seq_fsim.snapshots ~tel c ~si ~seq ~faults ~subset ~boundaries:[| 4 |] in
      ignore (Seq_fsim.resume_verify ~tel c snaps.(0) ~suffix:seq ~faults ~subset);
      ignore (Seq_fsim.verify_required ~tel c ~si ~seq:(Array.sub seq 0 4) ~faults ~subset));
  let snap = Telemetry.drain tel in
  Alcotest.(check (pair int int))
    "hits, misses" (2, 2)
    (Telemetry.counter_value snap "trace_cache_hits", Telemetry.counter_value snap "trace_cache_misses")

let suite =
  [
    ( "kernel",
      [
        Alcotest.test_case
          "registry detect: levelized = reference at 1/2/4 domains" `Slow
          test_registry_detect_equivalence;
        Alcotest.test_case "profile/candidates/verify: levelized = reference"
          `Quick test_rich_ops_equivalence;
        qtest prop_cone_matches_full_resim;
        qtest prop_resume_matches_from_scratch;
        Alcotest.test_case "trace cache hit/miss counts" `Quick test_trace_cache_counts;
        qtest prop_comb_matrix_kernel_independent;
      ] );
  ]
