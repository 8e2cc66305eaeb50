(* Kernel suite: every Seq_fsim entry point — detect, profile,
   candidate_detections, verify_required, and the snapshot/resume pair —
   runs on the levelized kernel, and is checked here against
   Fault_oracle, a scalar faulty simulator built on Naive that shares no
   code with it: same detection vectors, the same first-PO times and
   state differences, the same candidate matrices and verdicts, on the
   registry circuits and on random small circuits, at every domain
   count. *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Collapse = Asc_fault.Collapse
module Seq_fsim = Asc_fault.Seq_fsim

let qtest = QCheck_alcotest.to_alcotest

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

(* Does the kernel's profile of [faults] over [subset] agree with the
   oracle: the first-PO time, and the per-cycle state difference up to
   it (the .mli's masking)? *)
let profile_matches c (prof : Seq_fsim.profile) good faults =
  Array.for_all Fun.id
    (Array.mapi
       (fun k fi ->
         let o = Fault_oracle.simulate c good faults.(fi) in
         o.po_time = prof.po_time.(k) && Bitvec.equal o.state_diff prof.state_diff_at.(k))
       prof.subset)

(* Every registry circuit: the detection vector at 1, 2 and 4 domains
   equals the oracle's.  The scalar oracle re-evaluates the whole circuit
   per fault and cycle, which on the two largest circuits (s5378, s35932)
   costs seconds; there the kernel still simulates the full list but only
   every 8th fault is compared with the oracle.  The 2- and 4-domain
   vectors must equal the 1-domain one on every fault. *)
let test_registry_detect () =
  List.iter
    (fun name ->
      let c = Asc_circuits.Registry.get name in
      let faults = Collapse.reps (Collapse.run c) in
      let si, seq = stimulus c name ~len:6 in
      let good = Fault_oracle.good_run c ~si ~seq in
      let stride = if Circuit.n_gates c > 2000 then 8 else 1 in
      let compared =
        List.filter (fun fi -> fi mod stride = 0) (List.init (Array.length faults) Fun.id)
      in
      let expected =
        List.map (fun fi -> Fault_oracle.(detected (simulate c good faults.(fi)))) compared
      in
      let det1 = ref None in
      List.iter
        (fun domains ->
          with_pool domains (fun pool ->
              Seq_fsim.clear_trace_cache ();
              let det = Seq_fsim.detect ?pool c ~si ~seq ~faults in
              Alcotest.(check (list bool))
                (Printf.sprintf "%s: kernel = naive at %d domains" name domains)
                expected
                (List.map (Bitvec.get det) compared);
              match !det1 with
              | None -> det1 := Some det
              | Some d1 ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: %d domains = 1 domain" name domains)
                    true (Bitvec.equal d1 det)))
        [ 1; 2; 4 ])
    Asc_circuits.Registry.names

(* The richer entry points — profile, candidate_detections,
   verify_required — on a representative circuit, across domain counts. *)
let test_rich_ops () =
  let name = "s298" in
  let c = Asc_circuits.Registry.get name in
  let faults = Collapse.reps (Collapse.run c) in
  let si, seq = stimulus c name ~len:8 in
  let subset = Array.init (Array.length faults) Fun.id in
  let rng = Rng.of_name ~seed:1 (name ^ "/kernel-equiv-sis") in
  let sis = Array.init 5 (fun _ -> Rng.bool_array rng (Circuit.n_dffs c)) in
  let good = Fault_oracle.good_run c ~si ~seq in
  let detected, missed =
    List.partition
      (fun fi -> Fault_oracle.(detected (simulate c good faults.(fi))))
      (Array.to_list subset)
  in
  Alcotest.(check bool) "the stimulus misses some fault" true (missed <> []);
  (* A failing subset: the detected faults plus one the test misses,
     placed last so the early exit cannot fire before it. *)
  let failing = Array.of_list (detected @ [ List.hd missed ]) in
  let cand_expected =
    Array.map
      (fun si' ->
        let good' = Fault_oracle.good_run c ~si:si' ~seq in
        Array.map (fun f -> Fault_oracle.(detected (simulate c good' f))) faults)
      sis
  in
  List.iter
    (fun domains ->
      with_pool domains (fun pool ->
          Seq_fsim.clear_trace_cache ();
          let label fmt = Printf.sprintf fmt domains in
          let prof = Seq_fsim.profile ?pool c ~si ~seq ~faults ~subset in
          Alcotest.(check bool)
            (label "profile po_time and state_diff_at at %d domains")
            true (profile_matches c prof good faults);
          let cand = Seq_fsim.candidate_detections ?pool c ~sis ~seq ~faults ~subset in
          Alcotest.(check bool)
            (label "candidate matrix at %d domains")
            true
            (Array.for_all
               (fun r ->
                 Array.for_all Fun.id
                   (Array.mapi (fun fi e -> Bitmat.get cand r fi = e) cand_expected.(r)))
               (Array.init (Array.length sis) Fun.id));
          let verify sub = Seq_fsim.verify_required ?pool c ~si ~seq ~faults ~subset:sub in
          Alcotest.(check (list bool))
            (label "verify_required at %d domains")
            [ false; true; false ]
            [ verify subset; verify (Array.of_list detected); verify failing ]))
    [ 1; 2; 4 ]

(* --- Property: cone-limited evaluation = full re-simulation ----------- *)

let small_circuit seed =
  Asc_circuits.Profile.make "kq" 4 3 5 45 ~t0_budget:10
  |> Asc_circuits.Generator.generate ~seed

(* The levelized kernel only evaluates the fanout cone of the fault sites
   and diverged flip-flops, with early exit on reconvergence and
   detected-lane pruning; the oracle re-simulates every gate of every
   cycle.  On random circuits and random fault subsets both must agree
   on detection and on the full detection-time profile (the profile
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
      let good = Fault_oracle.good_run c ~si ~seq in
      Seq_fsim.clear_trace_cache ();
      let det = Seq_fsim.detect c ~si ~seq ~faults in
      let prof = Seq_fsim.profile c ~si ~seq ~faults ~subset in
      Array.for_all
        (fun fi ->
          Bitvec.get det fi = Fault_oracle.(detected (simulate c good faults.(fi))))
        subset
      && profile_matches c prof good faults)

(* --- Property: resumed verification = simulation from time 0 -------- *)

(* Snapshot (si, seq) at a random cut [p] (plus other random boundaries),
   then resume over a suffix — random, or a tail of [seq] as in vector
   omission: the resumed verdict and PO times must equal
   [verify_required] and [profile] of seq[0,p) . suffix, for a random
   fault subset that includes every scan-out-only fault of that
   sequence, both on the whole subset (usually failing) and on its
   detected part (passing).  A snapshot of that subset alone (fault
   positions no longer equal fault indices) must behave the same.

   Each resume also names a rejoin reference, which must not change any
   answer: the joined test itself (rejoined at once), (si, seq), a
   random scan-in and prefix before the suffix (the good states may meet
   later or never), or such a test whose last vector differs (no common
   tail).  Its trace is cached first, except now and then. *)
let resume_matches c ~seed ~pool =
  let faults = Collapse.reps (Collapse.run c) in
  let all = Array.init (Array.length faults) Fun.id in
  let rng = Rng.create (seed + 31) in
  let vec () = Rng.bool_array rng (Circuit.n_inputs c) in
  let len = 1 + Rng.int rng 8 in
  let si = Rng.bool_array rng (Circuit.n_dffs c) in
  let seq = Array.init len (fun _ -> vec ()) in
  let p = match Rng.int rng 4 with 0 -> 0 | 1 -> len | _ -> Rng.int rng (len + 1) in
  let suffix =
    if p < len && Rng.int rng 3 = 0 then Array.sub seq (p + 1) (len - p - 1)
    else Array.init (Rng.int rng 6 + if p = 0 then 1 else 0) (fun _ -> vec ())
  in
  let suffix = if p = 0 && Array.length suffix = 0 then [| vec () |] else suffix in
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
  let rejoin =
    let prefix () = Array.init (Rng.int rng 4) (fun _ -> vec ()) in
    let other_si () = Rng.bool_array rng (Circuit.n_dffs c) in
    let r_si, r_seq =
      match Rng.int rng 4 with
      | 0 -> (si, joined)
      | 1 -> (si, seq)
      | 2 -> (other_si (), Array.append (prefix ()) suffix)
      | _ ->
          let r = Array.append (prefix ()) (Array.map Array.copy suffix) in
          if Array.length r = 0 then (other_si (), [| vec () |])
          else begin
            let last = r.(Array.length r - 1) in
            last.(0) <- not last.(0);
            (other_si (), r)
          end
    in
    if Rng.int rng 5 = 0 then Seq_fsim.clear_trace_cache ()
    else ignore (Seq_fsim.detect c ~si:r_si ~seq:r_seq ~faults);
    (r_si, r_seq)
  in
  let agrees snap =
    List.for_all
      (fun sub ->
        List.for_all
          (fun rejoin ->
            Seq_fsim.resume_verify ?pool ?rejoin c snap ~suffix ~faults ~subset:sub
            = Seq_fsim.verify_required ?pool c ~si ~seq:joined ~faults ~subset:sub
            && Seq_fsim.resume_po_time ?pool ?rejoin c snap ~suffix ~faults ~subset:sub
               = Array.map (fun f -> prof_joined.Seq_fsim.po_time.(f)) sub)
          [ None; Some rejoin ])
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
  Seq_fsim.clear_trace_cache ();
  ignore (Seq_fsim.detect ~tel c ~si ~seq ~faults);
  ignore (Seq_fsim.profile ~tel c ~si ~seq ~faults ~subset);
  let _, snaps = Seq_fsim.snapshots ~tel c ~si ~seq ~faults ~subset ~boundaries:[| 4 |] in
  ignore (Seq_fsim.resume_verify ~tel c snaps.(0) ~suffix:seq ~faults ~subset);
  ignore (Seq_fsim.verify_required ~tel c ~si ~seq:(Array.sub seq 0 4) ~faults ~subset);
  let snap = Telemetry.drain tel in
  Alcotest.(check (pair int int))
    "hits, misses" (2, 2)
    (Telemetry.counter_value snap "trace_cache_hits", Telemetry.counter_value snap "trace_cache_misses")

let suite =
  [
    ( "kernel",
      [
        Alcotest.test_case "registry detect: kernel = naive at 1/2/4 domains" `Slow
          test_registry_detect;
        Alcotest.test_case "profile/candidates/verify: kernel = naive" `Quick test_rich_ops;
        qtest prop_cone_matches_full_resim;
        qtest prop_resume_matches_from_scratch;
        Alcotest.test_case "trace cache hit/miss counts" `Quick test_trace_cache_counts;
      ] );
  ]
