(* Differential oracle for the 3-valued paths.

   [Seq_fsim.detect_no_scan] and the incremental co-simulation
   ([inc3_peek] / [inc3_commit]) run on the levelized 3-valued kernel and
   have no second 3-valued implementation to be compared against.  This
   suite builds one here: a scalar faulty simulator over [Naive.eval_gate3]
   that injects one stuck-at fault at a time, from the all-X state, and
   records the first time unit at which a PO shows a binary good value and
   the complementary binary faulty value.  The kernel paths must agree with
   it exactly, at 1 and 2 domains, on random generated circuits and s27. *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Gate = Asc_netlist.Gate
module Naive = Asc_sim.Naive
module Fault = Asc_fault.Fault
module Collapse = Asc_fault.Collapse
module Seq_fsim = Asc_fault.Seq_fsim

let qtest = QCheck_alcotest.to_alcotest

(* One 3-valued cycle with an optional fault: PO values and next state. *)
let step3 c (fault : Fault.t option) ~state ~pis =
  let forced g pin v =
    match fault with
    | Some f when f.gate = g && f.pin = pin -> Some f.stuck
    | _ -> v
  in
  let v = Array.make (Circuit.n_gates c) None in
  Array.iteri (fun i g -> v.(g) <- forced g (-1) (Some pis.(i))) (Circuit.inputs c);
  Array.iteri (fun i g -> v.(g) <- forced g (-1) state.(i)) (Circuit.dffs c);
  Array.iter
    (fun g ->
      let ins = List.mapi (fun pin f -> forced g pin v.(f)) (Array.to_list (Circuit.fanins c g)) in
      v.(g) <- forced g (-1) (Naive.eval_gate3 (Circuit.kind c g) ins))
    (Circuit.order c);
  ( Array.map (fun g -> v.(g)) (Circuit.outputs c),
    Array.map (fun d -> forced d 0 v.(Circuit.dff_input c d)) (Circuit.dffs c) )

(* Per fault, the first time unit of a 3-valued PO detection of [seq]
   from the all-X state ([max_int] if none). *)
let first_detection c ~seq ~faults =
  let x_state = Array.make (Circuit.n_dffs c) None in
  let good =
    let state = ref x_state in
    Array.map
      (fun pis ->
        let po, next = step3 c None ~state:!state ~pis in
        state := next;
        po)
      seq
  in
  Array.map
    (fun f ->
      let state = ref x_state and first = ref max_int and t = ref 0 in
      while !first = max_int && !t < Array.length seq do
        let po, next = step3 c (Some f) ~state:!state ~pis:seq.(!t) in
        state := next;
        Array.iteri
          (fun i fv ->
            match (good.(!t).(i), fv) with
            | Some gv, Some fv when gv <> fv -> first := !t
            | _ -> ())
          po;
        incr t
      done;
      !first)
    faults

let detected_by first ~len = Bitvec.init (Array.length first) (fun i -> first.(i) < len)

let with_pool domains f =
  if domains <= 1 then f None
  else
    let pool = Domain_pool.create ~domains () in
    Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) (fun () -> f (Some pool))

(* [detect_no_scan] of the whole sequence, then the sequence committed
   segment by segment with a peek before every commit: each count and the
   running detected set must match the oracle's first-detection times. *)
let agrees c ~faults ~seq ~cuts =
  let first = first_detection c ~seq ~faults in
  let ok = ref true in
  List.iter
    (fun domains ->
      with_pool domains (fun pool ->
          let det = Seq_fsim.detect_no_scan ?pool c ~seq ~faults in
          if not (Bitvec.equal det (detected_by first ~len:(Array.length seq))) then ok := false;
          let inc = Seq_fsim.inc3_create c faults in
          let prefix = ref 0 in
          List.iter
            (fun cut ->
              let segment = Array.sub seq !prefix (cut - !prefix) in
              let expected =
                Bitvec.count (detected_by first ~len:cut)
                - Bitvec.count (detected_by first ~len:!prefix)
              in
              let peeked = Seq_fsim.inc3_peek ?pool inc segment in
              let committed = Seq_fsim.inc3_commit ?pool inc segment in
              if peeked <> expected || committed <> expected then ok := false;
              if not (Bitvec.equal (Seq_fsim.inc3_detected inc) (detected_by first ~len:cut))
              then ok := false;
              prefix := cut)
            cuts))
    [ 1; 2 ];
  !ok

(* Random segment boundaries: at least [min_segs] non-empty segments. *)
let random_cuts rng ~len ~min_segs =
  let rec go acc pos =
    if pos >= len then List.rev acc
    else
      let step = 1 + Rng.int rng (max 1 (len / min_segs)) in
      let pos = min len (pos + step) in
      go (pos :: acc) pos
  in
  go [] 0

let random_stimulus rng c ~len =
  let seq = Array.init len (fun _ -> Rng.bool_array rng (Circuit.n_inputs c)) in
  (seq, random_cuts rng ~len ~min_segs:10)

(* Generated circuits large enough (> 2 fault groups) and with enough
   commits that the incremental co-simulation also repacks its groups. *)
let prop_generated =
  QCheck.Test.make ~name:"3-valued kernel paths match the scalar oracle" ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c =
        Asc_circuits.Profile.make "o3" 5 4 6 90 ~t0_budget:10
        |> Asc_circuits.Generator.generate ~seed
      in
      let faults = Collapse.reps (Collapse.run c) in
      let rng = Rng.create (seed + 31) in
      let seq, cuts = random_stimulus rng c ~len:30 in
      agrees c ~faults ~seq ~cuts)

let test_s27 () =
  let c = Asc_circuits.Registry.get "s27" in
  let faults = Fault.universe c in
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let seq, cuts = random_stimulus rng c ~len:24 in
      Alcotest.(check bool) (Printf.sprintf "s27 seed %d" seed) true (agrees c ~faults ~seq ~cuts))
    [ 1; 2; 3 ]

let suite =
  [
    ( "oracle3",
      [
        Alcotest.test_case "s27: 3-valued kernel paths match the oracle" `Quick test_s27;
        qtest prop_generated;
      ] );
  ]
