(* Tests for the robustness layer: Budget semantics, the pool's fail-fast
   and cancellation behaviour, graceful kernel degradation, checkpoint
   (de)serialization, and the headline guarantee — interrupt a pipeline
   run mid-iteration, resume from the checkpoint, and get a result
   bit-identical to the uninterrupted run, at 1 and 4 domains. *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Pipeline = Asc_core.Pipeline
module Checkpoint = Asc_core.Checkpoint
module Scan_test = Asc_scan.Scan_test

let with_pool ?budget n f =
  let pool = Domain_pool.create ?budget ~domains:n () in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) (fun () -> f pool)

(* --- Budget unit tests ---------------------------------------------- *)

let test_budget_basic () =
  Alcotest.(check bool) "unlimited never fires" false (Budget.exhausted Budget.unlimited);
  Budget.cancel Budget.unlimited;
  Alcotest.(check bool) "unlimited survives cancel" false
    (Budget.exhausted Budget.unlimited);
  let b = Budget.create () in
  Alcotest.(check bool) "fresh token is live" false (Budget.exhausted b);
  Budget.check b;
  Budget.cancel b;
  Alcotest.(check bool) "cancelled" true
    (Budget.status b = Some Budget.Cancelled);
  (match Budget.check b with
  | () -> Alcotest.fail "check must raise once fired"
  | exception Budget.Exhausted Budget.Cancelled -> ()
  | exception Budget.Exhausted _ -> Alcotest.fail "wrong reason");
  (match Budget.create ~timeout:0.0 () with
  | _ -> Alcotest.fail "timeout 0 must be rejected"
  | exception Invalid_argument _ -> ())

let test_budget_deadline () =
  let b = Budget.create ~timeout:0.005 () in
  Unix.sleepf 0.02;
  Alcotest.(check bool) "deadline fired" true
    (Budget.status b = Some Budget.Deadline);
  (* First firing wins: a later cancel cannot rewrite the reason. *)
  Budget.cancel b;
  Alcotest.(check bool) "reason latched" true
    (Budget.status b = Some Budget.Deadline)

(* --- Domain_pool: fail-fast and cancellation ------------------------- *)

(* Regression: a poisoned task must abandon the job promptly, not drain
   all 1000 remaining tasks first.  Count executions, not wall time. *)
let test_pool_fail_fast () =
  with_pool 4 (fun pool ->
      let executed = Atomic.make 0 in
      (match
         Domain_pool.run pool 1000 (fun i ->
             ignore (Atomic.fetch_and_add executed 1);
             if i = 3 then failwith "poison")
       with
      | () -> Alcotest.fail "expected the poison to propagate"
      | exception Failure msg -> Alcotest.(check string) "message" "poison" msg);
      let n = Atomic.get executed in
      Alcotest.(check bool)
        (Printf.sprintf "only %d of 1000 tasks ran" n)
        true (n < 100))

let test_pool_budget_cancellation () =
  let budget = Budget.create () in
  with_pool ~budget 4 (fun pool ->
      let executed = Atomic.make 0 in
      (* Fires mid-job: the first task cancels, the rest are skipped. *)
      (match
         Domain_pool.run pool 1000 (fun _ ->
             Budget.cancel budget;
             ignore (Atomic.fetch_and_add executed 1))
       with
      | () -> Alcotest.fail "expected Exhausted"
      | exception Budget.Exhausted Budget.Cancelled -> ());
      Alcotest.(check bool) "tasks were skipped" true (Atomic.get executed < 100);
      (* Already fired on entry: nothing runs at all. *)
      match Domain_pool.run pool 8 (fun _ -> Alcotest.fail "must not run") with
      | () -> Alcotest.fail "expected Exhausted"
      | exception Budget.Exhausted Budget.Cancelled -> ())

(* --- Graceful kernel degradation ------------------------------------- *)

let cancelled_budget () =
  let b = Budget.create () in
  Budget.cancel b;
  b

let test_podem_aborts () =
  let c = Asc_circuits.Registry.get "s27" in
  let faults = Asc_fault.Collapse.reps (Asc_fault.Collapse.run c) in
  let podem = Asc_atpg.Podem.create c in
  let budget = cancelled_budget () in
  Array.iter
    (fun f ->
      match Asc_atpg.Podem.run ~budget podem f with
      | Asc_atpg.Podem.Aborted -> ()
      | _ -> Alcotest.fail "exhausted budget must yield Aborted")
    faults

let test_seq_tgen_degrades () =
  let c = Asc_circuits.Registry.get "s27" in
  let faults = Asc_fault.Collapse.reps (Asc_fault.Collapse.run c) in
  let rng = Rng.of_name ~seed:3 "robust/seq-tgen" in
  let r =
    Asc_atpg.Seq_tgen.generate ~budget:(cancelled_budget ()) c ~faults ~rng
  in
  (* The growth loop must not run; only the non-empty-T0 fallback segment
     (at most one max_seg_len chunk) may be committed. *)
  Alcotest.(check bool) "fallback T0 only" true
    (Array.length r.seq > 0
    && Array.length r.seq <= Asc_atpg.Seq_tgen.default_config.max_seg_len);
  (* A pool whose own budget fired cuts the fallback commit short: the
     reported detections must still be those of the returned sequence. *)
  let pool = Domain_pool.create ~budget:(cancelled_budget ()) ~domains:1 () in
  let r =
    Asc_atpg.Seq_tgen.generate ~pool c ~faults ~rng:(Rng.of_name ~seed:3 "robust/seq-tgen")
  in
  Domain_pool.shutdown pool;
  Alcotest.(check bool) "cut-short fallback re-simulated" true
    (Bitvec.equal r.detected (Asc_fault.Seq_fsim.detect_no_scan c ~seq:r.seq ~faults)
    && not (Bitvec.is_empty r.detected))

let test_run_bounded_partial_at_t0 () =
  let c = Asc_circuits.Registry.get "s27" in
  let prepared = Pipeline.prepare c in
  match Pipeline.run_bounded ~budget:(cancelled_budget ()) prepared with
  | Pipeline.Complete _ -> Alcotest.fail "expected Partial"
  | Pipeline.Partial p ->
      Alcotest.(check bool) "reason" true (p.p_reason = Budget.Cancelled);
      Alcotest.(check string) "stage" "t0-generation"
        (Pipeline.stage_to_string p.p_stage);
      Alcotest.(check int) "no iterations" 0 (List.length p.p_iterations)

(* --- Checkpoint (de)serialization ------------------------------------ *)

let synthetic_snapshot () =
  {
    Pipeline.snap_circuit = "synthetic";
    snap_pis = 3;
    snap_ffs = 4;
    snap_seed = 7;
    snap_t0 = "directed/120";
    snap_comb_size = 5;
    snap_t0_length = 120;
    snap_f0_count = 42;
    snap_iter = 2;
    snap_selected = Bitvec.of_list 5 [ 1; 3 ];
    snap_seq = [| [| true; false; true |]; [| false; false; true |] |];
    snap_best =
      Some
        (Scan_test.create
           ~si:[| true; false; false; true |]
           ~seq:[| [| false; true; false |] |]);
    snap_iterations =
      [
        { Pipeline.si_index = 2; u_so = 9; len_after_omission = 7; detected_count = 40 };
        { Pipeline.si_index = 1; u_so = 12; len_after_omission = 9; detected_count = 37 };
      ];
    snap_phase3 = None;
  }

let test_checkpoint_roundtrip () =
  let s = synthetic_snapshot () in
  let s' = Checkpoint.of_string (Checkpoint.to_string s) in
  Alcotest.(check string) "circuit" s.snap_circuit s'.snap_circuit;
  Alcotest.(check int) "iter" s.snap_iter s'.snap_iter;
  Alcotest.(check int) "t0len" s.snap_t0_length s'.snap_t0_length;
  Alcotest.(check int) "f0count" s.snap_f0_count s'.snap_f0_count;
  Alcotest.(check bool) "selected" true (Bitvec.equal s.snap_selected s'.snap_selected);
  Alcotest.(check bool) "seq" true (s.snap_seq = s'.snap_seq);
  Alcotest.(check bool) "tau" true
    (match (s.snap_best, s'.snap_best) with
    | Some a, Some b -> Scan_test.equal a b
    | None, None -> true
    | _ -> false);
  Alcotest.(check bool) "iteration log" true (s.snap_iterations = s'.snap_iterations);
  (* And through a file, including overwrite-in-place. *)
  let path = Filename.temp_file "asc-ckpt" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Checkpoint.write_file path s;
      Checkpoint.write_file path s;
      let s'' = Checkpoint.read_file path in
      Alcotest.(check int) "file roundtrip iter" s.snap_iter s''.snap_iter)

(* Replace the first occurrence of [needle] in [hay] (test-local; the
   corpus lines are unique within a checkpoint). *)
let replace ~needle ~by hay =
  let nl = String.length needle in
  let rec find i =
    if i + nl > String.length hay then Alcotest.failf "missing %S" needle
    else if String.sub hay i nl = needle then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub hay 0 i ^ by ^ String.sub hay (i + nl) (String.length hay - i - nl)

(* Strip a v2 checkpoint's [crc] trailer, returning the covered body. *)
let strip_crc text =
  match String.rindex_opt (String.trim text) '\n' with
  | Some i when String.length text > i + 4 && String.sub text (i + 1) 4 = "crc " ->
      String.sub text 0 (i + 1)
  | _ -> Alcotest.fail "expected a crc trailer"

(* Recompute the trailer after a deliberate body edit, so the edit reaches
   the semantic checks instead of tripping the CRC first. *)
let restamp body = body ^ "crc " ^ Crc.to_hex (Crc.crc32 body) ^ "\n"

let test_checkpoint_corrupt () =
  let good = Checkpoint.to_string (synthetic_snapshot ()) in
  let body = strip_crc good in
  let edit ~needle ~by = restamp (replace ~needle ~by body) in
  let cases =
    [
      ("not a checkpoint", "hello\nworld\n");
      ("future version", "checkpoint v99\n");
      ("missing seq block", "checkpoint v1\ncircuit x 1 1\nseed 1\nt0 d/1\ncomb 1\n");
      ("bad bits", edit ~needle:"selected 01010" ~by:"selected 0a010");
      ("truncated block", String.sub good 0 (String.length good - 20));
      ("selected/comb mismatch", edit ~needle:"comb 5" ~by:"comb 6");
      (* v2 integrity: the trailer is mandatory, covers every body byte,
         and must not decorate a v1 file. *)
      ("v2 without its trailer", body);
      ("crc mismatch", replace ~needle:"selected 01010" ~by:"selected 01011" good);
      ("flipped trailer", replace ~needle:"crc " ~by:"crc 0" good);
      ("v1 with a trailer", replace ~needle:"checkpoint v2" ~by:"checkpoint v1" good);
      ("content after trailer", good ^ "trailing\n");
    ]
  in
  List.iter
    (fun (label, text) ->
      match Checkpoint.of_string text with
      | _ -> Alcotest.failf "%s: expected Corrupt" label
      | exception Checkpoint.Corrupt _ -> ())
    cases

(* Backward compatibility: a v1 file (no trailer) still loads. *)
let test_checkpoint_v1_loads () =
  let s = synthetic_snapshot () in
  let v1 =
    replace ~needle:"checkpoint v2" ~by:"checkpoint v1"
      (strip_crc (Checkpoint.to_string s))
  in
  let s' = Checkpoint.of_string v1 in
  Alcotest.(check int) "v1 iter" s.snap_iter s'.snap_iter;
  Alcotest.(check bool) "v1 selected" true
    (Bitvec.equal s.snap_selected s'.snap_selected)

(* --- Durability property: no corruption loads a differing snapshot ----- *)

let snapshot_equal (a : Pipeline.snapshot) (b : Pipeline.snapshot) =
  a.snap_circuit = b.snap_circuit && a.snap_pis = b.snap_pis
  && a.snap_ffs = b.snap_ffs && a.snap_seed = b.snap_seed
  && a.snap_t0 = b.snap_t0 && a.snap_comb_size = b.snap_comb_size
  && a.snap_t0_length = b.snap_t0_length && a.snap_f0_count = b.snap_f0_count
  && a.snap_iter = b.snap_iter
  && Bitvec.equal a.snap_selected b.snap_selected
  && a.snap_seq = b.snap_seq
  && (match (a.snap_best, b.snap_best) with
     | Some x, Some y -> Scan_test.equal x y
     | None, None -> true
     | _ -> false)
  && a.snap_iterations = b.snap_iterations
  && (match (a.snap_phase3, b.snap_phase3) with
     | Some x, Some y ->
         Bitvec.equal x.Pipeline.ph3_uncovered y.Pipeline.ph3_uncovered
         && Array.length x.ph3_added = Array.length y.ph3_added
         && Array.for_all2 Scan_test.equal x.ph3_added y.ph3_added
     | None, None -> true
     | _ -> false)

let random_snapshot rng =
  let pis = 1 + Rng.int rng 6 in
  let ffs = 1 + Rng.int rng 6 in
  let comb = 1 + Rng.int rng 8 in
  let bits n = Array.init n (fun _ -> Rng.int rng 2 = 1) in
  let seq len = Array.init len (fun _ -> bits pis) in
  {
    Pipeline.snap_circuit = Printf.sprintf "rand%d" (Rng.int rng 100);
    snap_pis = pis;
    snap_ffs = ffs;
    snap_seed = Rng.int rng 10_000;
    snap_t0 = Printf.sprintf "directed/%d" (1 + Rng.int rng 500);
    snap_comb_size = comb;
    snap_t0_length = Rng.int rng 1000;
    snap_f0_count = Rng.int rng 1000;
    snap_iter = Rng.int rng 30;
    snap_selected =
      Bitvec.of_list comb
        (List.filter (fun _ -> Rng.int rng 2 = 0) (List.init comb Fun.id));
    snap_seq = seq (1 + Rng.int rng 4);
    snap_best =
      (if Rng.int rng 2 = 0 then None
       else Some (Scan_test.create ~si:(bits ffs) ~seq:(seq (1 + Rng.int rng 3))));
    snap_iterations =
      List.init (Rng.int rng 4) (fun i ->
          {
            Pipeline.si_index = Rng.int rng comb;
            u_so = Rng.int rng 50;
            len_after_omission = Rng.int rng 50;
            detected_count = i + Rng.int rng 100;
          });
    snap_phase3 = None;
  }

(* A random post-Phase-3 snapshot: tau is mandatory, plus 0–3 added
   length-one tests and an uncovered set over a random fault universe. *)
let random_phase3_snapshot rng =
  let base = random_snapshot rng in
  let pis = base.Pipeline.snap_pis and ffs = base.Pipeline.snap_ffs in
  let bits n = Array.init n (fun _ -> Rng.int rng 2 = 1) in
  let n_faults = 1 + Rng.int rng 40 in
  {
    base with
    Pipeline.snap_best =
      Some
        (Scan_test.create ~si:(bits ffs)
           ~seq:(Array.init (1 + Rng.int rng 3) (fun _ -> bits pis)));
    snap_phase3 =
      Some
        {
          Pipeline.ph3_added =
            Array.init (Rng.int rng 4) (fun _ ->
                Scan_test.create ~si:(bits ffs) ~seq:[| bits pis |]);
          ph3_uncovered =
            Bitvec.init n_faults (fun _ -> Rng.int rng 2 = 1);
        };
  }

(* For 40 random snapshots: the serialized form round-trips exactly, and
   neither random truncation nor a single flipped bit can ever load as a
   snapshot that differs from what was saved. *)
let test_checkpoint_durability_property () =
  let rng = Rng.of_name ~seed:11 "robust/durability" in
  for round = 1 to 40 do
    (* Every third round exercises the post-Phase-3 extension of the
       format (phase3 line + add blocks). *)
    let s =
      if round mod 3 = 0 then random_phase3_snapshot rng else random_snapshot rng
    in
    let text = Checkpoint.to_string s in
    Alcotest.(check bool) "round-trips exactly" true
      (snapshot_equal s (Checkpoint.of_string text));
    let check_mutant label mutant =
      match Checkpoint.of_string mutant with
      | s' ->
          Alcotest.(check bool) (label ^ ": loaded a differing snapshot") true
            (snapshot_equal s s')
      | exception Checkpoint.Corrupt _ -> ()
    in
    for _ = 1 to 12 do
      (* Truncation at a random byte boundary. *)
      check_mutant "truncation" (String.sub text 0 (Rng.int rng (String.length text)));
      (* Single bit flip at a random position. *)
      let i = Rng.int rng (String.length text) in
      let b = Bytes.of_string text in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Rng.int rng 8)));
      check_mutant "bit flip" (Bytes.to_string b)
    done
  done

let test_checkpoint_incompatible () =
  let c = Asc_circuits.Registry.get "s27" in
  let config = Pipeline.default_config in
  let prepared = Pipeline.prepare ~config c in
  let s = synthetic_snapshot () in
  match Checkpoint.validate prepared ~config s with
  | () -> Alcotest.fail "expected Incompatible"
  | exception Checkpoint.Incompatible msg ->
      Alcotest.(check bool) "names the field" true
        (String.length msg > 0)

(* --- Interrupt / resume determinism ---------------------------------- *)

(* The headline guarantee: cancel a run at an iteration boundary, resume
   from the snapshot it checkpointed, and the final test set and N_cyc
   are bit-identical to the uninterrupted run — for 1 and 4 domains. *)
let check_resume_deterministic name =
  let c = Asc_circuits.Registry.get name in
  let t0_source = Pipeline.Directed (Asc_circuits.Registry.t0_budget name) in
  let config = Asc_core.Experiments.config_for ~seed:1 ~t0_source in
  let prepared = Pipeline.prepare ~config c in
  let reference =
    match Pipeline.run_bounded ~config prepared with
    | Pipeline.Complete r -> r
    | Pipeline.Partial _ -> Alcotest.fail "reference run must complete"
  in
  Alcotest.(check bool)
    (name ^ ": needs a second iteration to be a meaningful test")
    true
    (List.length reference.iterations >= 2);
  (* Interrupt: the checkpoint callback records the snapshot, then fires
     the budget; the loop unwinds at the next iteration's poll. *)
  let budget = Budget.create () in
  let recorded = ref None in
  let outcome =
    Pipeline.run_bounded ~budget ~config
      ~on_checkpoint:(fun snap ->
        if !recorded = None then begin
          recorded := Some snap;
          Budget.cancel budget
        end)
      prepared
  in
  let partial =
    match outcome with
    | Pipeline.Partial p -> p
    | Pipeline.Complete _ -> Alcotest.fail "cancelled run must be Partial"
  in
  Alcotest.(check bool) (name ^ ": partial carries the best test so far") true
    (Array.length partial.p_tests > 0 && Bitvec.count partial.p_detected > 0);
  let snap = match !recorded with Some s -> s | None -> Alcotest.fail "no checkpoint" in
  (* Resume, sequentially and under 1- and 4-domain pools. *)
  let check_resumed label resumed =
    Alcotest.(check bool) (name ^ " " ^ label ^ ": test count") true
      (Array.length resumed.Pipeline.final_tests
      = Array.length reference.final_tests);
    Alcotest.(check bool) (name ^ " " ^ label ^ ": tests bit-identical") true
      (Array.for_all2 Scan_test.equal reference.final_tests resumed.final_tests);
    Alcotest.(check int) (name ^ " " ^ label ^ ": N_cyc") reference.cycles_final
      resumed.cycles_final;
    Alcotest.(check bool) (name ^ " " ^ label ^ ": coverage") true
      (Bitvec.equal reference.final_detected resumed.final_detected);
    Alcotest.(check bool) (name ^ " " ^ label ^ ": iteration log") true
      (reference.iterations = resumed.iterations)
  in
  let resume_with pool =
    match Pipeline.run_bounded ?pool ~config ~resume:snap prepared with
    | Pipeline.Complete r -> r
    | Pipeline.Partial _ -> Alcotest.fail "resumed run must complete"
  in
  check_resumed "sequential resume" (resume_with None);
  List.iter
    (fun domains ->
      with_pool domains (fun pool ->
          check_resumed
            (Printf.sprintf "resume (%d domains)" domains)
            (resume_with (Some pool))))
    [ 1; 4 ];
  (* A checkpoint that has been through the file format resumes the same. *)
  let snap' = Checkpoint.of_string (Checkpoint.to_string snap) in
  Checkpoint.validate prepared ~config snap';
  check_resumed "resume via serialized checkpoint"
    (match Pipeline.run_bounded ~config ~resume:snap' prepared with
    | Pipeline.Complete r -> r
    | Pipeline.Partial _ -> Alcotest.fail "resumed run must complete")

let test_resume_s298 () = check_resume_deterministic "s298"
let test_resume_s344 () = check_resume_deterministic "s344"

(* Late interruption: capture the post-Phase-3 snapshot (the last one a
   run writes), resume from it — straight into Phase 4 — and require the
   final result bit-identical to the uninterrupted reference, sequentially
   and on a 4-domain pool, including after a trip through the file
   format. *)
let test_resume_from_phase3_snapshot () =
  let name = "s298" in
  let c = Asc_circuits.Registry.get name in
  let config =
    Asc_core.Experiments.config_for ~seed:1
      ~t0_source:(Pipeline.Directed (Asc_circuits.Registry.t0_budget name))
  in
  let prepared = Pipeline.prepare ~config c in
  let last_snap = ref None in
  let reference =
    match
      Pipeline.run_bounded ~config
        ~on_checkpoint:(fun snap -> last_snap := Some snap)
        prepared
    with
    | Pipeline.Complete r -> r
    | Pipeline.Partial _ -> Alcotest.fail "reference run must complete"
  in
  let snap =
    match !last_snap with
    | Some s -> s
    | None -> Alcotest.fail "no checkpoint recorded"
  in
  Alcotest.(check bool) "last snapshot is the post-Phase-3 one" true
    (snap.Pipeline.snap_phase3 <> None);
  let check_resumed label resumed =
    Alcotest.(check bool) (label ^ ": tests bit-identical") true
      (Array.length resumed.Pipeline.final_tests
       = Array.length reference.final_tests
      && Array.for_all2 Scan_test.equal reference.final_tests resumed.final_tests);
    Alcotest.(check int) (label ^ ": N_cyc") reference.cycles_final
      resumed.cycles_final;
    Alcotest.(check int) (label ^ ": N_cyc initial") reference.cycles_initial
      resumed.cycles_initial;
    Alcotest.(check bool) (label ^ ": coverage") true
      (Bitvec.equal reference.final_detected resumed.final_detected);
    Alcotest.(check bool) (label ^ ": uncovered") true
      (Bitvec.equal reference.uncovered resumed.uncovered);
    Alcotest.(check bool) (label ^ ": added tests") true
      (Array.length resumed.added = Array.length reference.added
      && Array.for_all2 Scan_test.equal reference.added resumed.added);
    Alcotest.(check bool) (label ^ ": iteration log") true
      (reference.iterations = resumed.iterations)
  in
  let resume_with pool snap =
    match Pipeline.run_bounded ?pool ~config ~resume:snap prepared with
    | Pipeline.Complete r -> r
    | Pipeline.Partial _ -> Alcotest.fail "resumed run must complete"
  in
  check_resumed "phase3 resume (sequential)" (resume_with None snap);
  with_pool 4 (fun pool ->
      check_resumed "phase3 resume (4 domains)" (resume_with (Some pool) snap));
  let snap' = Checkpoint.of_string (Checkpoint.to_string snap) in
  Checkpoint.validate prepared ~config snap';
  Alcotest.(check bool) "phase3 survives the file format" true
    (snap'.Pipeline.snap_phase3 <> None);
  check_resumed "phase3 resume via serialized checkpoint" (resume_with None snap')

(* A phase3 snapshot whose uncovered set is sized to a different fault
   universe must be rejected, both by validate and by run_bounded. *)
let test_phase3_snapshot_rejects_mismatch () =
  let name = "s27" in
  let c = Asc_circuits.Registry.get name in
  let config = Pipeline.default_config in
  let prepared = Pipeline.prepare ~config c in
  let last_snap = ref None in
  (match
     Pipeline.run_bounded ~config
       ~on_checkpoint:(fun snap -> last_snap := Some snap)
       prepared
   with
  | Pipeline.Complete _ -> ()
  | Pipeline.Partial _ -> Alcotest.fail "run must complete");
  let snap = match !last_snap with Some s -> s | None -> Alcotest.fail "no snap" in
  let bad =
    {
      snap with
      Pipeline.snap_phase3 =
        Some { Pipeline.ph3_added = [||]; ph3_uncovered = Bitvec.create 1 };
    }
  in
  (match Checkpoint.validate prepared ~config bad with
  | () -> Alcotest.fail "validate must reject a mismatched phase3 universe"
  | exception Checkpoint.Incompatible _ -> ());
  match Pipeline.run_bounded ~config ~resume:bad prepared with
  | _ -> Alcotest.fail "run_bounded must reject a mismatched phase3 universe"
  | exception Invalid_argument _ -> ()

let test_resume_rejects_mismatch () =
  let c = Asc_circuits.Registry.get "s27" in
  let config = Pipeline.default_config in
  let prepared = Pipeline.prepare ~config c in
  match Pipeline.run_bounded ~config ~resume:(synthetic_snapshot ()) prepared with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let suite =
  [
    ( "robustness",
      [
        Alcotest.test_case "budget latches a single reason" `Quick test_budget_basic;
        Alcotest.test_case "deadline fires and wins" `Quick test_budget_deadline;
        Alcotest.test_case "pool abandons a poisoned job promptly" `Quick
          test_pool_fail_fast;
        Alcotest.test_case "pool honours budget cancellation" `Quick
          test_pool_budget_cancellation;
        Alcotest.test_case "podem returns Aborted on exhausted budget" `Quick
          test_podem_aborts;
        Alcotest.test_case "seq_tgen degrades to committed prefix" `Quick
          test_seq_tgen_degrades;
        Alcotest.test_case "run_bounded reports Partial at t0 stage" `Quick
          test_run_bounded_partial_at_t0;
        Alcotest.test_case "checkpoint round-trips" `Quick test_checkpoint_roundtrip;
        Alcotest.test_case "corrupt checkpoints are rejected" `Quick
          test_checkpoint_corrupt;
        Alcotest.test_case "v1 checkpoints still load" `Quick
          test_checkpoint_v1_loads;
        Alcotest.test_case "no corruption loads a differing snapshot" `Quick
          test_checkpoint_durability_property;
        Alcotest.test_case "incompatible checkpoints are rejected" `Quick
          test_checkpoint_incompatible;
        Alcotest.test_case "resume rejects mismatched snapshots" `Quick
          test_resume_rejects_mismatch;
        Alcotest.test_case "interrupt/resume is bit-identical on s298" `Slow
          test_resume_s298;
        Alcotest.test_case "interrupt/resume is bit-identical on s344" `Slow
          test_resume_s344;
        Alcotest.test_case "post-Phase-3 resume is bit-identical" `Slow
          test_resume_from_phase3_snapshot;
        Alcotest.test_case "phase3 snapshot universe mismatch is rejected" `Quick
          test_phase3_snapshot_rejects_mismatch;
      ] );
  ]
