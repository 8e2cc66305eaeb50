(* Tests for the fault-injection layer (Asc_util.Chaos) and the
   self-healing persistence built on top of it: schedule parsing,
   occurrence semantics, stray-temp-file cleanup, retry-with-backoff,
   rotation + fallback recovery, pool survival after a poisoned task, and
   the headline crash-recovery soak — kill a pipeline at every checkpoint
   write occurrence, resume from the latest valid snapshot, and get a
   result bit-identical to the uninterrupted run. *)

open Asc_util
module Pipeline = Asc_core.Pipeline
module Checkpoint = Asc_core.Checkpoint
module Scan_test = Asc_scan.Scan_test

(* --- Schedule syntax --------------------------------------------------- *)

let test_parse_roundtrip () =
  let rules =
    [
      { Chaos.point = Chaos.checkpoint_output; occurrence = 2; action = Chaos.Kill };
      { Chaos.point = Chaos.pool_task; occurrence = 5; action = Chaos.Poison };
      { Chaos.point = Chaos.checkpoint_rename; occurrence = 1; action = Chaos.Fail };
    ]
  in
  let text = Chaos.to_string rules in
  Alcotest.(check string) "rendering"
    "checkpoint.output@2=kill,pool.task@5=poison,checkpoint.rename@1=fail" text;
  (match Chaos.parse text with
  | Ok rules' -> Alcotest.(check bool) "roundtrip" true (rules = rules')
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (* Whitespace and stray commas are tolerated. *)
  match Chaos.parse " checkpoint.open@1=fail , ,pool.poll@3=kill," with
  | Ok [ a; b ] ->
      Alcotest.(check string) "first point" Chaos.checkpoint_open a.Chaos.point;
      Alcotest.(check int) "second occurrence" 3 b.Chaos.occurrence
  | Ok _ -> Alcotest.fail "expected two rules"
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_parse_errors () =
  List.iter
    (fun s ->
      match Chaos.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S: expected a parse error" s)
    [
      "";
      ",,";
      "no-at-sign";
      "point@=fail";
      "point@x=fail";
      "point@0=fail";
      "point@-1=fail";
      "point@1=explode";
      "@1=fail";
      "a@1=fail,b@2";
    ]

let test_of_env () =
  let set v = Unix.putenv Chaos.env_var v in
  Fun.protect
    ~finally:(fun () -> set "")
    (fun () ->
      set "";
      Alcotest.(check bool) "blank is disabled" true (Chaos.of_env () = None);
      set "   ";
      Alcotest.(check bool) "whitespace is disabled" true (Chaos.of_env () = None);
      set "checkpoint.output@2=kill";
      (match Chaos.of_env () with
      | Some _ -> ()
      | None -> Alcotest.fail "valid schedule must arm a handle");
      set "nonsense";
      match Chaos.of_env () with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())

(* --- Occurrence semantics ---------------------------------------------- *)

let test_hit_occurrences () =
  let t =
    Chaos.create
      [ { Chaos.point = "p"; occurrence = 3; action = Chaos.Poison } ]
  in
  let chaos = Some t in
  Chaos.hit chaos "p";
  Chaos.hit chaos "p";
  Chaos.hit chaos "other";
  Alcotest.(check int) "two occurrences so far" 2 (Chaos.occurrences t "p");
  Alcotest.(check int) "nothing fired yet" 0 (Chaos.injections t);
  (match Chaos.hit chaos "p" with
  | () -> Alcotest.fail "third occurrence must fire"
  | exception Chaos.Injected { point = "p"; occurrence = 3 } -> ()
  | exception Chaos.Injected _ -> Alcotest.fail "wrong injection site");
  Alcotest.(check int) "one injection" 1 (Chaos.injections t);
  (* The rule is spent: the fourth occurrence passes. *)
  Chaos.hit chaos "p";
  Alcotest.(check int) "counter keeps counting" 4 (Chaos.occurrences t "p");
  (* Fail raises a retryable Sys_error; Kill raises Killed. *)
  let t2 =
    Chaos.create
      [
        { Chaos.point = "f"; occurrence = 1; action = Chaos.Fail };
        { Chaos.point = "k"; occurrence = 1; action = Chaos.Kill };
      ]
  in
  (match Chaos.hit (Some t2) "f" with
  | () -> Alcotest.fail "Fail rule must raise"
  | exception Sys_error _ -> ());
  match Chaos.hit (Some t2) "k" with
  | () -> Alcotest.fail "Kill rule must raise"
  | exception Chaos.Killed { point = "k"; occurrence = 1 } -> ()
  | exception Chaos.Killed _ -> Alcotest.fail "wrong kill site"

let test_hit_disabled () =
  (* The disabled handle is a no-op at every catalogued point. *)
  List.iter (fun p -> Chaos.hit None p) Chaos.all_points

let test_random_rules_deterministic () =
  let draw seed =
    Chaos.random_rules ~seed ~points:Chaos.all_points ~max_occurrence:9
      ~action:Chaos.Fail 32
  in
  Alcotest.(check bool) "same seed, same schedule" true (draw 7 = draw 7);
  Alcotest.(check bool) "different seeds differ" true (draw 7 <> draw 8);
  List.iter
    (fun r ->
      Alcotest.(check bool) "point from catalogue" true
        (List.mem r.Chaos.point Chaos.all_points);
      Alcotest.(check bool) "occurrence in range" true
        (r.Chaos.occurrence >= 1 && r.Chaos.occurrence <= 9))
    (draw 7)

(* --- Checkpoint writes under injection --------------------------------- *)

let ckpt_snapshot =
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
    snap_best = None;
    snap_iterations =
      [ { Pipeline.si_index = 2; u_so = 9; len_after_omission = 7; detected_count = 40 } ];
    snap_phase3 = None;
  }

let with_ckpt_path f =
  let path = Filename.temp_file "asc-chaos" ".ckpt" in
  Sys.remove path;
  let cleanup () =
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ path; path ^ ".tmp"; path ^ ".1"; path ^ ".2"; path ^ ".3" ]
  in
  Fun.protect ~finally:cleanup (fun () -> f path)

(* Satellite regression: a failed write must not leave <file>.tmp around. *)
let test_write_failure_removes_tmp () =
  with_ckpt_path @@ fun path ->
  List.iter
    (fun point ->
      let chaos =
        Chaos.create [ { Chaos.point; occurrence = 1; action = Chaos.Fail } ]
      in
      (match Checkpoint.write_file ~chaos ~retries:0 path ckpt_snapshot with
      | () -> Alcotest.failf "%s: expected Sys_error" point
      | exception Sys_error _ -> ());
      Alcotest.(check bool) (point ^ ": no stray temp file") false
        (Sys.file_exists (path ^ ".tmp"));
      Alcotest.(check bool) (point ^ ": no partial checkpoint") false
        (Sys.file_exists path))
    [ Chaos.checkpoint_open; Chaos.checkpoint_output; Chaos.checkpoint_rename ]

let test_write_retries_transient_failure () =
  with_ckpt_path @@ fun path ->
  let tel = Telemetry.create () in
  let chaos =
    Chaos.create ~tel
      [
        { Chaos.point = Chaos.checkpoint_output; occurrence = 1; action = Chaos.Fail };
        { Chaos.point = Chaos.checkpoint_output; occurrence = 2; action = Chaos.Fail };
      ]
  in
  Checkpoint.write_file ~tel ~chaos ~retries:2 path ckpt_snapshot;
  let s = Checkpoint.read_file path in
  Alcotest.(check int) "written after retries" ckpt_snapshot.snap_iter s.snap_iter;
  Alcotest.(check bool) "no stray temp file" false (Sys.file_exists (path ^ ".tmp"));
  let snap = Telemetry.drain tel in
  Alcotest.(check int) "two failed attempts counted" 2
    (Telemetry.counter_value snap "checkpoint_write_failures");
  Alcotest.(check int) "one successful write" 1
    (Telemetry.counter_value snap "checkpoint_writes");
  Alcotest.(check int) "two injections fired" 2
    (Telemetry.counter_value snap "chaos_injections")

(* A Kill models SIGKILL: cleanup is skipped (the temp file survives) and
   the previous checkpoint is untouched. *)
let test_kill_is_a_hard_crash () =
  with_ckpt_path @@ fun path ->
  Checkpoint.write_file path ckpt_snapshot;
  let chaos =
    Chaos.create
      [ { Chaos.point = Chaos.checkpoint_output; occurrence = 1; action = Chaos.Kill } ]
  in
  let next = { ckpt_snapshot with Pipeline.snap_iter = 3 } in
  (match Checkpoint.write_file ~chaos ~retries:2 path next with
  | () -> Alcotest.fail "expected Killed"
  | exception Chaos.Killed _ -> ());
  Alcotest.(check bool) "temp file left behind, like SIGKILL" true
    (Sys.file_exists (path ^ ".tmp"));
  let s = Checkpoint.read_file path in
  Alcotest.(check int) "previous checkpoint intact" ckpt_snapshot.snap_iter s.snap_iter

let corrupt_file path =
  (* Flip one bit in the middle of the file. *)
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = really_input_string ic n in
  close_in ic;
  let b = Bytes.of_string b in
  let i = n / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let test_rotation_and_recovery () =
  with_ckpt_path @@ fun path ->
  let tel = Telemetry.create () in
  let old = { ckpt_snapshot with Pipeline.snap_iter = 1 } in
  let young = { ckpt_snapshot with Pipeline.snap_iter = 2 } in
  Checkpoint.write_file ~keep:2 path old;
  Checkpoint.write_file ~keep:2 path young;
  Alcotest.(check bool) "newest in place" true (Sys.file_exists path);
  Alcotest.(check bool) "previous rotated" true (Sys.file_exists (path ^ ".1"));
  Alcotest.(check int) "rotated copy is the old snapshot" 1
    (Checkpoint.read_file (path ^ ".1")).snap_iter;
  (* Healthy case: the newest copy wins, no recovery counted. *)
  let l = Checkpoint.load_latest_valid ~tel path in
  Alcotest.(check int) "newest snapshot" 2 l.Checkpoint.snapshot.snap_iter;
  Alcotest.(check bool) "not a recovery" false l.Checkpoint.recovered;
  (* Corrupt the newest copy: recovery falls back to the rotated one. *)
  corrupt_file path;
  let l = Checkpoint.load_latest_valid ~tel path in
  Alcotest.(check int) "fell back to rotated copy" 1 l.Checkpoint.snapshot.snap_iter;
  Alcotest.(check bool) "flagged as recovered" true l.Checkpoint.recovered;
  Alcotest.(check string) "source names the rotated copy" (path ^ ".1")
    l.Checkpoint.source;
  let snap = Telemetry.drain tel in
  Alcotest.(check int) "one recovery counted" 1
    (Telemetry.counter_value snap "checkpoint_recoveries");
  (* Corrupt every copy: the newest copy's error is re-raised. *)
  corrupt_file (path ^ ".1");
  (match Checkpoint.load_latest_valid path with
  | _ -> Alcotest.fail "expected Corrupt"
  | exception Checkpoint.Corrupt _ -> ());
  (* No copy at all: Sys_error, like read_file on a missing path. *)
  Sys.remove path;
  Sys.remove (path ^ ".1");
  match Checkpoint.load_latest_valid path with
  | _ -> Alcotest.fail "expected Sys_error"
  | exception Sys_error _ -> ()

(* --- Pool survival after a poisoned task ------------------------------- *)

let test_pool_survives_poisoned_task () =
  let n = 64 in
  let chaos =
    Chaos.create
      [ { Chaos.point = Chaos.pool_task; occurrence = 7; action = Chaos.Poison } ]
  in
  let pool = Domain_pool.create ~chaos ~domains:4 () in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool)
  @@ fun () ->
  (* The poisoned job fails fast and re-raises on the submitter... *)
  (match Domain_pool.run pool n (fun _ -> ()) with
  | () -> Alcotest.fail "expected the injected poison to propagate"
  | exception Chaos.Injected { point; _ } ->
      Alcotest.(check string) "poisoned at pool.task" Chaos.pool_task point);
  (* ...and the pool remains fully usable: the next job matches a
     sequential computation exactly. *)
  let parallel = Array.make n 0 in
  Domain_pool.run pool n (fun i -> parallel.(i) <- (i * i) + 1);
  let sequential = Array.init n (fun i -> (i * i) + 1) in
  Alcotest.(check bool) "pool result matches sequential" true
    (parallel = sequential)

(* --- Crash-recovery soak ----------------------------------------------- *)

(* Run the full pipeline under a seeded kill schedule: the run writes
   rotated checkpoints until the injected crash fires mid-write, then a
   second process-equivalent resumes from the latest valid snapshot.  The
   final test set, coverage and N_cyc must be bit-identical to an
   uninterrupted run — at every kill occurrence, and at 1 and 4 domains. *)
let soak name =
  let c = Asc_circuits.Registry.get name in
  let config = Result.get_ok (Asc_core.Experiments.config_for ~seed:1 ~t0:"directed" name) in
  let prepared = Pipeline.prepare ~config c in
  let reference =
    match Pipeline.run_bounded ~config prepared with
    | Pipeline.Complete r -> r
    | Pipeline.Partial _ -> Alcotest.fail "reference run must complete"
  in
  let check_identical label r =
    Alcotest.(check int) (label ^ ": test count")
      (Array.length reference.Pipeline.final_tests)
      (Array.length r.Pipeline.final_tests);
    Alcotest.(check bool) (label ^ ": tests bit-identical") true
      (Array.for_all2 Scan_test.equal reference.final_tests r.final_tests);
    Alcotest.(check int) (label ^ ": N_cyc") reference.cycles_final r.cycles_final;
    Alcotest.(check bool) (label ^ ": coverage") true
      (Bitvec.equal reference.final_detected r.final_detected)
  in
  (* How many checkpoint writes does an uninterrupted run perform? *)
  let writes = ref 0 in
  (match
     Pipeline.run_bounded ~config ~on_checkpoint:(fun _ -> incr writes) prepared
   with
  | Pipeline.Complete r -> check_identical "checkpoint-observed run" r
  | Pipeline.Partial _ -> Alcotest.fail "observed run must complete");
  Alcotest.(check bool) (name ^ ": enough writes for a meaningful soak") true
    (!writes >= 1);
  (* One crash-resume trial: kill at the k-th occurrence of [point], then
     resume from whatever the simulated crash left on disk. *)
  let with_pool_opt domains f =
    match domains with
    | None -> f None
    | Some d ->
        let pool = Domain_pool.create ~domains:d () in
        Fun.protect
          ~finally:(fun () -> Domain_pool.shutdown pool)
          (fun () -> f (Some pool))
  in
  let trial ?domains ~point k =
    with_ckpt_path @@ fun path ->
    with_pool_opt domains @@ fun pool ->
    let label =
      Printf.sprintf "%s kill %s#%d%s" name point k
        (match domains with
        | None -> ""
        | Some d -> Printf.sprintf " (%d domains)" d)
    in
    let chaos =
      Chaos.create [ { Chaos.point; occurrence = k; action = Chaos.Kill } ]
    in
    let on_checkpoint s = Checkpoint.write_file ~chaos ~keep:2 path s in
    (match Pipeline.run_bounded ?pool ~config ~on_checkpoint prepared with
    | Pipeline.Complete r ->
        (* The kill occurrence was never reached — still a valid trial;
           the run must be unaffected by the armed handle. *)
        check_identical (label ^ " (not reached)") r
    | Pipeline.Partial _ -> Alcotest.failf "%s: unexpected Partial" label
    | exception Chaos.Killed _ -> ());
    (* "Reboot": load the newest valid snapshot; when the crash predates
       any complete write, start afresh. *)
    let resume =
      match Checkpoint.load_latest_valid path with
      | l ->
          Checkpoint.validate prepared ~config l.Checkpoint.snapshot;
          Some l.Checkpoint.snapshot
      | exception (Sys_error _ | Checkpoint.Corrupt _) -> None
    in
    match Pipeline.run_bounded ?pool ~config ?resume prepared with
    | Pipeline.Complete r -> check_identical label r
    | Pipeline.Partial _ -> Alcotest.failf "%s: resumed run must complete" label
  in
  (* Sweep every write occurrence of the output point (mid-write crash,
     rotation already done) and the extremes of the rename point (crash
     between the write and the atomic swap). *)
  for k = 1 to !writes do
    trial ~point:Chaos.checkpoint_output k
  done;
  trial ~point:Chaos.checkpoint_rename 1;
  trial ~point:Chaos.checkpoint_rename !writes;
  (* The same crash survives parallel execution: 1 and 4 domains. *)
  let mid = (!writes + 1) / 2 in
  trial ~domains:1 ~point:Chaos.checkpoint_output mid;
  trial ~domains:4 ~point:Chaos.checkpoint_output mid;
  (* Silent corruption of the newest rotated copy: recovery falls back and
     the resumed run is still bit-identical. *)
  (with_ckpt_path @@ fun path ->
   let tel = Telemetry.create () in
   let last = ref None in
   let on_checkpoint s =
     Checkpoint.write_file ~tel ~keep:2 path s;
     last := Some s.Pipeline.snap_iter
   in
   (match Pipeline.run_bounded ~config ~on_checkpoint prepared with
   | Pipeline.Complete _ -> ()
   | Pipeline.Partial _ -> Alcotest.fail "writer run must complete");
   if !writes >= 2 then begin
     corrupt_file path;
     let l = Checkpoint.load_latest_valid ~tel path in
     Alcotest.(check bool) (name ^ ": corruption forces a fallback") true
       l.Checkpoint.recovered;
     Checkpoint.validate prepared ~config l.Checkpoint.snapshot;
     (match
        Pipeline.run_bounded ~config ~resume:l.Checkpoint.snapshot prepared
      with
     | Pipeline.Complete r -> check_identical (name ^ " corrupt-newest resume") r
     | Pipeline.Partial _ -> Alcotest.fail "recovery run must complete");
     let snap = Telemetry.drain tel in
     Alcotest.(check int) (name ^ ": recovery counted") 1
       (Telemetry.counter_value snap "checkpoint_recoveries")
   end);
  (* A poisoned pool task aborts the run; the pool survives, and rerunning
     on the very same pool still reproduces the reference bit-exactly. *)
  let chaos =
    Chaos.create
      [ { Chaos.point = Chaos.pool_task; occurrence = 10; action = Chaos.Poison } ]
  in
  let pool = Domain_pool.create ~chaos ~domains:4 () in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool)
  @@ fun () ->
  (match Pipeline.run_bounded ~pool ~config prepared with
  | exception Chaos.Injected _ -> ()
  | Pipeline.Complete r ->
      (* Fewer than 10 tasks before completion — nothing fired; the run
         must still be unaffected. *)
      check_identical (name ^ " poison (not reached)") r
  | Pipeline.Partial _ -> Alcotest.fail "poisoned run must not be Partial");
  match Pipeline.run_bounded ~pool ~config prepared with
  | Pipeline.Complete r -> check_identical (name ^ " rerun on poisoned pool") r
  | Pipeline.Partial _ -> Alcotest.fail "rerun must complete"

let test_soak_s298 () = soak "s298"
let test_soak_s344 () = soak "s344"

(* Persistent write failure must degrade, not abort: every checkpoint
   write fails, yet the run completes with the reference result. *)
let test_degrade_on_persistent_write_failure () =
  let c = Asc_circuits.Registry.get "s298" in
  let config =
    Result.get_ok (Asc_core.Experiments.config_for ~seed:1 ~t0:"directed" "s298")
  in
  let prepared = Pipeline.prepare ~config c in
  let reference =
    match Pipeline.run_bounded ~config prepared with
    | Pipeline.Complete r -> r
    | Pipeline.Partial _ -> Alcotest.fail "reference run must complete"
  in
  with_ckpt_path @@ fun path ->
  let tel = Telemetry.create () in
  (* Every open fails, forever: rules for more occurrences than any run
     can reach. *)
  let rules =
    List.init 64 (fun i ->
        { Chaos.point = Chaos.checkpoint_open; occurrence = i + 1; action = Chaos.Fail })
  in
  let chaos = Chaos.create ~tel rules in
  let on_checkpoint s = Checkpoint.write_file ~tel ~chaos ~retries:1 path s in
  (match Pipeline.run_bounded ~config ~on_checkpoint prepared with
  | Pipeline.Complete r ->
      Alcotest.(check bool) "degraded run is bit-identical" true
        (Array.for_all2 Scan_test.equal reference.final_tests r.Pipeline.final_tests
        && reference.cycles_final = r.cycles_final)
  | Pipeline.Partial _ -> Alcotest.fail "degraded run must still complete");
  Alcotest.(check bool) "no checkpoint was written" false (Sys.file_exists path);
  let snap = Telemetry.drain tel in
  Alcotest.(check bool) "write failures counted" true
    (Telemetry.counter_value snap "checkpoint_write_failures" >= 2);
  Alcotest.(check int) "no successful write" 0
    (Telemetry.counter_value snap "checkpoint_writes")

(* --- Mid-read injection in the file readers ---------------------------- *)

(* Both readers arm an injection point after [open_in]: a Fail surfaces
   as the Sys_error a truncated read would raise, a Kill propagates as
   Killed (no cleanup runs), and an unarmed occurrence reads normally
   while still counting. *)
let test_io_read_points () =
  let bench = Filename.temp_file "asc-chaos" ".bench" in
  let tset = Filename.temp_file "asc-chaos" ".tests" in
  let cleanup () =
    List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ bench; tset ]
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let oc = open_out bench in
  output_string oc "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n";
  close_out oc;
  let c = Asc_circuits.Registry.get "s27" in
  Asc_scan.Tset_io.write_file tset c [||];
  (* Fail at the first occurrence: Sys_error, and the occurrence counts. *)
  let chaos =
    Chaos.create
      [
        { Chaos.point = Chaos.bench_io_read; occurrence = 1; action = Chaos.Fail };
        { Chaos.point = Chaos.tset_io_read; occurrence = 1; action = Chaos.Fail };
      ]
  in
  (match Asc_netlist.Bench_io.parse_file ~chaos bench with
  | exception Sys_error _ -> ()
  | _ -> Alcotest.fail "bench_io: expected an injected Sys_error");
  (match Asc_scan.Tset_io.read_file ~chaos tset with
  | exception Sys_error _ -> ()
  | _ -> Alcotest.fail "tset_io: expected an injected Sys_error");
  (* Second occurrences are unarmed: both reads succeed and count. *)
  let c' = Asc_netlist.Bench_io.parse_file ~chaos bench in
  Alcotest.(check int) "parsed netlist" 2 (Asc_netlist.Circuit.n_gates c');
  let name, tests = Asc_scan.Tset_io.read_file ~chaos tset in
  Alcotest.(check string) "test set circuit" "s27" name;
  Alcotest.(check int) "empty test set" 0 (Array.length tests);
  Alcotest.(check int) "bench occurrences" 2 (Chaos.occurrences chaos Chaos.bench_io_read);
  Alcotest.(check int) "tset occurrences" 2 (Chaos.occurrences chaos Chaos.tset_io_read);
  Alcotest.(check int) "two rules fired" 2 (Chaos.injections chaos);
  (* A Kill propagates as Killed, not as an I/O error. *)
  let chaos =
    Chaos.create
      [ { Chaos.point = Chaos.bench_io_read; occurrence = 1; action = Chaos.Kill };
        { Chaos.point = Chaos.tset_io_read; occurrence = 1; action = Chaos.Kill } ]
  in
  (match Asc_netlist.Bench_io.parse_file ~chaos bench with
  | exception Chaos.Killed _ -> ()
  | _ -> Alcotest.fail "bench_io: expected Killed");
  match Asc_scan.Tset_io.read_file ~chaos tset with
  | exception Chaos.Killed _ -> ()
  | _ -> Alcotest.fail "tset_io: expected Killed"

(* --- Event-log sink faults ---------------------------------------------- *)

(* The [log.write] point fires before each physical event-log write.  A
   [Fail] must degrade the handle — one stderr warning, every later
   event dropped and counted — without ever raising into the caller
   (the serving select loop); a [Kill] must propagate as a hard crash
   like every other kill site. *)
let test_log_write_chaos () =
  Test_obs.with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "events.jsonl" in
  let tel = Some (Telemetry.create ()) in
  let chaos =
    Chaos.create
      [ { Chaos.point = Chaos.log_write; occurrence = 2; action = Chaos.Fail } ]
  in
  let log = Some (Log.create ?tel ~chaos path) in
  Log.emit log "first";
  Log.emit log "injected";
  (* degraded *)
  Log.emit log "dropped";
  Log.emit log "dropped";
  (match log with
  | Some t ->
      Alcotest.(check int) "failing write plus two drops" 3
        (Log.write_failures t)
  | None -> assert false);
  Log.close log;
  let ic = open_in path in
  let first = input_line ic in
  let eof = match input_line ic with _ -> false | exception End_of_file -> true in
  close_in ic;
  Alcotest.(check bool) "only the pre-fault line survives" true
    (String.length first > 0 && eof);
  Alcotest.(check int) "drops counted in telemetry" 3
    (Telemetry.counter_value
       (Telemetry.drain (Option.get tel))
       "log_write_failures");
  Alcotest.(check int) "the fault was counted as an injection" 1
    (Chaos.injections chaos);
  (* A Kill at the same point is a crash, not a degradation. *)
  let chaos =
    Chaos.create
      [ { Chaos.point = Chaos.log_write; occurrence = 1; action = Chaos.Kill } ]
  in
  let log = Some (Log.create ~chaos (Filename.concat dir "k.jsonl")) in
  match Log.emit log "boom" with
  | exception Chaos.Killed _ -> Log.close log
  | () -> Alcotest.fail "log.write kill must propagate"

let suite =
  [
    ( "chaos",
      [
        Alcotest.test_case "schedules round-trip through text" `Quick
          test_parse_roundtrip;
        Alcotest.test_case "malformed schedules are rejected" `Quick
          test_parse_errors;
        Alcotest.test_case "ASC_CHAOS arms and validates" `Quick test_of_env;
        Alcotest.test_case "rules fire at exact occurrences" `Quick
          test_hit_occurrences;
        Alcotest.test_case "disabled handle is a no-op" `Quick test_hit_disabled;
        Alcotest.test_case "seeded schedules are reproducible" `Quick
          test_random_rules_deterministic;
        Alcotest.test_case "failed writes leave no stray temp file" `Quick
          test_write_failure_removes_tmp;
        Alcotest.test_case "transient write failures are retried" `Quick
          test_write_retries_transient_failure;
        Alcotest.test_case "a kill leaves SIGKILL disk state" `Quick
          test_kill_is_a_hard_crash;
        Alcotest.test_case "rotation recovers from a corrupt newest copy" `Quick
          test_rotation_and_recovery;
        Alcotest.test_case "file readers fail and die mid-read" `Quick
          test_io_read_points;
        Alcotest.test_case "event-log sink faults degrade or kill" `Quick
          test_log_write_chaos;
        Alcotest.test_case "pool survives a poisoned task" `Quick
          test_pool_survives_poisoned_task;
        Alcotest.test_case "persistent write failure degrades, not aborts" `Slow
          test_degrade_on_persistent_write_failure;
        Alcotest.test_case "crash-recovery soak on s298" `Slow test_soak_s298;
        Alcotest.test_case "crash-recovery soak on s344" `Slow test_soak_s344;
      ] );
  ]
