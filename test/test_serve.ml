(* Tests for the serving layer (docs/SERVING.md): scheduler fairness,
   budgets and caching; protocol codecs (including QCheck round-trips of
   the JSON parser and the test-set format the responses embed); and
   black-box suites driving the real `asc serve` binary over a Unix
   socket — protocol conformance with golden transcripts, malformed-frame
   fuzzing, served-vs-one-shot determinism at several pool sizes, and a
   chaos kill/resume soak. *)

open Asc_util
module Scheduler = Asc_core.Scheduler
module Protocol = Asc_core.Protocol
module Scan_test = Asc_scan.Scan_test
module Tset_io = Asc_scan.Tset_io

let qtest = QCheck_alcotest.to_alcotest

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let spec ?circuit ?netlist ?(seed = 1) ?(t0 = "directed") ?timeout () =
  { Scheduler.sp_circuit = circuit; sp_netlist = netlist; sp_seed = seed;
    sp_t0 = t0; sp_timeout = timeout }

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* Run a spec on a throwaway scheduler and return its result — the
   reference the sharing/serving tests compare against. *)
let solo_result ?pool sp =
  let sched = Scheduler.create ?pool () in
  match Scheduler.submit sched ~source:0 sp with
  | Scheduler.Accepted _ -> (
      match Scheduler.run_next sched with
      | Some (_, r) -> r
      | None -> Alcotest.fail "solo job did not run")
  | _ -> Alcotest.fail "solo submit not accepted"

(* --- Scheduler: resolution, fairness, caching -------------------------- *)

let test_scheduler_rejects () =
  let sched = Scheduler.create () in
  let reject sp msg_part =
    match Scheduler.submit sched ~source:0 sp with
    | Scheduler.Rejected m ->
        Alcotest.(check bool)
          (Printf.sprintf "rejection mentions %S (got %S)" msg_part m)
          true (contains m msg_part)
    | _ -> Alcotest.failf "spec should be rejected (%s)" msg_part
  in
  reject (spec ()) "needs a circuit";
  reject (spec ~circuit:"nosuch" ()) "unknown circuit";
  reject (spec ~circuit:"s27" ~netlist:"INPUT(a)" ()) "not both";
  reject (spec ~circuit:"s27" ~t0:"genetic?" ()) "bad t0";
  reject (spec ~netlist:"a = FROB(b)" ()) "parse error";
  Alcotest.(check int) "nothing queued" 0 (Scheduler.pending sched)

let test_scheduler_round_robin () =
  let sched = Scheduler.create () in
  let submit source seed =
    match Scheduler.submit sched ~source (spec ~circuit:"s27" ~seed ()) with
    | Scheduler.Accepted j -> j.Scheduler.j_id
    | _ -> Alcotest.fail "expected Accepted"
  in
  (* Source 1 floods three jobs before source 2's single job arrives; the
     rotation must still serve source 2 second, not last. *)
  let a = submit 1 1 and b = submit 1 2 and c = submit 1 3 in
  let d = submit 2 4 in
  Alcotest.(check int) "pending" 4 (Scheduler.pending sched);
  let order =
    List.map
      (fun _ ->
        match Scheduler.run_next sched with
        | Some (j, _) -> j.Scheduler.j_id
        | None -> Alcotest.fail "queue drained early")
      [ (); (); (); () ]
  in
  Alcotest.(check (list int)) "round-robin dispatch order" [ a; d; b; c ] order;
  Alcotest.(check int) "drained" 0 (Scheduler.pending sched)

let test_scheduler_cache_and_counters () =
  let tel = Telemetry.create () in
  let sched = Scheduler.create ~tel () in
  let sp = spec ~circuit:"s27" () in
  (match Scheduler.submit sched ~source:0 sp with
  | Scheduler.Accepted _ -> ()
  | _ -> Alcotest.fail "first submit should queue");
  let first =
    match Scheduler.run_next sched with
    | Some (_, r) -> r
    | None -> Alcotest.fail "job did not run"
  in
  Alcotest.(check bool) "first completes" true
    (first.Scheduler.r_status = Scheduler.Complete);
  (match Scheduler.submit sched ~source:5 sp with
  | Scheduler.Cached r ->
      Alcotest.(check bool) "cached result carries the same test set" true
        (r.Scheduler.r_tset = first.Scheduler.r_tset && r.Scheduler.r_tset <> None)
  | _ -> Alcotest.fail "second submit should hit the cache");
  let snap = Telemetry.drain tel in
  let count name = Telemetry.counter_value snap name in
  Alcotest.(check int) "jobs_submitted" 2 (count "jobs_submitted");
  Alcotest.(check int) "jobs_completed" 1 (count "jobs_completed");
  Alcotest.(check int) "result_cache_hits" 1 (count "result_cache_hits");
  Alcotest.(check int) "result_cache_misses" 1 (count "result_cache_misses")

(* Only the process that answers a submit caches its result: a job run
   through [job_of_spec] and [execute], as a supervised worker runs it,
   leaves the scheduler's cache alone, so the same spec still queues. *)
let test_execute_does_not_cache () =
  let sched = Scheduler.create () in
  let sp = spec ~circuit:"s27" () in
  (match Scheduler.job_of_spec ~id:0 ~source:0 sp with
  | Error e -> Alcotest.failf "spec did not resolve: %s" e
  | Ok job ->
      Alcotest.(check bool) "executed job completes" true
        ((Scheduler.execute sched job).Scheduler.r_status = Scheduler.Complete));
  match Scheduler.submit sched ~source:0 sp with
  | Scheduler.Accepted _ -> ()
  | Scheduler.Cached _ -> Alcotest.fail "execute must not fill the cache"
  | _ -> Alcotest.fail "submit should queue"

(* A finished job leaves the good-trace cache empty: its traces could
   only be hit again by the same spec, which the result cache answers.
   Simulating the job's first final test afterwards must miss. *)
let test_execute_clears_trace_cache () =
  let sched = Scheduler.create () in
  (match Scheduler.submit sched ~source:0 (spec ~circuit:"s298" ()) with
  | Scheduler.Accepted _ -> ()
  | _ -> Alcotest.fail "submit should queue");
  match Scheduler.run_next sched with
  | None -> Alcotest.fail "job did not run"
  | Some (job, r) ->
      let c = job.Scheduler.j_circuit in
      let _, tests = Tset_io.of_string (Option.get r.Scheduler.r_tset) in
      let t = tests.(0) in
      let faults = Asc_fault.Collapse.reps (Asc_fault.Collapse.run c) in
      let tel = Telemetry.create () in
      ignore (Asc_fault.Seq_fsim.detect ~tel c ~si:t.Scan_test.si ~seq:t.Scan_test.seq ~faults);
      let snap = Telemetry.drain tel in
      Alcotest.(check (pair int int))
        "hits, misses" (0, 1)
        ( Telemetry.counter_value snap "trace_cache_hits",
          Telemetry.counter_value snap "trace_cache_misses" )

let test_scheduler_key_canonical () =
  let key sp =
    match Scheduler.key_of_spec sp with
    | Ok k -> k
    | Error e -> Alcotest.failf "key_of_spec failed: %s" e
  in
  let text =
    Asc_netlist.Bench_io.to_string (Asc_circuits.Registry.get ~seed:1 "s27")
  in
  (* Reformatting the same netlist (comments, blank lines) must not change
     the cache line: the key hashes the canonical rendering. *)
  let noisy = "# reformatted copy\n\n" ^ text ^ "\n# trailing comment\n" in
  Alcotest.(check string) "whitespace-insensitive key"
    (key (spec ~netlist:text ()))
    (key (spec ~netlist:noisy ()));
  Alcotest.(check bool) "seed changes the key" true
    (key (spec ~circuit:"s27" ~seed:1 ()) <> key (spec ~circuit:"s27" ~seed:2 ()));
  Alcotest.(check bool) "t0 source changes the key" true
    (key (spec ~circuit:"s27" ~t0:"directed" ())
    <> key (spec ~circuit:"s27" ~t0:"random" ()));
  Alcotest.(check bool) "timeout does not change the key" true
    (key (spec ~circuit:"s27" ()) = key (spec ~circuit:"s27" ~timeout:9.0 ()))

(* Satellite: two jobs sharing one pool; the first hits its deadline and
   must neither poison the pool nor starve the second job. *)
let test_contention_deadline_isolation () =
  let pool = Domain_pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      let sched = Scheduler.create ~pool () in
      (* s1423 is far too big to finish in 1ms even with a warm
         good-trace cache (smaller circuits can, when the full suite has
         already populated the process-global cache). *)
      (match
         Scheduler.submit sched ~source:1 (spec ~circuit:"s1423" ~timeout:0.001 ())
       with
      | Scheduler.Accepted _ -> ()
      | _ -> Alcotest.fail "deadline job should queue");
      (match Scheduler.submit sched ~source:2 (spec ~circuit:"s27" ()) with
      | Scheduler.Accepted _ -> ()
      | _ -> Alcotest.fail "second job should queue");
      let doomed =
        match Scheduler.run_next sched with
        | Some (j, r) ->
            Alcotest.(check string) "deadline job first" "s1423" j.Scheduler.j_name;
            r
        | None -> Alcotest.fail "no job ran"
      in
      (match doomed.Scheduler.r_status with
      | Scheduler.Partial { reason; _ } ->
          Alcotest.(check string) "deadline reason" "deadline" reason
      | Scheduler.Complete -> Alcotest.fail "1ms job completed"
      | Scheduler.Failed m -> Alcotest.failf "1ms job failed: %s" m);
      let survivor =
        match Scheduler.run_next sched with
        | Some (_, r) -> r
        | None -> Alcotest.fail "second job vanished"
      in
      Alcotest.(check bool) "survivor completes" true
        (survivor.Scheduler.r_status = Scheduler.Complete);
      (* Bit-identical to a run that never shared anything. *)
      let reference = solo_result (spec ~circuit:"s27" ()) in
      Alcotest.(check bool) "survivor matches solo run" true
        (survivor.Scheduler.r_tset = reference.Scheduler.r_tset
        && survivor.Scheduler.r_tset <> None))

(* In-process mirror of the kill/resume soak: a chaos Kill during the
   second checkpoint write crashes the job; a fresh scheduler over the
   same state dir resumes it and must reproduce the uninterrupted result
   bit-identically. *)
let test_kill_resume_in_process () =
  let state = temp_dir "asc-serve-state" in
  Fun.protect
    ~finally:(fun () -> rm_rf state)
    (fun () ->
      let sp = spec ~circuit:"s298" () in
      let chaos =
        Chaos.create
          [ { Chaos.point = Chaos.checkpoint_output; occurrence = 2;
              action = Chaos.Kill } ]
      in
      let sched = Scheduler.create ~chaos ~state_dir:state () in
      (match Scheduler.submit sched ~source:0 sp with
      | Scheduler.Accepted _ -> ()
      | _ -> Alcotest.fail "submit should queue");
      (match Scheduler.run_next sched with
      | exception Chaos.Killed _ -> ()
      | _ -> Alcotest.fail "chaos Kill must propagate out of run_next");
      (* The crash left a valid snapshot; a new scheduler resumes it. *)
      let tel = Telemetry.create () in
      let sched2 = Scheduler.create ~tel ~state_dir:state () in
      (match Scheduler.submit sched2 ~source:0 sp with
      | Scheduler.Accepted _ -> ()
      | _ -> Alcotest.fail "resubmit should queue (new cache)");
      let resumed =
        match Scheduler.run_next sched2 with
        | Some (_, r) -> r
        | None -> Alcotest.fail "resumed job did not run"
      in
      Alcotest.(check bool) "resumed job completes" true
        (resumed.Scheduler.r_status = Scheduler.Complete);
      Alcotest.(check bool) "r_resumed set" true resumed.Scheduler.r_resumed;
      let snap = Telemetry.drain tel in
      Alcotest.(check int) "jobs_resumed counter" 1
        (Telemetry.counter_value snap "jobs_resumed");
      let reference = solo_result sp in
      Alcotest.(check bool) "bit-identical to uninterrupted run" true
        (resumed.Scheduler.r_tset = reference.Scheduler.r_tset
        && resumed.Scheduler.r_tset <> None))

(* --- Result_cache: persistence, codec, corruption tolerance ------------ *)

module Result_cache = Asc_core.Result_cache

(* A daemon restart is a fresh scheduler over the same state dir: the
   resubmission must be served from the on-disk result store, flagged by
   the persisted-hits counter, with the test set byte-identical. *)
let test_persisted_cache_restart () =
  let state = temp_dir "asc-rescache" in
  Fun.protect ~finally:(fun () -> rm_rf state) @@ fun () ->
  let sp = spec ~circuit:"s27" () in
  let sched = Scheduler.create ~state_dir:state () in
  (match Scheduler.submit sched ~source:0 sp with
  | Scheduler.Accepted _ -> ()
  | _ -> Alcotest.fail "first submit should queue");
  let first =
    match Scheduler.run_next sched with
    | Some (_, r) -> r
    | None -> Alcotest.fail "job did not run"
  in
  Alcotest.(check bool) "first completes" true
    (first.Scheduler.r_status = Scheduler.Complete);
  let tel = Telemetry.create () in
  let sched2 = Scheduler.create ~tel ~state_dir:state () in
  (match Scheduler.submit sched2 ~source:0 sp with
  | Scheduler.Cached r ->
      Alcotest.(check bool) "persisted result is byte-identical" true
        (r.Scheduler.r_tset = first.Scheduler.r_tset
        && r.Scheduler.r_tset <> None)
  | _ -> Alcotest.fail "restart resubmit should hit the persistent cache");
  let snap = Telemetry.drain tel in
  Alcotest.(check int) "result_cache_persisted_hits" 1
    (Telemetry.counter_value snap "result_cache_persisted_hits");
  Alcotest.(check int) "result_cache_hits" 1
    (Telemetry.counter_value snap "result_cache_hits")

(* Corruption is skipped and deleted on access; valid neighbours keep
   being served. *)
let test_persisted_cache_corruption () =
  let dir = temp_dir "asc-rescache-corrupt" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let entry key =
    { Result_cache.e_key = key; e_tests = 3; e_cycles = 41; e_detected = 30;
      e_targets = 32; e_iterations = 2; e_tset = "tset bytes\n\x00\xff" }
  in
  let cache = Result_cache.create ~dir () in
  Result_cache.store cache (entry "aaaa");
  Result_cache.store cache (entry "bbbb");
  let victim = Result_cache.path ~dir "aaaa" in
  let bytes =
    Bytes.of_string (In_channel.with_open_bin victim In_channel.input_all)
  in
  let mid = Bytes.length bytes / 2 in
  Bytes.set bytes mid (Char.chr (Char.code (Bytes.get bytes mid) lxor 0x20));
  Out_channel.with_open_bin victim (fun oc ->
      Out_channel.output_bytes oc bytes);
  (* A fresh handle over the same dir models the restarted daemon. *)
  let cache2 = Result_cache.create ~dir () in
  Alcotest.(check bool) "corrupt entry is a miss" true
    (Result_cache.find cache2 "aaaa" = None);
  Alcotest.(check bool) "corrupt file deleted on access" false
    (Sys.file_exists victim);
  (match Result_cache.find cache2 "bbbb" with
  | Some (e, from_disk) ->
      Alcotest.(check bool) "valid neighbour served from disk" true from_disk;
      Alcotest.(check string) "tset intact" (entry "bbbb").Result_cache.e_tset
        e.Result_cache.e_tset
  | None -> Alcotest.fail "valid entry lost")

let result_cache_entry_gen =
  let open QCheck.Gen in
  let hex = map (fun i -> "0123456789abcdef".[i]) (int_bound 15) in
  let bytes = string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 64) in
  string_size ~gen:hex (int_range 1 16) >>= fun key ->
  small_nat >>= fun tests ->
  small_nat >>= fun cycles ->
  small_nat >>= fun detected ->
  small_nat >>= fun targets ->
  small_nat >>= fun iterations ->
  bytes >>= fun tset ->
  return
    { Result_cache.e_key = key; e_tests = tests; e_cycles = cycles;
      e_detected = detected; e_targets = targets; e_iterations = iterations;
      e_tset = tset }

let prop_result_cache_roundtrip =
  QCheck.Test.make ~name:"Result_cache decode inverts encode" ~count:300
    (QCheck.make ~print:Result_cache.entry_to_string result_cache_entry_gen)
    (fun e ->
      Result_cache.entry_of_string (Result_cache.entry_to_string e) = Ok e)

(* Any byte-level damage — truncation, a changed byte, trailing junk —
   must decode to [Error], never raise and never yield a wrong entry
   (the CRC-32 trailer plus strict framing catch all three). *)
let prop_result_cache_corruption =
  let open QCheck.Gen in
  let mutation_gen =
    result_cache_entry_gen >>= fun e ->
    let file = Result_cache.entry_to_string e in
    let n = String.length file in
    oneof
      [
        (int_bound (n - 1) >>= fun k -> return (e, String.sub file 0 k));
        ( int_bound (n - 1) >>= fun k ->
          int_bound 254 >>= fun d ->
          let b = Bytes.of_string file in
          Bytes.set b k (Char.chr ((Char.code (Bytes.get b k) + 1 + d) mod 256));
          return (e, Bytes.to_string b) );
        ( string_size ~gen:(map Char.chr (int_bound 255)) (int_range 1 8)
          >>= fun junk -> return (e, file ^ junk) );
      ]
  in
  QCheck.Test.make
    ~name:"Result_cache rejects truncated, flipped and padded files"
    ~count:500
    (QCheck.make
       ~print:(fun (_, damaged) -> String.escaped damaged)
       mutation_gen)
    (fun (e, damaged) ->
      (match Result_cache.entry_of_string damaged with
      | Error _ -> true
      | Ok _ -> false)
      && Result_cache.entry_of_string (Result_cache.entry_to_string e) = Ok e)

(* --- Protocol codecs --------------------------------------------------- *)

let test_protocol_roundtrip () =
  let roundtrip r =
    let line = Json.to_string ~compact:true (Protocol.request_to_json r) in
    match Protocol.request_of_string line with
    | Ok r' ->
        Alcotest.(check bool) (Printf.sprintf "roundtrip %s" line) true (r = r')
    | Error e -> Alcotest.failf "roundtrip of %s failed: %s" line e
  in
  roundtrip Protocol.Ping;
  roundtrip Protocol.Metrics;
  roundtrip Protocol.Shutdown;
  roundtrip (Protocol.Submit { spec = spec ~circuit:"s298" (); want_tset = false; client_id = None });
  roundtrip
    (Protocol.Submit
       {
         spec =
           spec ~netlist:"INPUT(a)\nOUTPUT(b)\nb = NOT(a)\n" ~seed:7 ~t0:"random"
             ~timeout:2.5 ();
         want_tset = true;
         client_id = Some 42;
       });
  (* Submit responses decode back into the result they render. *)
  let base =
    { Scheduler.r_status = Scheduler.Complete; r_tests = 3; r_cycles = 41;
      r_detected = 30; r_targets = 32; r_iterations = 2;
      r_tset = Some "tset body"; r_resumed = true }
  in
  List.iter
    (fun status ->
      List.iter
        (fun tset ->
          let r = { base with Scheduler.r_status = status; r_tset = tset } in
          let json =
            Protocol.submit_response ~id:(Some 3) ~cached:false ~want_tset:true r
          in
          let line = Json.to_string ~compact:true json in
          match Protocol.result_of_response (Json.of_string line) with
          | Ok r' ->
              Alcotest.(check bool) (Printf.sprintf "result of %s" line) true
                (r = r')
          | Error e -> Alcotest.failf "decoding %s failed: %s" line e)
        [ Some "tset body"; None ])
    [
      Scheduler.Complete;
      Scheduler.Partial { reason = "deadline"; stage = "phase4" };
      Scheduler.Failed "boom";
    ]

let test_protocol_decode_errors () =
  let expect_error line msg_part =
    match Protocol.request_of_string line with
    | Error m ->
        Alcotest.(check bool)
          (Printf.sprintf "%S error mentions %S (got %S)" line msg_part m)
          true (contains m msg_part)
    | Ok _ -> Alcotest.failf "%S should not decode" line
  in
  expect_error "" "at offset";
  expect_error "{nope" "at offset";
  expect_error "[1,2]" "missing \"op\"";
  expect_error "{\"op\":42}" "must be a string";
  expect_error "{\"op\":\"zap\"}" "unknown op";
  expect_error "{\"op\":\"submit\",\"seed\":\"one\"}" "bad \"seed\"";
  expect_error "{\"op\":\"submit\",\"tset\":1}" "bad \"tset\"";
  expect_error "{\"op\":\"submit\",\"timeout\":\"fast\"}" "bad \"timeout\""

let test_submit_response_shape () =
  let result =
    { Scheduler.r_status = Scheduler.Complete; r_tests = 3; r_cycles = 41;
      r_detected = 30; r_targets = 32; r_iterations = 2;
      r_tset = Some "tset body"; r_resumed = true }
  in
  let json =
    Protocol.submit_response ~id:(Some 7) ~cached:false ~want_tset:true result
  in
  let get k = Json.member k json in
  Alcotest.(check (option bool)) "ok" (Some true) (Option.bind (get "ok") Json.as_bool);
  Alcotest.(check (option int)) "id" (Some 7) (Option.bind (get "id") Json.as_int);
  Alcotest.(check (option string)) "status" (Some "complete")
    (Option.bind (get "status") Json.as_str);
  Alcotest.(check (option bool)) "resumed" (Some true)
    (Option.bind (get "resumed") Json.as_bool);
  Alcotest.(check (option string)) "tset included" (Some "tset body")
    (Option.bind (get "tset") Json.as_str);
  (* Without want_tset the body is withheld even when present; a cache
     hit has no job id. *)
  let lean = Protocol.submit_response ~id:None ~cached:true ~want_tset:false result in
  Alcotest.(check bool) "tset withheld" true (Json.member "tset" lean = None);
  Alcotest.(check bool) "cached id is null" true
    (Json.member "id" lean = Some Json.Null);
  let failed =
    Protocol.submit_response ~id:(Some 1) ~cached:false ~want_tset:false
      { result with Scheduler.r_status = Scheduler.Failed "boom" }
  in
  Alcotest.(check (option bool)) "failed not ok" (Some false)
    (Option.bind (Json.member "ok" failed) Json.as_bool);
  Alcotest.(check (option string)) "failure message" (Some "boom")
    (Option.bind (Json.member "error" failed) Json.as_str)

(* --- QCheck round-trips ------------------------------------------------ *)

(* Floats are excluded by construction: the writer prints integral floats
   without a point, which re-parse as Int — a representation change the
   round-trip equality would flag — and NaN has no JSON spelling at all. *)
let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) small_signed_int;
        map (fun s -> Json.Str s) (string_size ~gen:printable (int_bound 12));
      ]
  in
  let key =
    string_size
      ~gen:(map (fun i -> Char.chr (Char.code 'a' + i)) (int_bound 25))
      (int_range 1 6)
  in
  fix
    (fun self depth ->
      if depth = 0 then scalar
      else
        frequency
          [
            (3, scalar);
            ( 1,
              map (fun l -> Json.List l) (list_size (int_bound 4) (self (depth - 1)))
            );
            ( 1,
              map (fun l -> Json.Obj l)
                (list_size (int_bound 4) (pair key (self (depth - 1)))) );
          ])
    3

let prop_json_roundtrip =
  QCheck.Test.make ~name:"Json parse inverts printing (compact and indented)"
    ~count:500
    (QCheck.make ~print:(Json.to_string ~compact:true) json_gen)
    (fun v ->
      Json.of_string (Json.to_string ~compact:true v) = v
      && Json.of_string (Json.to_string ~compact:false v) = v)

(* Satellite: Tset_io write -> read is the identity over random test sets
   (the serving layer ships results through exactly this format). *)
let tset_gen =
  let c = Asc_circuits.S27.circuit () in
  let n_si = Asc_netlist.Circuit.n_dffs c in
  let n_pi = Asc_netlist.Circuit.n_inputs c in
  let open QCheck.Gen in
  let bools n = array_size (return n) bool in
  let test_gen =
    int_range 1 5 >>= fun len ->
    bools n_si >>= fun si ->
    array_size (return len) (bools n_pi) >>= fun seq ->
    return (Scan_test.create ~si ~seq)
  in
  array_size (int_bound 6) test_gen

let prop_tset_roundtrip =
  QCheck.Test.make ~name:"Tset_io read inverts write over random test sets"
    ~count:200
    (QCheck.make
       ~print:(fun tests -> Tset_io.to_string (Asc_circuits.S27.circuit ()) tests)
       tset_gen)
    (fun tests ->
      let c = Asc_circuits.S27.circuit () in
      let name, back = Tset_io.of_string (Tset_io.to_string c tests) in
      name = Asc_netlist.Circuit.name c
      && Array.length back = Array.length tests
      && Array.for_all2 Scan_test.equal back tests)

(* --- Black-box suites over the real binary ----------------------------- *)

let asc_exe =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "bin/asc.exe"

let spawn_server ?(env = []) args log =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  (* getenv returns the FIRST match, so appending cannot override an
     entry a putenv-using test (test_chaos) left behind; rebuild the
     environment with ASC_CHAOS and any overridden names stripped. *)
  let name_of kv =
    match String.index_opt kv '=' with
    | Some i -> String.sub kv 0 i
    | None -> kv
  in
  let overridden = List.map name_of env in
  let inherited =
    List.filter
      (fun kv ->
        let name = name_of kv in
        name <> Chaos.env_var && not (List.mem name overridden))
      (Array.to_list (Unix.environment ()))
  in
  let envp = Array.of_list (inherited @ env) in
  let pid =
    Unix.create_process_env asc_exe
      (Array.of_list ("asc" :: args))
      envp Unix.stdin fd fd
  in
  Unix.close fd;
  pid

let wait_for_socket path =
  let rec go n =
    if Sys.file_exists path then ()
    else if n = 0 then Alcotest.failf "server socket %s never appeared" path
    else begin
      Unix.sleepf 0.05;
      go (n - 1)
    end
  in
  go 200

type client = { fd : Unix.file_descr; ic : in_channel }

let client_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; ic = Unix.in_channel_of_descr fd }

let client_send c text =
  let n = String.length text in
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + Unix.write_substring c.fd text !sent (n - !sent)
  done

let client_request c line = client_send c (line ^ "\n")

let client_recv c = input_line c.ic

let client_close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Spawn `asc serve` on a fresh Unix socket, run [f socket_path], then
   reap the process (the body normally shuts the server down itself; the
   kill in [finally] is the safety net so one failure cannot hang the
   suite).  Returns the server's exit status. *)
let with_server ?env ?(domains = 2) ?state_dir ?(args = []) f =
  let dir = temp_dir "asc-serve" in
  let sock = Filename.concat dir "asc.sock" in
  let args =
    [ "serve"; "--socket"; sock; "--domains"; string_of_int domains ]
    @ (match state_dir with None -> [] | Some d -> [ "--state-dir"; d ])
    @ args
  in
  let pid = spawn_server ?env args (Filename.concat dir "server.log") in
  let status = ref None in
  Fun.protect
    ~finally:(fun () ->
      (match !status with
      | Some _ -> ()
      | None -> (
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()));
      rm_rf dir)
    (fun () ->
      wait_for_socket sock;
      f sock;
      let _, st = Unix.waitpid [] pid in
      status := Some st;
      st)

let ping_golden = "{\"ok\":true,\"op\":\"ping\",\"protocol\":1}"

let shutdown_server c =
  client_request c "{\"op\":\"shutdown\"}";
  Alcotest.(check string) "shutdown golden response"
    "{\"ok\":true,\"op\":\"shutdown\",\"drained\":0}" (client_recv c)

let submit_line ?(tset = false) ?timeout ?(seed = 1) ?id circuit =
  let timeout_part =
    match timeout with None -> "" | Some t -> Printf.sprintf ",\"timeout\":%g" t
  in
  Printf.sprintf "{\"op\":\"submit\",\"circuit\":%S,\"seed\":%d%s%s%s}" circuit seed
    timeout_part
    (if tset then ",\"tset\":true" else "")
    (match id with None -> "" | Some i -> Printf.sprintf ",\"id\":%d" i)

let response_member resp key =
  match Json.parse resp with
  | Error e -> Alcotest.failf "unparseable response %S: %s" resp e
  | Ok json -> Json.member key json

let check_bool_member resp key expected =
  Alcotest.(check (option bool))
    (Printf.sprintf "%s of %s" key (String.sub resp 0 (min 60 (String.length resp))))
    (Some expected)
    (Option.bind (response_member resp key) Json.as_bool)

let int_member resp key =
  match Option.bind (response_member resp key) Json.as_int with
  | Some v -> v
  | None -> Alcotest.failf "response lacks int %S: %s" key resp

let str_member resp key =
  match Option.bind (response_member resp key) Json.as_str with
  | Some v -> v
  | None -> Alcotest.failf "response lacks string %S: %s" key resp

let run_cli args =
  let cmd =
    Printf.sprintf "%s %s >/dev/null 2>&1" (Filename.quote asc_exe)
      (String.concat " " (List.map Filename.quote args))
  in
  match Unix.system cmd with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "reference CLI run failed: asc %s" (String.concat " " args)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Conformance: golden transcripts for the stable frames, field checks
   against a one-shot `asc run --json` for the computed ones, and framing
   edge cases (pipelining, CRLF, blank lines, malformed frames). *)
let test_server_conformance () =
  if not (Sys.file_exists asc_exe) then Alcotest.skip ()
  else
    let st =
      with_server (fun sock ->
          let c = client_connect sock in
          Fun.protect ~finally:(fun () -> client_close c) @@ fun () ->
          client_request c "{\"op\":\"ping\"}";
          Alcotest.(check string) "ping golden response" ping_golden (client_recv c);
          (* Pipelining: two frames in one write, two responses. *)
          client_send c "{\"op\":\"ping\"}\n{\"op\":\"ping\"}\n";
          Alcotest.(check string) "pipelined 1" ping_golden (client_recv c);
          Alcotest.(check string) "pipelined 2" ping_golden (client_recv c);
          (* CRLF and blank lines are tolerated silently. *)
          client_send c "\r\n\n{\"op\":\"ping\"}\r\n";
          Alcotest.(check string) "crlf framing" ping_golden (client_recv c);
          (* Malformed frames answer with an error and keep the line open. *)
          client_request c "{not json";
          check_bool_member (client_recv c) "ok" false;
          client_request c "{\"op\":\"zap\"}";
          check_bool_member (client_recv c) "ok" false;
          client_request c "{\"op\":\"submit\",\"circuit\":\"nosuch\"}";
          let resp = client_recv c in
          check_bool_member resp "ok" false;
          Alcotest.(check bool) "names the circuit" true
            (contains (str_member resp "error") "nosuch");
          (* A served submit matches the one-shot CLI's --json summary. *)
          let dir = temp_dir "asc-conf" in
          Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
          let ref_json = Filename.concat dir "ref.json" in
          run_cli [ "run"; "s27"; "--domains"; "1"; "--json"; ref_json ];
          let reference = Json.of_string (read_file ref_json) in
          client_request c (submit_line "s27");
          let resp = client_recv c in
          check_bool_member resp "ok" true;
          Alcotest.(check string) "served status" "complete"
            (str_member resp "status");
          List.iter
            (fun key ->
              Alcotest.(check int)
                (Printf.sprintf "served %s matches one-shot --json" key)
                (match Option.bind (Json.member key reference) Json.as_int with
                | Some v -> v
                | None -> Alcotest.failf "reference lacks %s" key)
                (int_member resp key))
            [ "tests"; "cycles"; "detected"; "targets"; "iterations" ];
          shutdown_server c)
    in
    Alcotest.(check bool) "clean exit" true (st = Unix.WEXITED 0)

(* Fuzz: random garbage frames must each draw an error response — never a
   crash, never a stuck connection. *)
let test_server_fuzz_malformed () =
  if not (Sys.file_exists asc_exe) then Alcotest.skip ()
  else
    let st =
      with_server (fun sock ->
          let c = client_connect sock in
          Fun.protect ~finally:(fun () -> client_close c) @@ fun () ->
          let rng = Rng.create 20260808 in
          let charset = "{}[]\",:truefalsn0123456789.eE+- \\x" in
          for _ = 1 to 60 do
            let len = 1 + Rng.int rng 40 in
            let frame =
              String.init len (fun _ -> charset.[Rng.int rng (String.length charset)])
            in
            client_request c frame;
            check_bool_member (client_recv c) "ok" false
          done;
          (* Every strict prefix of a valid request is still just an error. *)
          let valid = "{\"op\":\"submit\",\"circuit\":\"s27\",\"seed\":1}" in
          for len = 1 to String.length valid - 1 do
            client_request c (String.sub valid 0 len);
            check_bool_member (client_recv c) "ok" false
          done;
          (* The connection survived all of it. *)
          client_request c "{\"op\":\"ping\"}";
          Alcotest.(check string) "healthy after fuzz" ping_golden (client_recv c);
          shutdown_server c)
    in
    Alcotest.(check bool) "clean exit" true (st = Unix.WEXITED 0)

(* Framing on a client front ([asc serve] or [asc route]): pipelined,
   CRLF-terminated, blank, split and malformed frames keep the
   connection; a frame over the 8 MiB cap (no newline) draws an error
   response and then end of file. *)
let check_front_framing sock =
  let c = client_connect sock in
  Fun.protect ~finally:(fun () -> client_close c) @@ fun () ->
  (* A front that never answers fails the read instead of hanging. *)
  Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO 30.0;
  client_send c "{\"op\":\"ping\"}\n{\"op\":\"ping\"}\n";
  Alcotest.(check string) "pipelined 1" ping_golden (client_recv c);
  Alcotest.(check string) "pipelined 2" ping_golden (client_recv c);
  client_send c "\r\n\n{\"op\":\"ping\"}\r\n";
  Alcotest.(check string) "crlf framing" ping_golden (client_recv c);
  client_send c "{\"op\":";
  Unix.sleepf 0.05;
  client_send c "\"ping\"}\n";
  Alcotest.(check string) "frame split across writes" ping_golden
    (client_recv c);
  client_request c "{not json";
  check_bool_member (client_recv c) "ok" false;
  client_request c "{\"op\":\"zap\"}";
  check_bool_member (client_recv c) "ok" false;
  client_send c (String.make ((8 * 1024 * 1024) + 1) 'x');
  let resp = client_recv c in
  check_bool_member resp "ok" false;
  Alcotest.(check bool) "names the frame cap" true
    (contains (str_member resp "error") "frame exceeds");
  Alcotest.check_raises "closed after the over-cap frame" End_of_file (fun () ->
      ignore (client_recv c))

let test_server_framing () =
  if not (Sys.file_exists asc_exe) then Alcotest.skip ()
  else
    let st =
      with_server ~domains:1 (fun sock ->
          check_front_framing sock;
          let c = client_connect sock in
          Fun.protect ~finally:(fun () -> client_close c) @@ fun () ->
          shutdown_server c)
    in
    Alcotest.(check bool) "clean exit" true (st = Unix.WEXITED 0)

(* Run the CLI; return its exit code and its stdout and stderr. *)
let cli_status args =
  let out = Filename.temp_file "asc-cli" ".out" in
  Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
  let cmd =
    Printf.sprintf "%s %s >%s 2>&1" (Filename.quote asc_exe)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out)
  in
  let code = match Unix.system cmd with Unix.WEXITED n -> n | _ -> -1 in
  (code, read_file out)

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> port
  | Unix.ADDR_UNIX _ -> assert false

let wait_for_tcp port =
  let rec go n =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
    | () -> Unix.close fd
    | exception Unix.Unix_error _ ->
        Unix.close fd;
        if n = 0 then Alcotest.failf "nothing listens on port %d" port;
        Unix.sleepf 0.05;
        go (n - 1)
  in
  go 200

(* Run [asc args] in the background while [f] runs, then reap it and
   return its exit status; if [f] fails, the process is killed. *)
let with_asc args f =
  let log = Filename.temp_file "asc-proc" ".log" in
  let pid = spawn_server args log in
  let status = ref None in
  Fun.protect
    ~finally:(fun () ->
      if !status = None then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
      end;
      Sys.remove log)
    (fun () ->
      f ();
      let _, st = Unix.waitpid [] pid in
      status := Some st;
      st)

(* `asc serve --tcp` accepts a host name, and so does `asc client`. *)
let test_tcp_host_name () =
  if not (Sys.file_exists asc_exe) then Alcotest.skip ()
  else
    let port = free_port () in
    let addr = Printf.sprintf "localhost:%d" port in
    let st =
      with_asc [ "serve"; "--tcp"; addr; "--domains"; "1" ] (fun () ->
          wait_for_tcp port;
          let code, out = cli_status [ "client"; "--tcp"; addr; "ping" ] in
          Alcotest.(check int) ("client by host name: " ^ out) 0 code;
          Alcotest.(check string) "ping over TCP" ping_golden (String.trim out);
          let code, _ = cli_status [ "client"; "--tcp"; addr; "shutdown" ] in
          Alcotest.(check int) "shutdown by host name" 0 code)
    in
    Alcotest.(check bool) "clean exit" true (st = Unix.WEXITED 0)

(* A host name that does not resolve is an input error with a message
   (exit 1) for both ends, never an uncaught exception (exit 125). *)
let test_unresolvable_host () =
  if not (Sys.file_exists asc_exe) then Alcotest.skip ()
  else
    List.iter
      (fun args ->
        let code, out = cli_status args in
        Alcotest.(check int) (String.concat " " args ^ ": " ^ out) 1 code;
        Alcotest.(check bool) "names the host" true
          (contains out "cannot resolve host \"nosuchhost.invalid\""))
      [
        [ "serve"; "--tcp"; "nosuchhost.invalid:7000"; "--domains"; "1" ];
        [ "client"; "--tcp"; "nosuchhost.invalid:7000"; "ping" ];
      ]

(* Determinism: concurrently served jobs are byte-identical to one-shot
   `asc save-tests`, whatever the server's pool size; resubmission is
   answered from the cache, observable in the metrics counters. *)
let test_server_determinism () =
  if not (Sys.file_exists asc_exe) then Alcotest.skip ()
  else begin
    let dir = temp_dir "asc-det" in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    let reference circuit =
      let path = Filename.concat dir (circuit ^ ".ref") in
      run_cli [ "save-tests"; circuit; path; "--domains"; "1" ];
      read_file path
    in
    let ref_s27 = reference "s27" and ref_s298 = reference "s298" in
    List.iter
      (fun domains ->
        let st =
          with_server ~domains (fun sock ->
              (* Three clients submit before any response is read: the
                 server queues them all and drains round-robin. *)
              let c1 = client_connect sock in
              let c2 = client_connect sock in
              let c3 = client_connect sock in
              Fun.protect
                ~finally:(fun () -> List.iter client_close [ c1; c2; c3 ])
              @@ fun () ->
              client_request c1 (submit_line ~tset:true "s27");
              client_request c2 (submit_line ~tset:true "s298");
              client_request c3 (submit_line ~tset:true ~seed:2 "s27");
              let r1 = client_recv c1 in
              let r2 = client_recv c2 in
              let r3 = client_recv c3 in
              List.iter (fun r -> check_bool_member r "ok" true) [ r1; r2; r3 ];
              Alcotest.(check string)
                (Printf.sprintf "s27 served = one-shot (domains=%d)" domains)
                ref_s27 (str_member r1 "tset");
              Alcotest.(check string)
                (Printf.sprintf "s298 served = one-shot (domains=%d)" domains)
                ref_s298 (str_member r2 "tset");
              Alcotest.(check bool) "seed-2 job completed too" true
                (str_member r3 "status" = "complete");
              (* Resubmission: cache hit, visible to the client and in the
                 fleet counters. *)
              client_request c1 (submit_line ~tset:true "s27");
              let again = client_recv c1 in
              check_bool_member again "cached" true;
              Alcotest.(check string) "cached tset identical" ref_s27
                (str_member again "tset");
              client_request c1 "{\"op\":\"metrics\"}";
              let m = client_recv c1 in
              let counter name =
                match
                  Option.bind (response_member m "counters") (Json.member name)
                with
                | Some v -> Option.value ~default:(-1) (Json.as_int v)
                | None -> Alcotest.failf "metrics lacks counter %s" name
              in
              Alcotest.(check int) "one cache hit" 1 (counter "result_cache_hits");
              Alcotest.(check int) "three misses" 3 (counter "result_cache_misses");
              Alcotest.(check int) "three completions" 3 (counter "jobs_completed");
              Alcotest.(check int) "four submissions" 4 (counter "jobs_submitted");
              shutdown_server c1)
        in
        Alcotest.(check bool)
          (Printf.sprintf "clean exit (domains=%d)" domains)
          true
          (st = Unix.WEXITED 0))
      [ 1; 2; 4 ]
  end

(* Chaos soak: kill the server mid-job (second checkpoint write), restart
   it over the same state dir, and require the resubmitted job to resume
   from the snapshot and land bit-identically on the one-shot result. *)
let test_server_chaos_soak () =
  if not (Sys.file_exists asc_exe) then Alcotest.skip ()
  else begin
    let dir = temp_dir "asc-soak" in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    let ref_path = Filename.concat dir "s298.ref" in
    run_cli [ "save-tests"; "s298"; ref_path; "--domains"; "1" ];
    let reference = read_file ref_path in
    let state = Filename.concat dir "state" in
    let sock = Filename.concat dir "asc.sock" in
    (* Round 1: the armed server dies mid-job with the kill exit code. *)
    let pid =
      spawn_server
        ~env:[ "ASC_CHAOS=" ^ Chaos.checkpoint_output ^ "@2=kill" ]
        [ "serve"; "--socket"; sock; "--domains"; "2"; "--state-dir"; state ]
        (Filename.concat dir "server1.log")
    in
    wait_for_socket sock;
    let c = client_connect sock in
    client_request c (submit_line ~tset:true "s298");
    (match client_recv c with
    | exception End_of_file -> ()
    | line -> Alcotest.failf "expected the server to die, got %s" line);
    client_close c;
    let _, st = Unix.waitpid [] pid in
    Alcotest.(check bool) "chaos kill exits 137" true (st = Unix.WEXITED 137);
    Alcotest.(check bool) "a checkpoint survived the crash" true
      (Sys.file_exists state
      && Array.exists
           (fun f -> contains f ".ckpt")
           (Sys.readdir state));
    (* Round 2: a fresh server over the same state dir resumes the job. *)
    let pid2 =
      spawn_server
        [ "serve"; "--socket"; sock; "--domains"; "2"; "--state-dir"; state ]
        (Filename.concat dir "server2.log")
    in
    wait_for_socket sock;
    let c = client_connect sock in
    Fun.protect ~finally:(fun () -> client_close c) @@ fun () ->
    client_request c (submit_line ~tset:true "s298");
    let resp = client_recv c in
    check_bool_member resp "ok" true;
    check_bool_member resp "resumed" true;
    Alcotest.(check string) "resumed job completes" "complete"
      (str_member resp "status");
    Alcotest.(check string) "resumed tset = one-shot" reference
      (str_member resp "tset");
    shutdown_server c;
    let _, st2 = Unix.waitpid [] pid2 in
    Alcotest.(check bool) "clean exit after resume" true (st2 = Unix.WEXITED 0)
  end

(* Supervised serving: --workers 2 results are byte-identical to the
   one-shot CLI, a shutdown with jobs in flight drains them first and
   reports the count, and a restarted daemon answers the same submission
   from the persistent result store. *)
let test_server_supervised () =
  if not (Sys.file_exists asc_exe) then Alcotest.skip ()
  else begin
    let dir = temp_dir "asc-sup" in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    let reference circuit =
      let path = Filename.concat dir (circuit ^ ".ref") in
      run_cli [ "save-tests"; circuit; path; "--domains"; "1" ];
      read_file path
    in
    let ref_s298 = reference "s298" and ref_s344 = reference "s344" in
    let state = Filename.concat dir "state" in
    (* Round 1: two jobs in flight on two workers, then shutdown — the
       server must drain both before answering.  Both submits and the
       shutdown go out in one write, so the server reads them in one loop
       turn and the shutdown finds both jobs outstanding however fast
       they run. *)
    let st =
      with_server ~state_dir:state ~args:[ "--workers"; "2" ] (fun sock ->
          let c = client_connect sock in
          Fun.protect ~finally:(fun () -> client_close c) @@ fun () ->
          client_send c
            (String.concat "\n"
               [ submit_line ~tset:true ~id:1 "s298"; submit_line ~tset:true ~id:2 "s344";
                 "{\"op\":\"shutdown\"}\n" ]);
          (* The job responses come back in completion order, the
             shutdown response after both. *)
          let r_a = client_recv c in
          let r_b = client_recv c in
          let sh = client_recv c in
          List.iter (fun r -> check_bool_member r "ok" true) [ r_a; r_b; sh ];
          let r1, r2 = if int_member r_a "id" = 1 then (r_a, r_b) else (r_b, r_a) in
          Alcotest.(check (list int)) "one response per job" [ 1; 2 ]
            [ int_member r1 "id"; int_member r2 "id" ];
          Alcotest.(check string) "supervised s298 = one-shot" ref_s298
            (str_member r1 "tset");
          Alcotest.(check string) "supervised s344 = one-shot" ref_s344
            (str_member r2 "tset");
          Alcotest.(check bool) "shutdown drained in-flight jobs" true
            (int_member sh "drained" >= 1))
    in
    Alcotest.(check bool) "clean supervised exit" true (st = Unix.WEXITED 0);
    (* Round 2: a restarted daemon serves the same submission from the
       persistent result store, byte-identically. *)
    let st2 =
      with_server ~state_dir:state ~args:[ "--workers"; "2" ] (fun sock ->
          let c = client_connect sock in
          Fun.protect ~finally:(fun () -> client_close c) @@ fun () ->
          client_request c (submit_line ~tset:true "s298");
          let resp = client_recv c in
          check_bool_member resp "ok" true;
          check_bool_member resp "cached" true;
          Alcotest.(check string) "persisted tset = one-shot" ref_s298
            (str_member resp "tset");
          client_request c "{\"op\":\"metrics\"}";
          let m = client_recv c in
          let counter name =
            match Option.bind (response_member m "counters") (Json.member name) with
            | Some v -> Option.value ~default:(-1) (Json.as_int v)
            | None -> Alcotest.failf "metrics lacks counter %s" name
          in
          Alcotest.(check int) "persisted hit counted" 1
            (counter "result_cache_persisted_hits");
          shutdown_server c)
    in
    Alcotest.(check bool) "clean exit after restart" true (st2 = Unix.WEXITED 0)
  end

(* Supervised chaos: a SIGKILL'd worker (supervisor.dispatch kill rule)
   costs nothing but a requeue — both jobs land byte-identical to the
   one-shot CLI and the crash/requeue/restart counters tell the story. *)
let test_server_supervised_chaos () =
  if not (Sys.file_exists asc_exe) then Alcotest.skip ()
  else begin
    let dir = temp_dir "asc-sup-chaos" in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    let ref_path = Filename.concat dir "s298.ref" in
    run_cli [ "save-tests"; "s298"; ref_path; "--domains"; "1" ];
    let reference = read_file ref_path in
    let st =
      with_server
        ~env:[ "ASC_CHAOS=" ^ Chaos.supervisor_dispatch ^ "@1=kill" ]
        ~state_dir:(Filename.concat dir "state")
        ~args:[ "--workers"; "2" ]
        (fun sock ->
          let c1 = client_connect sock in
          let c2 = client_connect sock in
          Fun.protect ~finally:(fun () -> List.iter client_close [ c1; c2 ])
          @@ fun () ->
          client_request c1 (submit_line ~tset:true "s298");
          client_request c2 (submit_line ~tset:true "s27");
          let r1 = client_recv c1 in
          let r2 = client_recv c2 in
          List.iter (fun r -> check_bool_member r "ok" true) [ r1; r2 ];
          Alcotest.(check string) "killed-and-retried job = one-shot" reference
            (str_member r1 "tset");
          client_request c1 "{\"op\":\"metrics\"}";
          let m = client_recv c1 in
          let counter name =
            match Option.bind (response_member m "counters") (Json.member name) with
            | Some v -> Option.value ~default:(-1) (Json.as_int v)
            | None -> Alcotest.failf "metrics lacks counter %s" name
          in
          Alcotest.(check bool) "a worker was crashed" true
            (counter "worker_crashes" >= 1);
          Alcotest.(check bool) "its job was requeued" true
            (counter "jobs_requeued" >= 1);
          Alcotest.(check bool) "the slot was restarted" true
            (counter "worker_restarts" >= 1);
          Alcotest.(check int) "both jobs completed" 2
            (counter "jobs_completed");
          shutdown_server c1)
    in
    Alcotest.(check bool) "clean exit despite worker kills" true
      (st = Unix.WEXITED 0)
  end

(* Poison job: a chaos rule that crashes the worker on every attempt
   must exhaust the per-job retry budget and fail that job with the
   typed worker_crash error — the server itself stays up. *)
let test_server_supervised_poison () =
  if not (Sys.file_exists asc_exe) then Alcotest.skip ()
  else
    let dir = temp_dir "asc-sup-poison" in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    let st =
      with_server
        ~env:[ "ASC_CHAOS=" ^ Chaos.checkpoint_open ^ "@1=kill" ]
        ~state_dir:(Filename.concat dir "state")
        ~args:[ "--workers"; "1"; "--job-retries"; "2" ]
        (fun sock ->
          let c = client_connect sock in
          Fun.protect ~finally:(fun () -> client_close c) @@ fun () ->
          client_request c (submit_line "s298");
          let resp = client_recv c in
          check_bool_member resp "ok" false;
          Alcotest.(check string) "typed failure" "worker_crash"
            (str_member resp "error");
          Alcotest.(check string) "failed status" "failed"
            (str_member resp "status");
          client_request c "{\"op\":\"metrics\"}";
          let m = client_recv c in
          let counter name =
            match Option.bind (response_member m "counters") (Json.member name) with
            | Some v -> Option.value ~default:(-1) (Json.as_int v)
            | None -> Alcotest.failf "metrics lacks counter %s" name
          in
          Alcotest.(check int) "two crashes = the retry budget" 2
            (counter "worker_crashes");
          Alcotest.(check int) "job failed once" 1 (counter "jobs_failed");
          (* The server survived its poison job. *)
          client_request c "{\"op\":\"ping\"}";
          Alcotest.(check string) "server healthy" ping_golden (client_recv c);
          shutdown_server c)
    in
    Alcotest.(check bool) "clean exit after poison job" true
      (st = Unix.WEXITED 0)

(* Degraded mode: every spawn of the only slot fails (the first and all
   5 restarts), so the slot is retired and the parent runs the job
   in-process — still byte-identical to the one-shot CLI. *)
let test_server_degraded_mode () =
  if not (Sys.file_exists asc_exe) then Alcotest.skip ()
  else begin
    let dir = temp_dir "asc-degraded" in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    let ref_path = Filename.concat dir "s27.ref" in
    run_cli [ "save-tests"; "s27"; ref_path; "--domains"; "1" ];
    let events = Filename.concat dir "events.jsonl" in
    let schedule =
      String.concat ","
        (List.init 6 (fun i ->
             Printf.sprintf "%s@%d=fail" Chaos.worker_fork (i + 1)))
    in
    let st =
      with_server
        ~env:[ "ASC_CHAOS=" ^ schedule ]
        ~args:[ "--workers"; "1"; "--log-file"; events ]
        (fun sock ->
          let c = client_connect sock in
          Fun.protect ~finally:(fun () -> client_close c) @@ fun () ->
          client_request c (submit_line ~tset:true "s27");
          let resp = client_recv c in
          Alcotest.(check string) "complete" "complete" (str_member resp "status");
          Alcotest.(check string) "in-process fallback = one-shot"
            (read_file ref_path) (str_member resp "tset");
          shutdown_server c)
    in
    Alcotest.(check bool) "clean exit in degraded mode" true
      (st = Unix.WEXITED 0);
    Alcotest.(check bool) "the slot was retired" true
      (contains (read_file events) "\"worker.retired\"")
  end

(* The queue-depth gauge is computed from the queues themselves — redo
   queue plus per-source FIFOs — so a requeued in-flight job counts
   again and the number cannot drift from the real backlog. *)
let test_scheduler_pending_counts_redo () =
  let sched = Scheduler.create () in
  let submit source seed =
    match Scheduler.submit sched ~source (spec ~circuit:"s27" ~seed ()) with
    | Scheduler.Accepted j -> j
    | _ -> Alcotest.fail "expected Accepted"
  in
  let _ = submit 1 1 and _ = submit 1 2 and _ = submit 2 3 in
  Alcotest.(check int) "three queued" 3 (Scheduler.pending sched);
  let job =
    match Scheduler.pick sched with
    | Some j -> j
    | None -> Alcotest.fail "pick returned nothing"
  in
  Alcotest.(check int) "picked job leaves the count" 2 (Scheduler.pending sched);
  Alcotest.(check bool) "pick stamps the dispatch time" true
    (job.Scheduler.j_dispatched >= job.Scheduler.j_submitted
    && job.Scheduler.j_dispatched > 0.0);
  Scheduler.requeue sched job;
  Alcotest.(check int) "requeued job counts again" 3 (Scheduler.pending sched);
  (* The redo queue drains first, then the FIFOs. *)
  (match Scheduler.pick sched with
  | Some j ->
      Alcotest.(check int) "redo job first" job.Scheduler.j_id j.Scheduler.j_id
  | None -> Alcotest.fail "redo pick returned nothing");
  ignore (Scheduler.pick sched);
  ignore (Scheduler.pick sched);
  Alcotest.(check int) "drained" 0 (Scheduler.pending sched);
  Alcotest.(check bool) "empty pick" true (Scheduler.pick sched = None)

(* Acceptance gate for the observability stack: served results must be
   byte-identical with full observability on (event log at debug, trace
   stitching, prometheus file) and off, in-process-style single-worker
   and across a four-worker fleet.  While at it, assert the artifacts
   themselves: decodable JSONL with a submitted->completed pair per job,
   a valid stitched trace with one process per worker pid, and a
   grammar-consistent exposition file. *)
let test_server_obs_identity () =
  if not (Sys.file_exists asc_exe) then Alcotest.skip ()
  else
    List.iter
      (fun workers ->
        let dir = temp_dir "asc-obs-id" in
        Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
        let submit_both sock =
          let c1 = client_connect sock in
          let c2 = client_connect sock in
          Fun.protect ~finally:(fun () -> List.iter client_close [ c1; c2 ])
          @@ fun () ->
          client_request c1 (submit_line ~tset:true "s298");
          client_request c2 (submit_line ~tset:true "s344");
          let r1 = client_recv c1 in
          let r2 = client_recv c2 in
          List.iter (fun r -> check_bool_member r "ok" true) [ r1; r2 ];
          let out = (str_member r1 "tset", str_member r2 "tset") in
          shutdown_server c1;
          out
        in
        let plain = ref ("", "") in
        let st =
          with_server ~args:[ "--workers"; string_of_int workers ] (fun sock ->
              plain := submit_both sock)
        in
        Alcotest.(check bool) "plain server exits cleanly" true
          (st = Unix.WEXITED 0);
        let events = Filename.concat dir "events.jsonl" in
        let trace = Filename.concat dir "trace.json" in
        let prom = Filename.concat dir "prom.txt" in
        let observed = ref ("", "") in
        let st =
          with_server
            ~args:
              [
                "--workers"; string_of_int workers;
                "--log-file"; events; "--log-level"; "debug";
                "--trace"; trace; "--prom-file"; prom;
              ]
            (fun sock -> observed := submit_both sock)
        in
        Alcotest.(check bool) "observed server exits cleanly" true
          (st = Unix.WEXITED 0);
        let tag s = Printf.sprintf "%s (workers=%d)" s workers in
        Alcotest.(check string) (tag "s298 identical with obs on")
          (fst !plain) (fst !observed);
        Alcotest.(check string) (tag "s344 identical with obs on")
          (snd !plain) (snd !observed);
        (* Event log: decodable JSONL, one submitted->completed pair per
           job key. *)
        let lines =
          String.split_on_char '\n' (read_file events)
          |> List.filter (fun l -> l <> "")
        in
        Alcotest.(check bool) (tag "event log is non-trivial") true
          (List.length lines >= 6);
        let decoded =
          List.map
            (fun line ->
              match Result.bind (Json.parse line) Asc_util.Log.event_of_json with
              | Ok e -> e
              | Error e -> Alcotest.failf "bad event line %S: %s" line e)
            lines
        in
        let keys_of name =
          List.filter_map
            (fun e ->
              if e.Asc_util.Log.ev_event = name then e.Asc_util.Log.ev_job
              else None)
            decoded
          |> List.sort_uniq compare
        in
        Alcotest.(check (list string)) (tag "submitted jobs all completed")
          (keys_of "job.submitted") (keys_of "job.completed");
        Alcotest.(check int) (tag "two jobs logged") 2
          (List.length (keys_of "job.submitted"));
        (* Stitched trace: valid Chrome JSON, balanced begin/end pairs,
           parent process plus one process per worker pid. *)
        let trace_text = read_file trace in
        Alcotest.(check bool) (tag "trace is valid") true
          (Test_telemetry.json_ok (String.trim trace_text));
        (match Json.parse trace_text with
        | Error e -> Alcotest.failf "unparseable trace: %s" e
        | Ok (Json.Obj members) -> (
            match List.assoc_opt "traceEvents" members with
            | Some (Json.List evs) ->
                let phase p =
                  List.length
                    (List.filter
                       (function
                         | Json.Obj m ->
                             List.assoc_opt "ph" m = Some (Json.Str p)
                         | _ -> false)
                       evs)
                in
                Alcotest.(check int) (tag "balanced B/E events") (phase "B")
                  (phase "E");
                let pids =
                  List.filter_map
                    (function
                      | Json.Obj m ->
                          Option.bind (List.assoc_opt "pid" m) Json.as_int
                      | _ -> None)
                    evs
                  |> List.sort_uniq compare
                in
                (* the parent plus every worker that ran a job *)
                let want = if workers >= 2 then 3 else 2 in
                Alcotest.(check bool)
                  (tag
                     (Printf.sprintf "at least %d process tracks (got %d)"
                        want (List.length pids)))
                  true
                  (List.length pids >= want)
            | _ -> Alcotest.fail "trace lacks traceEvents")
        | Ok _ -> Alcotest.fail "trace is not an object");
        (* Exposition file: the final rewrite reflects both completions. *)
        let prom_text = read_file prom in
        Alcotest.(check bool) (tag "prom counter") true
          (contains prom_text "asc_jobs_completed_total 2\n");
        Alcotest.(check bool) (tag "prom histogram count") true
          (contains prom_text "asc_job_e2e_seconds_count 2\n");
        Alcotest.(check bool) (tag "prom +Inf bucket") true
          (contains prom_text "asc_job_e2e_seconds_bucket{le=\"+Inf\"} 2\n"))
      [ 1; 4 ]

(* --- Overload, shedding, jitter and staleness --------------------------- *)

let test_backoff_bounds () =
  let feps = Alcotest.float 1e-9 in
  Alcotest.(check feps) "delay 0" 0.1 (Backoff.delay ~base:0.1 0);
  Alcotest.(check feps) "delay 3 doubles" 0.8 (Backoff.delay ~base:0.1 3);
  Alcotest.(check feps) "delay hits the cap" 5.0 (Backoff.delay ~base:0.1 10);
  Alcotest.(check feps) "custom cap" 0.5 (Backoff.delay ~cap:0.5 ~base:0.1 10);
  Alcotest.(check feps) "huge attempt stays finite" 5.0
    (Backoff.delay ~base:0.1 1_000_000);
  (* Full jitter: uniform in [0, delay] — check bounds over many samples
     with a seeded stream, and that it actually spreads. *)
  let rng = Rng.of_name ~seed:42 "test/backoff" in
  let distinct = Hashtbl.create 64 in
  for n = 0 to 9 do
    let ceiling = Backoff.delay ~base:0.1 n in
    for _ = 1 to 100 do
      let d = Backoff.full_jitter ~rng ~base:0.1 n in
      Alcotest.(check bool)
        (Printf.sprintf "jitter %g within [0, %g]" d ceiling)
        true
        (d >= 0.0 && d <= ceiling);
      Hashtbl.replace distinct d ()
    done
  done;
  Alcotest.(check bool) "jitter spreads" true (Hashtbl.length distinct > 100)

let test_scheduler_admission_overload () =
  let tel = Telemetry.create () in
  let sched = Scheduler.create ~tel ~max_pending:2 () in
  let submit source seed =
    Scheduler.submit sched ~source (spec ~circuit:"s27" ~seed ())
  in
  (match submit 1 1 with
  | Scheduler.Accepted _ -> ()
  | _ -> Alcotest.fail "first submit should queue");
  (match submit 1 2 with
  | Scheduler.Accepted _ -> ()
  | _ -> Alcotest.fail "second submit should queue");
  (match submit 2 3 with
  | Scheduler.Overloaded { retry_after_ms } ->
      Alcotest.(check bool) "retry hint in (0, 5000]" true
        (retry_after_ms > 0 && retry_after_ms <= 5000)
  | _ -> Alcotest.fail "third submit should be rejected overloaded");
  Alcotest.(check int) "reject leaves the queue alone" 2
    (Scheduler.pending sched);
  (* Draining one job reopens admission... *)
  (match Scheduler.run_next sched with
  | Some (_, r) ->
      Alcotest.(check bool) "drained job completes" true
        (r.Scheduler.r_status = Scheduler.Complete)
  | None -> Alcotest.fail "queue should not be empty");
  (match submit 2 4 with
  | Scheduler.Accepted _ -> ()
  | _ -> Alcotest.fail "freed slot should accept again");
  (* ...and a cache hit is answered even with the queue full: it costs
     no queue slot, so shedding it would only create retry traffic. *)
  (match submit 3 1 with
  | Scheduler.Cached _ -> ()
  | _ -> Alcotest.fail "full queue must still answer cache hits");
  let snap = Telemetry.drain tel in
  let count name = Telemetry.counter_value snap name in
  Alcotest.(check int) "one overload reject counted" 1
    (count "jobs_rejected_overload");
  (* Overload rejects are not submissions: 3 accepted + 1 cached. *)
  Alcotest.(check int) "jobs_submitted excludes rejects" 4
    (count "jobs_submitted")

let test_scheduler_admission_per_source () =
  let sched = Scheduler.create ~max_pending_per_source:1 () in
  let submit source seed =
    Scheduler.submit sched ~source (spec ~circuit:"s27" ~seed ())
  in
  (match submit 1 1 with
  | Scheduler.Accepted _ -> ()
  | _ -> Alcotest.fail "source 1 first job should queue");
  (match submit 1 2 with
  | Scheduler.Overloaded _ -> ()
  | _ -> Alcotest.fail "source 1 second job should be rejected");
  (match submit 2 3 with
  | Scheduler.Accepted _ -> ()
  | _ -> Alcotest.fail "the cap is per source, not global")

let test_scheduler_shed_deadline () =
  let tel = Telemetry.create () in
  let sched = Scheduler.create ~tel () in
  let doomed =
    match
      Scheduler.submit sched ~source:1
        (spec ~circuit:"s27" ~seed:1 ~timeout:0.01 ())
    with
    | Scheduler.Accepted j -> j
    | _ -> Alcotest.fail "doomed job should queue"
  in
  let survivor =
    match
      Scheduler.submit sched ~source:2 (spec ~circuit:"s27" ~seed:2 ())
    with
    | Scheduler.Accepted j -> j
    | _ -> Alcotest.fail "survivor should queue"
  in
  Unix.sleepf 0.05;
  (* pick skips over the expired job and dispatches the live one. *)
  (match Scheduler.pick sched with
  | Some j ->
      Alcotest.(check int) "survivor dispatched" survivor.Scheduler.j_id
        j.Scheduler.j_id
  | None -> Alcotest.fail "survivor should dispatch");
  (match Scheduler.take_shed sched with
  | [ (j, r) ] -> (
      Alcotest.(check int) "shed the expired job" doomed.Scheduler.j_id
        j.Scheduler.j_id;
      match r.Scheduler.r_status with
      | Scheduler.Partial { reason; stage } ->
          Alcotest.(check string) "shed reason" "deadline" reason;
          Alcotest.(check string) "shed stage" "queue" stage
      | _ -> Alcotest.fail "shed result should be partial")
  | other ->
      Alcotest.failf "expected exactly one shed job, got %d"
        (List.length other));
  Alcotest.(check bool) "take_shed drains" true (Scheduler.take_shed sched = []);
  let snap = Telemetry.drain tel in
  Alcotest.(check int) "jobs_shed counted" 1
    (Telemetry.counter_value snap "jobs_shed")

(* Black-box: a burst past --max-pending answers typed overloaded rejects
   (reason + retry_after_ms + echoed id) and honoring the hint retries
   every job to completion; the caps surface as gauges. *)
let test_server_overload_typed_rejects () =
  if not (Sys.file_exists asc_exe) then Alcotest.skip ()
  else
    let circuits = [| "s27"; "s298"; "s344"; "s382" |] in
    let st =
      with_server ~args:[ "--max-pending"; "1" ] (fun sock ->
          let c = client_connect sock in
          Fun.protect ~finally:(fun () -> client_close c) @@ fun () ->
          let line i =
            Printf.sprintf "{\"op\":\"submit\",\"circuit\":%S,\"seed\":1,\"id\":%d}"
              circuits.(i) i
          in
          (* One write, four pipelined submits. *)
          client_send c
            (String.concat "\n" (List.init 4 line) ^ "\n");
          let done_ids = Hashtbl.create 4 in
          let rejected = ref [] in
          List.iter
            (fun _ ->
              let r = client_recv c in
              let id = int_member r "id" in
              match Option.bind (response_member r "ok") Json.as_bool with
              | Some true ->
                  Alcotest.(check string) "complete" "complete"
                    (str_member r "status");
                  Hashtbl.replace done_ids id ()
              | _ ->
                  Alcotest.(check string) "typed reject" "overloaded"
                    (str_member r "reason");
                  Alcotest.(check bool) "carries a retry hint" true
                    (int_member r "retry_after_ms" > 0);
                  rejected := id :: !rejected)
            (List.init 4 Fun.id);
          Alcotest.(check bool) "the burst overflowed the cap" true
            (!rejected <> []);
          (* Retry each rejected job after its hint until it completes —
             sequentially, so at most one queue slot is contended. *)
          let rec retry budget id =
            if budget = 0 then Alcotest.failf "job %d never completed" id;
            client_request c (line id);
            let r = client_recv c in
            if Option.bind (response_member r "ok") Json.as_bool = Some true
            then Hashtbl.replace done_ids id ()
            else begin
              Unix.sleepf
                (float_of_int (int_member r "retry_after_ms") /. 1000.);
              retry (budget - 1) id
            end
          in
          List.iter (retry 50) !rejected;
          Alcotest.(check int) "every job completed" 4 (Hashtbl.length done_ids);
          client_request c "{\"op\":\"metrics\"}";
          let m = client_recv c in
          let counter name =
            match Option.bind (response_member m "counters") (Json.member name) with
            | Some v -> Option.value ~default:(-1) (Json.as_int v)
            | None -> Alcotest.failf "metrics lacks counter %s" name
          in
          Alcotest.(check bool) "overload rejects counted" true
            (counter "jobs_rejected_overload" >= 1);
          Alcotest.(check int) "nothing shed" 0 (counter "jobs_shed");
          (match
             Option.bind (response_member m "gauges") (Json.member "max_pending")
           with
          | Some v ->
              Alcotest.(check (option (float 1e-9))) "cap gauge" (Some 1.0)
                (Json.as_float v)
          | None -> Alcotest.fail "metrics lacks the max_pending gauge");
          shutdown_server c)
    in
    Alcotest.(check bool) "clean exit after overload burst" true
      (st = Unix.WEXITED 0)

(* Heartbeat staleness, end to end with the ASC_HB_STALE test knob: a
   SIGSTOPped worker stops polling, overruns its job's deadline by more
   than the (shrunk) staleness threshold, and is treated as crashed —
   SIGKILLed, its job requeued (then shed: its deadline is gone) and the
   slot respawned; the server keeps serving. *)
let test_server_hb_staleness () =
  if not (Sys.file_exists asc_exe) then Alcotest.skip ()
  else begin
    let dir = temp_dir "asc-hb" in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    let log_path = Filename.concat dir "events.jsonl" in
    let worker_pid () =
      (* The supervisor logs worker.start with the child pid. *)
      let rec poll n =
        if n = 0 then Alcotest.fail "worker.start never logged"
        else
          let pid =
            if not (Sys.file_exists log_path) then None
            else
              List.find_map
                (fun line ->
                  match Json.parse line with
                  | Ok json
                    when Option.bind (Json.member "event" json) Json.as_str
                         = Some "worker.start" ->
                      Option.bind (Json.member "pid" json) Json.as_int
                  | _ -> None)
                (String.split_on_char '\n' (read_file log_path))
          in
          match pid with
          | Some pid -> pid
          | None ->
              Unix.sleepf 0.1;
              poll (n - 1)
      in
      poll 100
    in
    let st =
      with_server
        ~env:[ "ASC_HB_STALE=1" ]
        ~args:[ "--workers"; "1"; "--log-file"; log_path ]
        (fun sock ->
          let c = client_connect sock in
          Fun.protect ~finally:(fun () -> client_close c) @@ fun () ->
          let pid = worker_pid () in
          client_request c (submit_line ~timeout:0.5 "s1423");
          (* Let the server dispatch, then freeze the worker mid-job. *)
          Unix.sleepf 0.2;
          Unix.kill pid Sys.sigstop;
          (* deadline 0.5s + staleness 1s: well inside 15s the stalled
             worker is killed and the job answered as shed. *)
          let resp = client_recv c in
          Alcotest.(check string) "stalled job shed as partial" "partial"
            (str_member resp "status");
          Alcotest.(check string) "shed reason" "deadline"
            (str_member resp "reason");
          client_request c "{\"op\":\"metrics\"}";
          let m = client_recv c in
          let counter name =
            match Option.bind (response_member m "counters") (Json.member name) with
            | Some v -> Option.value ~default:(-1) (Json.as_int v)
            | None -> Alcotest.failf "metrics lacks counter %s" name
          in
          Alcotest.(check bool) "stale worker counted as crash" true
            (counter "worker_crashes" >= 1);
          Alcotest.(check bool) "its job was requeued" true
            (counter "jobs_requeued" >= 1);
          Alcotest.(check bool) "the expired requeue was shed" true
            (counter "jobs_shed" >= 1);
          (* The respawned slot still serves. *)
          client_request c (submit_line "s27");
          let r = client_recv c in
          check_bool_member r "ok" true;
          Alcotest.(check string) "respawned worker completes jobs" "complete"
            (str_member r "status");
          shutdown_server c)
    in
    Alcotest.(check bool) "clean exit after staleness kill" true
      (st = Unix.WEXITED 0)
  end

let suite =
  [
    ( "serve",
      [
        Alcotest.test_case "scheduler rejects bad specs" `Quick
          test_scheduler_rejects;
        Alcotest.test_case "scheduler is round-robin fair across sources" `Quick
          test_scheduler_round_robin;
        Alcotest.test_case "result cache hits with counters" `Quick
          test_scheduler_cache_and_counters;
        Alcotest.test_case "cache key is canonical" `Quick
          test_scheduler_key_canonical;
        Alcotest.test_case "a finished job leaves no trace cache" `Quick
          test_execute_clears_trace_cache;
        Alcotest.test_case "execute leaves the result cache to the answerer"
          `Quick test_execute_does_not_cache;
        Alcotest.test_case "deadline job cannot poison or starve a peer" `Quick
          test_contention_deadline_isolation;
        Alcotest.test_case "kill mid-checkpoint, resume bit-identically" `Quick
          test_kill_resume_in_process;
        Alcotest.test_case "persistent result cache survives a restart" `Quick
          test_persisted_cache_restart;
        Alcotest.test_case "corrupt result-cache files are skipped and deleted"
          `Quick test_persisted_cache_corruption;
        qtest prop_result_cache_roundtrip;
        qtest prop_result_cache_corruption;
        Alcotest.test_case "protocol requests round-trip" `Quick
          test_protocol_roundtrip;
        Alcotest.test_case "protocol decode errors" `Quick
          test_protocol_decode_errors;
        Alcotest.test_case "submit response shape" `Quick test_submit_response_shape;
        qtest prop_json_roundtrip;
        qtest prop_tset_roundtrip;
        Alcotest.test_case "server conformance over a socket" `Quick
          test_server_conformance;
        Alcotest.test_case "server survives malformed-frame fuzzing" `Quick
          test_server_fuzz_malformed;
        Alcotest.test_case "server front framing and frame cap" `Quick
          test_server_framing;
        Alcotest.test_case "client reaches a TCP server by host name" `Quick
          test_tcp_host_name;
        Alcotest.test_case "an unresolvable host is an input error" `Quick
          test_unresolvable_host;
        Alcotest.test_case "served jobs are deterministic and cached" `Slow
          test_server_determinism;
        Alcotest.test_case "chaos kill/resume soak" `Slow test_server_chaos_soak;
        Alcotest.test_case "supervised workers: determinism, drain, restart"
          `Slow test_server_supervised;
        Alcotest.test_case "supervised workers survive chaos kills" `Slow
          test_server_supervised_chaos;
        Alcotest.test_case "poison job exhausts its retry budget" `Slow
          test_server_supervised_poison;
        Alcotest.test_case "retired slots degrade to in-process jobs" `Slow
          test_server_degraded_mode;
        Alcotest.test_case "pending counts redo queue plus FIFOs" `Quick
          test_scheduler_pending_counts_redo;
        Alcotest.test_case "observability never perturbs served results" `Slow
          test_server_obs_identity;
        Alcotest.test_case "backoff delays and full jitter stay in bounds"
          `Quick test_backoff_bounds;
        Alcotest.test_case "admission control rejects past --max-pending"
          `Quick test_scheduler_admission_overload;
        Alcotest.test_case "admission control caps per source" `Quick
          test_scheduler_admission_per_source;
        Alcotest.test_case "expired queued jobs are shed, not dispatched"
          `Quick test_scheduler_shed_deadline;
        Alcotest.test_case "overload burst: typed rejects, retried to done"
          `Slow test_server_overload_typed_rejects;
        Alcotest.test_case "stale worker heartbeat treated as a crash" `Slow
          test_server_hb_staleness;
      ] );
  ]
