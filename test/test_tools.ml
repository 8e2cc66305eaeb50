(* Tests for the toolchain conveniences: the VCD writer, the test-set
   audit, and the CLI's input-failure contract — every file-opening flag
   must exit 1 with a one-line `asc:` message, never a backtrace; a
   malformed ASC_CHAOS schedule is a usage error (2); an unwritable
   --checkpoint degrades (0). *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Scan_test = Asc_scan.Scan_test
module Collapse = Asc_fault.Collapse

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* --- VCD ------------------------------------------------------------- *)

let test_vcd_structure () =
  let c = Asc_circuits.S27.circuit () in
  let rng = Rng.create 3 in
  let si = Rng.bool_array rng 3 in
  let seq = Array.init 4 (fun _ -> Rng.bool_array rng 4) in
  let vcd = Asc_sim.Vcd.of_scan_test c ~si ~seq in
  Alcotest.(check bool) "has header" true (contains vcd "$enddefinitions");
  Alcotest.(check bool) "declares the clock" true (contains vcd "clock");
  Alcotest.(check bool) "declares G17" true (contains vcd "G17");
  (* 4 cycles: time stamps 0..8. *)
  Alcotest.(check bool) "final time stamp" true (contains vcd "#8");
  (* Every gate changes at most once per cycle: the dump's change count is
     bounded by gates x cycles + clock edges. *)
  let changes =
    List.length
      (List.filter
         (fun l -> String.length l >= 2 && (l.[0] = '0' || l.[0] = '1'))
         (String.split_on_char '\n' vcd))
  in
  Alcotest.(check bool) "bounded changes" true
    (changes <= (Circuit.n_gates c * 4) + (2 * 4) + 8)

let test_vcd_first_cycle_values () =
  (* At time 0 every signal's value must be dumped (nothing is implicit). *)
  let c = Asc_circuits.S27.circuit () in
  let si = [| false; false; false |] in
  let seq = [| [| true; false; true; false |] |] in
  let vcd = Asc_sim.Vcd.of_scan_test c ~si ~seq in
  (* The dump between "#0" and "#1" must mention every gate code; count
     value-change lines there. *)
  let after0 =
    match String.index_opt vcd '#' with
    | Some _ ->
        let parts = String.split_on_char '#' vcd in
        List.nth parts 1 (* "0\n...changes..." *)
    | None -> ""
  in
  let lines = String.split_on_char '\n' after0 in
  let change_lines =
    List.filter (fun l -> String.length l >= 2 && (l.[0] = '0' || l.[0] = '1')) lines
  in
  (* clock + all 17 gates. *)
  Alcotest.(check int) "all signals dumped at t0" (1 + Circuit.n_gates c)
    (List.length change_lines)

(* --- Audit ------------------------------------------------------------ *)

let test_audit_duplicates_and_useless () =
  let c = Asc_circuits.S27.circuit () in
  let faults = Collapse.reps (Collapse.run c) in
  let targets = Bitvec.create ~default:true (Array.length faults) in
  let rng = Rng.create 7 in
  let t1 =
    Scan_test.create ~si:(Rng.bool_array rng 3)
      ~seq:(Array.init 6 (fun _ -> Rng.bool_array rng 4))
  in
  (* t2 duplicates t1; t3 is fresh. *)
  let t2 = Scan_test.create ~si:(Array.copy t1.si) ~seq:(Array.map Array.copy t1.seq) in
  let t3 =
    Scan_test.create ~si:(Rng.bool_array rng 3)
      ~seq:(Array.init 2 (fun _ -> Rng.bool_array rng 4))
  in
  let report = Asc_scan.Audit.run c [| t1; t2; t3 |] ~faults ~targets in
  Alcotest.(check (list (pair int int))) "duplicate found" [ (0, 1) ] report.duplicates;
  Alcotest.(check bool) "duplicate is useless" true (List.mem 1 report.useless);
  Alcotest.(check int) "incremental of duplicate" 0 report.incremental.(1);
  Alcotest.(check int) "coverage consistent" report.coverage
    (Array.fold_left ( + ) 0 report.incremental);
  Alcotest.(check int) "cycles match model"
    (Asc_scan.Time_model.cycles ~n_sv:3 [ 6; 6; 2 ])
    report.cycles;
  (* Scan-outs are the fault-free finals. *)
  Array.iteri
    (fun i t ->
      Alcotest.(check bool) "scan-out matches" true
        (report.scan_outs.(i) = Scan_test.scan_out c t))
    [| t1; t2; t3 |]

(* --- CLI input-failure contract --------------------------------------- *)

(* The test binary lives in _build/default/test/; the dune deps field
   pins the CLI binary next door in _build/default/bin/. *)
let asc_exe =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "bin/asc.exe"

(* Run the CLI with stdout sent to [stdout], returning (exit code,
   stderr lines). *)
let run_asc ?(env = "") ?(stdout = "/dev/null") args =
  let err = Filename.temp_file "asc-cli" ".err" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove err with Sys_error _ -> ())
    (fun () ->
      let cmd =
        Printf.sprintf "%s %s %s >%s 2>%s" env
          (Filename.quote asc_exe)
          (String.concat " " (List.map Filename.quote args))
          (Filename.quote stdout) (Filename.quote err)
      in
      let code =
        match Unix.system cmd with
        | Unix.WEXITED n -> n
        | Unix.WSIGNALED n | Unix.WSTOPPED n -> -n
      in
      let ic = open_in err in
      let n = in_channel_length ic in
      let text = really_input_string ic n in
      close_in ic;
      ( code,
        List.filter (fun l -> l <> "") (String.split_on_char '\n' text) ))

(* An input failure must be exit 1 and exactly one `asc:` line — the
   guard caught the exception; no OCaml backtrace leaked.  [mentions] is
   text the line must hold. *)
let check_input_failure ?(mentions = "") label args =
  let code, lines = run_asc args in
  Alcotest.(check int) (label ^ ": exit code") 1 code;
  (match lines with
  | [ line ] ->
      Alcotest.(check bool) (label ^ ": one-line asc: message") true
        (String.length line > 4 && String.sub line 0 4 = "asc:");
      Alcotest.(check bool) (label ^ ": mentions " ^ mentions) true
        (contains line mentions)
  | _ ->
      Alcotest.failf "%s: expected one stderr line, got %d: %s" label
        (List.length lines) (String.concat " | " lines))

let missing = "/nonexistent-asc-test/nope"

let test_cli_missing_inputs () =
  if not (Sys.file_exists asc_exe) then
    Alcotest.skip ()
  else begin
    check_input_failure "--resume" [ "run"; "s27"; "--resume"; missing ];
    check_input_failure "--json" [ "run"; "s27"; "--json"; missing ^ "/out.json" ];
    check_input_failure "--trace"
      [ "run"; "s27"; "--trace"; missing ^ "/trace.json"; "--domains"; "1" ];
    check_input_failure "verify-tests" [ "verify-tests"; "s27"; missing ];
    check_input_failure "audit" [ "audit"; "s27"; missing ];
    check_input_failure "import" [ "import"; missing ];
    check_input_failure "export" [ "export"; "s27"; missing ^ "/c.bench" ];
    (* A socket that cannot be bound names the failed call. *)
    check_input_failure ~mentions:"bind: No such file or directory" "serve --socket"
      [ "serve"; "--socket"; missing ^ "/s.sock" ];
    check_input_failure ~mentions:"bind: No such file or directory" "route --socket"
      [ "route"; "--socket"; missing ^ "/r.sock"; "--backend"; "x" ]
  end

let test_cli_corrupt_resume () =
  if not (Sys.file_exists asc_exe) then Alcotest.skip ()
  else begin
    let path = Filename.temp_file "asc-cli" ".ckpt" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        let oc = open_out path in
        output_string oc "this is not a checkpoint\n";
        close_out oc;
        check_input_failure "corrupt --resume" [ "run"; "s27"; "--resume"; path ])
  end

let test_cli_bad_chaos_schedule () =
  if not (Sys.file_exists asc_exe) then Alcotest.skip ()
  else begin
    let code, lines = run_asc ~env:"ASC_CHAOS=gibberish" [ "run"; "s27" ] in
    Alcotest.(check int) "bad ASC_CHAOS: exit code" 2 code;
    match lines with
    | [ line ] ->
        Alcotest.(check bool) "mentions ASC_CHAOS" true
          (contains line "ASC_CHAOS")
    | _ -> Alcotest.failf "expected one stderr line, got %d" (List.length lines)
  end

(* An unwritable --checkpoint target degrades the run instead of failing
   it: warnings on stderr, exit 0. *)
let test_cli_checkpoint_degrades () =
  if not (Sys.file_exists asc_exe) then Alcotest.skip ()
  else begin
    let code, _ = run_asc [ "run"; "s27"; "--checkpoint"; missing ^ "/ck.txt" ] in
    Alcotest.(check int) "unwritable --checkpoint still exits 0" 0 code
  end

(* A simulated crash exits like a SIGKILLed process would. *)
let test_cli_chaos_kill_exit_code () =
  if not (Sys.file_exists asc_exe) then Alcotest.skip ()
  else begin
    let ck = Filename.temp_file "asc-cli" ".ckpt" in
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun p -> try Sys.remove p with Sys_error _ -> ())
          [ ck; ck ^ ".tmp"; ck ^ ".1" ])
      (fun () ->
        Sys.remove ck;
        let code, lines =
          run_asc ~env:"ASC_CHAOS=checkpoint.output@1=kill"
            [ "run"; "s298"; "--checkpoint"; ck; "--domains"; "1" ]
        in
        Alcotest.(check int) "exit mirrors SIGKILL" 137 code;
        match lines with
        | [ line ] ->
            Alcotest.(check bool) "names the injection site" true
              (contains line "checkpoint.output")
        | _ -> Alcotest.failf "expected one stderr line, got %d" (List.length lines))
  end

(* A numeric flag out of its range is a usage error at parse time (exit
   124, naming the option), never clamped or left to fail later. *)
let check_rejected_flag (option, args) =
  let code, lines = run_asc args in
  Alcotest.(check int) (option ^ ": exit code") 124 code;
  Alcotest.(check bool) (option ^ ": names the option") true
    (List.exists (fun l -> contains l ("'" ^ option ^ "'")) lines)

let test_cli_client_rejects_negative_retries () =
  if not (Sys.file_exists asc_exe) then Alcotest.skip ()
  else
    List.iter
      (fun (option, args) ->
        check_rejected_flag
          (option, [ "client"; "--socket"; missing ^ "/s.sock" ] @ args @ [ "ping" ]))
      [
        ("--retry-backoff", [ "--retries"; "1"; "--retry-backoff=-5" ]);
        ("--retries", [ "--retries=-3" ]);
      ]

let test_cli_rejects_out_of_range_flags () =
  if not (Sys.file_exists asc_exe) then Alcotest.skip ()
  else
    List.iter check_rejected_flag
      [
        ("--cycles", [ "waveform"; "s27"; missing ^ "/w.vcd"; "--cycles=-1" ]);
        ("--cycles", [ "waveform"; "s27"; missing ^ "/w.vcd"; "--cycles"; "0" ]);
        ("--ratio", [ "partial"; "s27"; "--ratio=-1" ]);
        ("--ratio", [ "partial"; "s27"; "--ratio"; "2.5" ]);
        ("--workers", [ "serve"; "--socket"; missing ^ "/s.sock"; "--workers=-1" ]);
      ]

(* Run the CLI, failing the test unless it exits 0; returns its stdout. *)
let asc_stdout args =
  let out = Filename.temp_file "asc-cli" ".out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let code, err = run_asc ~stdout:out args in
      if code <> 0 then
        Alcotest.failf "asc %s: exit %d: %s" (String.concat " " args) code
          (String.concat " | " err);
      In_channel.with_open_text out In_channel.input_all)

(* The line of [text] that starts with [prefix]. *)
let line_with text prefix =
  match
    List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' text)
  with
  | Some line -> line
  | None -> Alcotest.failf "no %S line in:\n%s" prefix text

(* `asc import` configures a netlist the way `asc run` configures the
   registry circuit of the same name: an exported s298 reports the same
   cycles and coverage either way. *)
let test_cli_import_configures_like_run () =
  if not (Sys.file_exists asc_exe) then Alcotest.skip ()
  else begin
    let dir = Filename.temp_dir "asc-cli" "" in
    let bench = Filename.concat dir "s298.bench" in
    Fun.protect
      ~finally:(fun () ->
        (try Sys.remove bench with Sys_error _ -> ());
        Sys.rmdir dir)
      (fun () ->
        ignore (asc_stdout [ "export"; "s298"; bench ]);
        let run = asc_stdout [ "run"; "s298"; "--domains"; "1" ] in
        let imported = asc_stdout [ "import"; bench ] in
        let initial, final =
          Scanf.sscanf (line_with run "cycles:") "cycles: %d initial, %d after phase 4"
            (fun i f -> (i, f))
        in
        let detected, targets =
          Scanf.sscanf (line_with run "final coverage:") "final coverage: %d / %d"
            (fun d t -> (d, t))
        in
        Alcotest.(check string) "import reports what run reports"
          (Printf.sprintf "proposed procedure: %d cycles initial, %d final, %d/%d detected"
             initial final detected targets)
          (line_with imported "proposed procedure:"))
  end

let suite =
  [
    ( "tools",
      [
        Alcotest.test_case "vcd structure" `Quick test_vcd_structure;
        Alcotest.test_case "vcd first cycle" `Quick test_vcd_first_cycle_values;
        Alcotest.test_case "audit" `Quick test_audit_duplicates_and_useless;
        Alcotest.test_case "cli: missing inputs exit 1 with one line" `Quick
          test_cli_missing_inputs;
        Alcotest.test_case "cli: corrupt --resume exits 1" `Quick
          test_cli_corrupt_resume;
        Alcotest.test_case "cli: bad ASC_CHAOS is a usage error" `Quick
          test_cli_bad_chaos_schedule;
        Alcotest.test_case "cli: unwritable --checkpoint degrades" `Quick
          test_cli_checkpoint_degrades;
        Alcotest.test_case "cli: chaos kill exits 137" `Slow
          test_cli_chaos_kill_exit_code;
        Alcotest.test_case "cli: negative client retries are usage errors"
          `Quick test_cli_client_rejects_negative_retries;
        Alcotest.test_case "cli: out-of-range numeric flags are usage errors"
          `Quick test_cli_rejects_out_of_range_flags;
        Alcotest.test_case "cli: import configures like run" `Quick
          test_cli_import_configures_like_run;
      ] );
  ]
