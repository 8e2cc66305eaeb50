(* asc — command-line interface to the scan test compaction toolchain. *)

open Cmdliner
module Bv = Asc_util.Bitvec
module Budget = Asc_util.Budget
module Circuit = Asc_netlist.Circuit
module Pipeline = Asc_core.Pipeline
module Checkpoint = Asc_core.Checkpoint

(* Exit-code contract (docs/ROBUSTNESS.md).  Cmdliner keeps its own
   124/125 for command-line parse and internal errors. *)
let exit_input = 1 (* malformed netlist / test set / checkpoint *)
let exit_usage = 2 (* unknown circuit, bad flag value *)
let exit_partial = 3 (* deadline or signal interrupted the run *)
let exit_killed = 137 (* ASC_CHAOS simulated a hard crash (mirrors SIGKILL) *)

let die code fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("asc: " ^ s);
      exit code)
    fmt

(* Map every known input-level exception to the exit contract instead of
   dying with an uncaught-exception backtrace. *)
let guard f =
  try f () with
  | Asc_netlist.Bench_io.Parse_error { line; message } ->
      die exit_input "parse error at line %d: %s" line message
  | Asc_netlist.Circuit.Structural_error message ->
      die exit_input "structural error: %s" message
  | Asc_scan.Tset_io.Format_error { line; message } ->
      die exit_input "test-set error at line %d: %s" line message
  | Checkpoint.Corrupt { line; message } ->
      die exit_input "corrupt checkpoint at line %d: %s" line message
  | Checkpoint.Incompatible message -> die exit_input "incompatible checkpoint: %s" message
  | Asc_util.Chaos.Killed { point; occurrence } ->
      die exit_killed "chaos: simulated crash at %s#%d" point occurrence
  | Asc_util.Chaos.Injected { point; occurrence } ->
      die exit_input "chaos: injected fault at %s#%d" point occurrence
  | Sys_error message -> die exit_input "%s" message
  | Unix.Unix_error (e, call, arg) ->
      die exit_input "%s%s: %s" call
        (if arg = "" then "" else " " ^ arg)
        (Unix.error_message e)

(* The ASC_CHAOS fault-injection schedule (docs/ROBUSTNESS.md): parsed
   once per command so a malformed schedule is a usage error, not a
   backtrace. *)
let chaos_of_env ?tel () =
  match Sys.getenv_opt Asc_util.Chaos.env_var with
  | None -> None
  | Some s when String.trim s = "" -> None
  | Some s -> (
      match Asc_util.Chaos.parse s with
      | Ok rules -> Some (Asc_util.Chaos.create ?tel rules)
      | Error msg -> die exit_usage "bad %s: %s" Asc_util.Chaos.env_var msg)

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let verbose_arg =
  let doc = "Print per-phase debug logs." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let seed_arg =
  let doc = "Seed for every stochastic step (default 1)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~doc)

(* Validating converters: reject bad values at parse time instead of
   silently clamping them. *)
let int_at_least low what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= low -> Ok n
    | Some n ->
        Error (`Msg (Printf.sprintf "%s must be >= %d, got %d" what low n))
    | None -> Error (`Msg (Printf.sprintf "expected an integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_int = int_at_least 1
let non_negative_int = int_at_least 0

let fraction what =
  let parse s =
    match float_of_string_opt s with
    | Some x when x >= 0.0 && x <= 1.0 -> Ok x
    | Some x -> Error (`Msg (Printf.sprintf "%s must be in [0, 1], got %g" what x))
    | None -> Error (`Msg (Printf.sprintf "expected a number, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let domain_count = positive_int "domain count"

let timeout_seconds =
  let parse s =
    match float_of_string_opt s with
    | Some t when t > 0.0 -> Ok t
    | Some t -> Error (`Msg (Printf.sprintf "timeout must be positive, got %g" t))
    | None -> Error (`Msg (Printf.sprintf "expected a number of seconds, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let domains_arg =
  let doc =
    "Worker domains for fault simulation (default: the ASC_DOMAINS \
     environment variable, else the hardware's recommended count; 1 \
     disables parallelism)."
  in
  Arg.(value & opt (some domain_count) None & info [ "domains" ] ~doc ~docv:"N")

(* Resolve the --domains flag to an optional pool; [None] keeps every
   simulation on the calling domain.  [budget] makes the pool fail fast
   once the run's deadline or a signal fires; [chaos] arms the pool's
   injection points. *)
let make_pool ?budget ?tel ?chaos domains =
  let n =
    match domains with
    | Some n -> n
    | None -> Asc_util.Domain_pool.default_domains ()
  in
  if n > 1 then
    Some (Asc_util.Domain_pool.create ?budget ?tel ?chaos ~domains:n ())
  else None

(* SIGINT/SIGTERM flip the run's budget; the pipeline unwinds at the next
   cancellation point and exits with {!exit_partial}.  Best effort: on
   platforms without these signals the run is still deadline-aware. *)
let install_signal_handlers budget =
  let handler _ = Budget.cancel budget in
  List.iter
    (fun s ->
      try Sys.set_signal s (Sys.Signal_handle handler)
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ]

let name_arg =
  let doc = "Benchmark circuit name (see `asc list`)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT" ~doc)

let check_name name =
  if not (Asc_circuits.Registry.mem name) then
    die exit_usage "unknown circuit %S; known: %s" name
      (String.concat " " Asc_circuits.Registry.names)

(* --- list / info / export --------------------------------------------- *)

let list_cmd =
  let run () =
    let t =
      Asc_util.Table.create ~caption:"Benchmark circuits"
        [
          Asc_util.Table.left "circuit"; Asc_util.Table.right "PIs";
          Asc_util.Table.right "POs"; Asc_util.Table.right "FFs";
          Asc_util.Table.right "gates"; Asc_util.Table.right "depth";
          Asc_util.Table.left "notes";
        ]
    in
    List.iter
      (fun name ->
        let c = Asc_circuits.Registry.get name in
        let notes =
          match Asc_circuits.Profile.find name with
          | Some p when p.scaled -> "scaled stand-in"
          | Some _ -> "synthetic stand-in"
          | None -> "embedded ISCAS-89 netlist"
        in
        Asc_util.Table.add_row t
          [
            name;
            string_of_int (Circuit.n_inputs c);
            string_of_int (Circuit.n_outputs c);
            string_of_int (Circuit.n_dffs c);
            string_of_int (Circuit.n_gates c);
            string_of_int (Circuit.max_level c);
            notes;
          ])
      Asc_circuits.Registry.names;
    Asc_util.Table.print t
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark circuits") Term.(const run $ const ())

let info_cmd =
  let run name seed =
    check_name name;
    let c = Asc_circuits.Registry.get ~seed name in
    Format.printf "%a@." Circuit.pp_stats c;
    let collapse = Asc_fault.Collapse.run c in
    Printf.printf "stuck-at faults: %d uncollapsed, %d collapsed\n"
      (Array.length (Asc_fault.Collapse.universe collapse))
      (Asc_fault.Collapse.n_classes collapse);
    Printf.printf "transition faults: %d\n"
      (Array.length (Asc_tfault.Tfault.universe c));
    List.iter
      (fun (k, n) -> Printf.printf "  %-6s %5d\n" (Asc_netlist.Gate.to_string k) n)
      (List.sort compare (Circuit.kind_counts c))
  in
  Cmd.v (Cmd.info "info" ~doc:"Circuit statistics")
    Term.(const run $ name_arg $ seed_arg)

let export_cmd =
  let file_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE")
  in
  let run name file seed =
    guard @@ fun () ->
    check_name name;
    Asc_netlist.Bench_io.write_file file (Asc_circuits.Registry.get ~seed name);
    Printf.printf "wrote %s\n" file
  in
  Cmd.v (Cmd.info "export" ~doc:"Write a circuit as an ISCAS `.bench` file")
    Term.(const run $ name_arg $ file_arg $ seed_arg)

(* --- run / baseline / atspeed ------------------------------------------ *)

let t0_arg =
  let doc = "T0 source: 'directed' or 'random'." in
  Arg.(value & opt string "directed" & info [ "t0" ] ~doc)

let job_config ~seed ~t0 name =
  match Asc_core.Experiments.config_for ~seed ~t0 name with
  | Ok config -> config
  | Error msg -> die exit_usage "%s" msg

let timeout_arg =
  let doc =
    "Wall-clock budget in seconds.  When it fires the run stops at the \
     next cancellation point, reports the best test set found so far, and \
     exits with code 3."
  in
  Arg.(value & opt (some timeout_seconds) None & info [ "timeout" ] ~doc ~docv:"SECONDS")

let checkpoint_arg =
  let doc = "Write a resumable snapshot to $(docv) at every iteration boundary." in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~doc ~docv:"FILE")

let checkpoint_keep_arg =
  let doc =
    "Total snapshots retained by $(b,--checkpoint): before each write the \
     previous copies are promoted to $(i,FILE).1, $(i,FILE).2, ... so \
     $(b,--resume) can fall back across them if the newest one is corrupt."
  in
  Arg.(
    value
    & opt (positive_int "checkpoint-keep") 1
    & info [ "checkpoint-keep" ] ~doc ~docv:"N")

let resume_arg =
  let doc =
    "Resume from a snapshot previously written by $(b,--checkpoint); the \
     resumed run reproduces the uninterrupted result bit-identically.  If \
     $(docv) is corrupt or missing, the newest valid rotated copy \
     ($(docv).1, $(docv).2, ...) is used instead."
  in
  Arg.(value & opt (some string) None & info [ "resume" ] ~doc ~docv:"FILE")

let json_arg =
  let doc = "Also write a machine-readable run summary to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~doc ~docv:"FILE")

(* Version of the run-summary document written by --json.  Bump on any
   field rename or semantic change so downstream consumers can dispatch. *)
let json_schema = 1

let emit_json path ~circuit ~status ~reason ~stage ~iterations ~tests ~cycles
    ~detected ~targets ~metrics =
  let module J = Asc_util.Json in
  let opt = function None -> J.Null | Some s -> J.Str s in
  J.write_file path
    (J.Obj
       ([
          ("schema", J.Int json_schema);
          ("circuit", J.Str circuit);
          ("status", J.Str status);
          ("reason", opt reason);
          ("stage", opt stage);
          ("iterations", J.Int iterations);
          ("tests", J.Int tests);
          ("cycles", J.Int cycles);
          ("detected", J.Int detected);
          ("targets", J.Int targets);
        ]
       @ match metrics with None -> [] | Some m -> [ ("metrics", m) ]))

let trace_arg =
  let doc =
    "Write a Chrome trace-event JSON file of the run to $(docv) (one \
     track per worker domain; open in Perfetto or chrome://tracing)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE")

let counters_arg =
  let doc = "Print the engine's event counters after the run." in
  Arg.(value & flag & info [ "counters" ] ~doc)

let run_cmd =
  let run name t0 seed domains timeout checkpoint keep resume json trace
      counters verbose =
    guard @@ fun () ->
    setup_logs verbose;
    check_name name;
    let budget = Budget.create ?timeout () in
    install_signal_handlers budget;
    (* Telemetry rides along whenever some consumer asked for it; it is
       read-only with respect to results (bit-identical output either
       way), so flipping it on costs only the recording overhead. *)
    let tel =
      if trace <> None || counters || json <> None then
        Some (Asc_util.Telemetry.create ())
      else None
    in
    let chaos = chaos_of_env ?tel () in
    let pool = make_pool ~budget ?tel ?chaos domains in
    let c = Asc_circuits.Registry.get ~seed name in
    let config = job_config ~seed ~t0 name in
    let ran =
      (* The budget can fire while a budget-carrying pool is mid-sweep in
         [prepare]; that surfaces as [Exhausted] before any snapshot
         exists, so there is no partial test set to report. *)
      try
        let prepared = Pipeline.prepare ?pool ~budget ?tel ~config c in
        let resume_snap =
          Option.map
            (fun path ->
              let l = Checkpoint.load_latest_valid ?tel ?chaos path in
              if l.Checkpoint.recovered then
                Printf.eprintf "asc: recovered checkpoint from %s\n%!" l.source;
              Checkpoint.validate prepared ~config l.snapshot;
              l.snapshot)
            resume
        in
        let on_checkpoint =
          Option.map
            (fun path snap -> Checkpoint.write_file ?tel ?chaos ~keep path snap)
            checkpoint
        in
        Some
          ( prepared,
            Pipeline.run_bounded ?pool ~budget ?tel ~config ?resume:resume_snap
              ?on_checkpoint prepared )
      with Budget.Exhausted _ -> None
    in
    let snap = Option.map Asc_util.Telemetry.drain tel in
    let metrics = Option.map Asc_util.Telemetry.metrics_json snap in
    let report_telemetry () =
      Option.iter
        (fun (s : Asc_util.Telemetry.snapshot) ->
          Option.iter
            (fun path ->
              Asc_util.Telemetry.write_trace path s;
              Printf.printf "wrote trace to %s\n" path)
            trace;
          if counters then begin
            print_string "counters:\n";
            List.iter
              (fun (k, v) -> Printf.printf "  %-20s %d\n" k v)
              s.Asc_util.Telemetry.counters
          end)
        snap
    in
    match ran with
    | None ->
        let reason =
          match Budget.status budget with
          | Some r -> Budget.reason_to_string r
          | None -> "deadline"
        in
        Printf.printf "budget fired (%s) during preparation; no tests generated\n"
          reason;
        Option.iter
          (fun path ->
            emit_json path ~circuit:name ~status:"partial" ~reason:(Some reason)
              ~stage:(Some "prepare") ~iterations:0 ~tests:0 ~cycles:0 ~detected:0
              ~targets:0 ~metrics)
          json;
        report_telemetry ();
        exit exit_partial
    | Some (prepared, outcome) -> (
        Printf.printf "circuit %s: %d target faults, |C| = %d\n" name
          (Bv.count prepared.targets)
          (Array.length prepared.comb_tests);
        match outcome with
        | Pipeline.Complete r ->
            Printf.printf "T0: length %d, detects %d without scan\n" r.t0_length
              r.f0_count;
            List.iteri
              (fun i (it : Pipeline.iteration) ->
                Printf.printf "  iteration %d: SI=%d u_SO=%d L=%d detected=%d\n"
                  (i + 1) it.si_index it.u_so it.len_after_omission it.detected_count)
              r.iterations;
            Printf.printf "tau_seq: L = %d, detects %d\n"
              (Asc_scan.Scan_test.length r.tau_seq)
              (Bv.count r.f_seq);
            Printf.printf "phase 3: %d added tests (%d faults uncoverable by C)\n"
              (Array.length r.added) (Bv.count r.uncovered);
            Printf.printf "cycles: %d initial, %d after phase 4\n" r.cycles_initial
              r.cycles_final;
            Printf.printf "final coverage: %d / %d\n"
              (Bv.count r.final_detected)
              (Bv.count prepared.targets);
            Option.iter
              (fun path ->
                emit_json path ~circuit:name ~status:"complete" ~reason:None
                  ~stage:None
                  ~iterations:(List.length r.iterations)
                  ~tests:(Array.length r.final_tests)
                  ~cycles:r.cycles_final
                  ~detected:(Bv.count r.final_detected)
                  ~targets:(Bv.count prepared.targets)
                  ~metrics)
              json;
            report_telemetry ()
        | Pipeline.Partial p ->
            let reason = Budget.reason_to_string p.p_reason in
            let stage = Pipeline.stage_to_string p.p_stage in
            Printf.printf "budget fired (%s) during %s\n" reason stage;
            Printf.printf
              "best so far: %d tests, %d cycles, %d / %d detected after %d \
               iterations\n"
              (Array.length p.p_tests) p.p_cycles
              (Bv.count p.p_detected)
              (Bv.count prepared.targets)
              (List.length p.p_iterations);
            Option.iter
              (fun path ->
                emit_json path ~circuit:name ~status:"partial" ~reason:(Some reason)
                  ~stage:(Some stage)
                  ~iterations:(List.length p.p_iterations)
                  ~tests:(Array.length p.p_tests)
                  ~cycles:p.p_cycles
                  ~detected:(Bv.count p.p_detected)
                  ~targets:(Bv.count prepared.targets)
                  ~metrics)
              json;
            report_telemetry ();
            exit exit_partial)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run the proposed compaction procedure")
    Term.(
      const run $ name_arg $ t0_arg $ seed_arg $ domains_arg $ timeout_arg
      $ checkpoint_arg $ checkpoint_keep_arg $ resume_arg $ json_arg
      $ trace_arg $ counters_arg $ verbose_arg)

let baseline_cmd =
  let run name seed domains verbose =
    guard @@ fun () ->
    setup_logs verbose;
    check_name name;
    let pool = make_pool domains in
    let c = Asc_circuits.Registry.get ~seed name in
    let config = { Pipeline.default_config with seed } in
    let prepared = Pipeline.prepare ?pool ~config c in
    let b = Asc_core.Baseline_static.run ?pool prepared in
    Printf.printf "[4] baseline on %s: |C| = %d\n" name (Array.length b.initial_tests);
    Printf.printf "initial: %d cycles\n" b.cycles_initial;
    Printf.printf "compacted: %d cycles (%d combinations, %d tests left)\n"
      b.cycles_final b.combinations (Array.length b.final_tests)
  in
  Cmd.v (Cmd.info "baseline" ~doc:"Run the static baseline of [4]")
    Term.(const run $ name_arg $ seed_arg $ domains_arg $ verbose_arg)

let atspeed_cmd =
  let run name seed =
    check_name name;
    let r = Asc_core.Experiments.run_circuit ~seed name in
    print_string (Asc_util.Table.render (Asc_report.Report.table_at_speed [ r ]))
  in
  Cmd.v
    (Cmd.info "atspeed" ~doc:"Transition-fault coverage of the final test sets")
    Term.(const run $ name_arg $ seed_arg)

(* --- test-set save / verify, import, partial scan ----------------------- *)

let save_cmd =
  let file_arg = Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE") in
  let run name file t0 seed domains =
    guard @@ fun () ->
    check_name name;
    let pool = make_pool domains in
    let c = Asc_circuits.Registry.get ~seed name in
    let config = job_config ~seed ~t0 name in
    let prepared = Pipeline.prepare ?pool ~config c in
    let r = Pipeline.run ?pool ~config prepared in
    Asc_scan.Tset_io.write_file file c r.final_tests;
    Printf.printf "wrote %d tests (%d cycles) to %s\n"
      (Array.length r.final_tests) r.cycles_final file
  in
  Cmd.v
    (Cmd.info "save-tests" ~doc:"Run the proposed procedure and save the final test set")
    Term.(const run $ name_arg $ file_arg $ t0_arg $ seed_arg $ domains_arg)

let verify_cmd =
  let file_arg = Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE") in
  let run name file seed domains =
    guard @@ fun () ->
    check_name name;
    let pool = make_pool domains in
    let chaos = chaos_of_env () in
    let c = Asc_circuits.Registry.get ~seed name in
    let tests =
      Asc_scan.Tset_io.check_compatible c (Asc_scan.Tset_io.read_file ?chaos file)
    in
    let collapse = Asc_fault.Collapse.run c in
    let faults = Asc_fault.Collapse.reps collapse in
    let cov = Asc_scan.Tset.coverage ?pool c tests ~faults in
    Printf.printf "%d tests, %d cycles, %d / %d collapsed faults detected\n"
      (Array.length tests)
      (Asc_scan.Time_model.cycles_of_tests c tests)
      (Bv.count cov) (Array.length faults)
  in
  Cmd.v (Cmd.info "verify-tests" ~doc:"Fault-simulate a saved test set")
    Term.(const run $ name_arg $ file_arg $ seed_arg $ domains_arg)

let import_cmd =
  let file_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let run file =
    guard @@ fun () ->
    let chaos = chaos_of_env () in
    let c = Asc_netlist.Bench_io.parse_file ?chaos file in
    Format.printf "%a@." Circuit.pp_stats c;
    let config = job_config ~seed:1 ~t0:"directed" (Circuit.name c) in
    let prepared = Pipeline.prepare ~config c in
    let r = Pipeline.run ~config prepared in
    Printf.printf "proposed procedure: %d cycles initial, %d final, %d/%d detected\n"
      r.cycles_initial r.cycles_final
      (Bv.count r.final_detected)
      (Bv.count prepared.targets)
  in
  Cmd.v
    (Cmd.info "import" ~doc:"Run the procedure on an ISCAS `.bench` netlist file")
    Term.(const run $ file_arg)

let partial_cmd =
  let ratio_arg =
    let doc = "Fraction of flip-flops kept on the scan chain, in [0, 1]." in
    Arg.(value & opt (fraction "ratio") 0.5 & info [ "ratio" ] ~doc)
  in
  let run name ratio seed =
    check_name name;
    let c = Asc_circuits.Registry.get ~seed name in
    let config = job_config ~seed ~t0:"directed" name in
    let prepared = Pipeline.prepare ~config c in
    let r = Pipeline.run ~config prepared in
    let chain = Asc_scan.Partial.by_fanout c ~ratio in
    let cov = Asc_scan.Partial.coverage c chain r.final_tests ~faults:prepared.faults in
    Printf.printf
      "%s with %d/%d flip-flops scanned (full-scan tests reused): %d cycles \
       (full scan: %d), coverage %d/%d\n"
      name
      (Asc_scan.Partial.n_scanned chain)
      (Circuit.n_dffs c)
      (Asc_scan.Partial.cycles c chain r.final_tests)
      r.cycles_final
      (Bv.count (Bv.inter cov prepared.targets))
      (Bv.count prepared.targets);
    (* The procedure adapted to the partial chain. *)
    let pr = Asc_core.Pipeline_partial.run ~config prepared ~chain in
    Printf.printf
      "adapted partial-scan procedure: %d cycles, coverage %d/%d (%d tests)\n"
      pr.cycles_final
      (Bv.count pr.final_detected)
      (Bv.count prepared.targets)
      (Array.length pr.final_tests)
  in
  Cmd.v
    (Cmd.info "partial" ~doc:"Evaluate the final test set under partial scan")
    Term.(const run $ name_arg $ ratio_arg $ seed_arg)

let audit_cmd =
  let file_arg = Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE") in
  let run name file seed =
    guard @@ fun () ->
    check_name name;
    let c = Asc_circuits.Registry.get ~seed name in
    let chaos = chaos_of_env () in
    let tests =
      Asc_scan.Tset_io.check_compatible c (Asc_scan.Tset_io.read_file ?chaos file)
    in
    let collapse = Asc_fault.Collapse.run c in
    let faults = Asc_fault.Collapse.reps collapse in
    let targets = Bv.create ~default:true (Array.length faults) in
    let report = Asc_scan.Audit.run c tests ~faults ~targets in
    Format.printf "%a@." Asc_scan.Audit.pp report;
    Array.iteri
      (fun i inc -> Printf.printf "  test %2d: L=%d, +%d faults\n" i
          (Asc_scan.Scan_test.length tests.(i)) inc)
      report.incremental
  in
  Cmd.v (Cmd.info "audit" ~doc:"Audit a saved test set (duplicates, useless tests)")
    Term.(const run $ name_arg $ file_arg $ seed_arg)

let waveform_cmd =
  let file_arg = Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE") in
  let len_arg =
    let doc = "Number of random functional cycles to dump." in
    Arg.(value & opt (positive_int "cycles") 32 & info [ "cycles" ] ~doc)
  in
  let run name file len seed =
    guard @@ fun () ->
    check_name name;
    let c = Asc_circuits.Registry.get ~seed name in
    let rng = Asc_util.Rng.of_name ~seed (name ^ "/waveform") in
    let si = Asc_util.Rng.bool_array rng (Circuit.n_dffs c) in
    let seq =
      Array.init len (fun _ -> Asc_util.Rng.bool_array rng (Circuit.n_inputs c))
    in
    Asc_sim.Vcd.write_file file c ~si ~seq;
    Printf.printf "wrote %d cycles of %s to %s (open with GTKWave)\n" len name file
  in
  Cmd.v
    (Cmd.info "waveform" ~doc:"Dump a VCD waveform of a random scan test")
    Term.(const run $ name_arg $ file_arg $ len_arg $ seed_arg)

(* --- serve / client ------------------------------------------------------ *)

let socket_arg =
  let doc = "Listen on (or connect to) a Unix-domain socket at $(docv)." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~doc ~docv:"PATH")

let tcp_arg =
  let doc = "Listen on (or connect to) TCP $(docv) (e.g. 127.0.0.1:7333)." in
  Arg.(value & opt (some string) None & info [ "tcp" ] ~doc ~docv:"HOST:PORT")

let parse_host_port s =
  match String.rindex_opt s ':' with
  | None -> die exit_usage "bad --tcp %S (expected HOST:PORT)" s
  | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 ->
          ((if host = "" then "127.0.0.1" else host), p)
      | _ -> die exit_usage "bad port in --tcp %S" s)

let resolve_listen socket tcp =
  match (socket, tcp) with
  | Some path, None -> Asc_core.Wire.Unix_socket path
  | None, Some hp ->
      let host, port = parse_host_port hp in
      Asc_core.Wire.Tcp (host, port)
  | Some _, Some _ -> die exit_usage "--socket and --tcp are mutually exclusive"
  | None, None -> die exit_usage "need --socket PATH or --tcp HOST:PORT"

let log_file_arg =
  let doc =
    "Append structured JSONL lifecycle events (job submitted / \
     dispatched / completed, worker crash / restart) to $(docv), \
     rotated by size; see docs/OBSERVABILITY.md."
  in
  Arg.(value & opt (some string) None & info [ "log-file" ] ~doc ~docv:"FILE")

let log_level_arg =
  let doc = "Event-log threshold: debug, info, warn or error." in
  Arg.(value & opt string "info" & info [ "log-level" ] ~doc ~docv:"LEVEL")

let resolve_log_level log_level =
  match Asc_util.Log.level_of_string log_level with
  | Some l -> l
  | None ->
      die exit_usage "bad --log-level %S (debug|info|warn|error)" log_level

let serve_cmd =
  let state_dir_arg =
    let doc =
      "Directory for per-job checkpoints; interrupted jobs resume from \
       here when resubmitted after a crash."
    in
    Arg.(value & opt (some string) None & info [ "state-dir" ] ~doc ~docv:"DIR")
  in
  let workers_arg =
    let doc =
      "Fork $(docv) supervised worker processes; jobs run crash-isolated \
       with per-job retry budgets and exponential-backoff restarts.  0 \
       (the default) serves in-process, one job at a time."
    in
    Arg.(value & opt (non_negative_int "workers") 0 & info [ "workers" ] ~doc ~docv:"N")
  in
  let job_retries_arg =
    let doc =
      "Total dispatch attempts per job before a worker-crashing job \
       fails with a typed $(b,worker_crash) error (supervised mode only)."
    in
    Arg.(
      value
      & opt (positive_int "job retries") 3
      & info [ "job-retries" ] ~doc ~docv:"K")
  in
  let max_pending_arg =
    let doc =
      "Admission cap: while $(docv) jobs are already queued, new \
       submissions are refused with a typed $(b,overloaded) reject \
       carrying a $(b,retry_after_ms) backpressure hint, instead of \
       growing the queue without bound.  Unset means unbounded."
    in
    Arg.(
      value
      & opt (some (positive_int "max pending")) None
      & info [ "max-pending" ] ~doc ~docv:"N")
  in
  let max_pending_per_source_arg =
    let doc =
      "Per-connection admission cap: like $(b,--max-pending) but \
       counting only jobs queued by the same client connection, so one \
       greedy client cannot fill the whole queue."
    in
    Arg.(
      value
      & opt (some (positive_int "max pending per source")) None
      & info [ "max-pending-per-source" ] ~doc ~docv:"N")
  in
  let trace_arg =
    let doc =
      "Write one stitched Chrome/Perfetto trace of the whole fleet \
       (supervisor plus every worker process) to $(docv) at shutdown."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE")
  in
  let prom_file_arg =
    let doc =
      "Keep a Prometheus text-exposition snapshot of the metrics current \
       in $(docv) (rewritten atomically after each delivered job)."
    in
    Arg.(value & opt (some string) None & info [ "prom-file" ] ~doc ~docv:"FILE")
  in
  let run socket tcp state_dir domains workers job_retries max_pending
      max_pending_per_source log_file log_level trace prom_file verbose =
    guard @@ fun () ->
    setup_logs verbose;
    let listen = resolve_listen socket tcp in
    (* The pool carries no budget: deadlines are per-job, created by the
       scheduler at dispatch, so one job's deadline cannot poison the
       pool for the jobs after it. *)
    let tel = Some (Asc_util.Telemetry.create ()) in
    let chaos = chaos_of_env ?tel () in
    let level = resolve_log_level log_level in
    (* Test knob: the heartbeat-staleness threshold defaults to 30 s,
       far too slow for a test that SIGSTOPs a worker on purpose. *)
    let hb_stale =
      match Sys.getenv_opt "ASC_HB_STALE" with
      | None -> None
      | Some s -> (
          match float_of_string_opt s with
          | Some v when v > 0.0 -> Some v
          | _ -> die exit_usage "bad ASC_HB_STALE %S (positive seconds)" s)
    in
    let log =
      Option.map (fun path -> Asc_util.Log.create ~level ?tel ?chaos path)
        log_file
    in
    let config = { Asc_core.Server.listen; state_dir } in
    let on_ready () =
      Printf.printf "asc: serving on %s\n%!" (Asc_core.Wire.addr_to_string listen)
    in
    Fun.protect
      ~finally:(fun () -> Asc_util.Log.close log)
      (fun () ->
        if workers > 0 then
          (* Domains do not survive fork, so the parent owns no pool; each
             worker builds its own through [make_pool], recording into its
             own telemetry handle. *)
          Asc_core.Server.serve ?tel ?chaos ?log ?trace_file:trace
            ?prom_file ~on_ready ~workers ~job_retries ?max_pending
            ?max_pending_per_source ?hb_stale
            ~make_pool:(fun ~tel -> make_pool ~tel ?chaos domains)
            config
        else begin
          let pool = make_pool ?tel ?chaos domains in
          Asc_core.Server.serve ?pool ?tel ?chaos ?log ?trace_file:trace
            ?prom_file ~on_ready ?max_pending ?max_pending_per_source config
        end);
    Printf.printf "asc: server shut down\n%!"
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve compaction jobs over a socket (line-delimited JSON; see \
          docs/SERVING.md)")
    Term.(
      const run $ socket_arg $ tcp_arg $ state_dir_arg $ domains_arg
      $ workers_arg $ job_retries_arg $ max_pending_arg
      $ max_pending_per_source_arg $ log_file_arg $ log_level_arg
      $ trace_arg $ prom_file_arg $ verbose_arg)

(* A backend address: HOST:PORT when the suffix parses as a port,
   otherwise a Unix-socket path.  The literal argument string is the
   backend's rendezvous-hash identity. *)
let parse_backend s =
  let is_host_port =
    match String.rindex_opt s ':' with
    | None -> false
    | Some i -> (
        match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
        | Some p -> p > 0 && p < 65536
        | None -> false)
  in
  if is_host_port then
    let host, port = parse_host_port s in
    (s, Asc_core.Wire.Tcp (host, port))
  else (s, Asc_core.Wire.Unix_socket s)

let route_cmd =
  let backend_arg =
    let doc =
      "A backend `asc serve` address (repeatable; at least one): a \
       Unix-socket path, or HOST:PORT for TCP.  The literal argument \
       string is the backend's rendezvous-hash identity — keep it \
       stable across restarts, or keys re-home."
    in
    Arg.(non_empty & opt_all string [] & info [ "backend" ] ~doc ~docv:"ADDR")
  in
  let request_retries_arg =
    let doc =
      "Failover budget: total dispatch attempts per submission across \
       backends before a typed $(b,no_backend) reject."
    in
    Arg.(
      value
      & opt (positive_int "request retries")
          Asc_core.Router.default_request_retries
      & info [ "request-retries" ] ~doc ~docv:"K")
  in
  let run socket tcp backends request_retries log_file log_level verbose =
    guard @@ fun () ->
    setup_logs verbose;
    let listen = resolve_listen socket tcp in
    let tel = Some (Asc_util.Telemetry.create ()) in
    let chaos = chaos_of_env ?tel () in
    let level = resolve_log_level log_level in
    let log =
      Option.map (fun path -> Asc_util.Log.create ~level ?tel ?chaos path)
        log_file
    in
    let cfg =
      {
        Asc_core.Router.listen;
        backends = List.map parse_backend backends;
        request_retries;
      }
    in
    let on_ready () =
      Printf.printf "asc: routing on %s across %d backends\n%!"
        (Asc_core.Wire.addr_to_string listen)
        (List.length backends)
    in
    Fun.protect
      ~finally:(fun () -> Asc_util.Log.close log)
      (fun () -> Asc_core.Router.run ?tel ?chaos ?log ~on_ready cfg);
    Printf.printf "asc: router shut down\n%!"
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:
         "Shard submissions across several `asc serve` backends \
          (rendezvous hashing on the job's content key, health-checked \
          failover; see docs/SERVING.md)")
    Term.(
      const run $ socket_arg $ tcp_arg $ backend_arg $ request_retries_arg
      $ log_file_arg $ log_level_arg $ verbose_arg)

let client_cmd =
  let op_arg =
    let doc = "Operation: ping, metrics, shutdown, submit, or raw (send one \
               JSON line from stdin)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OP" ~doc)
  in
  let circuits_arg =
    let doc =
      "Circuit names for submit (see `asc list`).  More than one makes \
       one job each; combine with $(b,--pipeline) to keep several in \
       flight at once."
    in
    Arg.(value & pos_right 0 string [] & info [] ~docv:"CIRCUIT" ~doc)
  in
  let pipeline_arg =
    let doc =
      "Keep up to $(docv) submissions in flight on the connection at \
       once (submit only).  Responses are matched to requests by the \
       echoed $(b,id) member, so they may arrive out of order; output \
       is printed in request order regardless."
    in
    Arg.(
      value
      & opt (positive_int "pipeline depth") 1
      & info [ "pipeline" ] ~doc ~docv:"K")
  in
  let netlist_arg =
    let doc = "Submit the ISCAS `.bench` netlist in $(docv) instead of a \
               registry circuit." in
    Arg.(value & opt (some string) None & info [ "netlist" ] ~doc ~docv:"FILE")
  in
  let job_timeout_arg =
    let doc = "Per-job wall-clock budget in seconds (server-side deadline)." in
    Arg.(
      value
      & opt (some timeout_seconds) None
      & info [ "job-timeout" ] ~doc ~docv:"SECONDS")
  in
  let save_arg =
    let doc = "Request the serialized test set and write it to $(docv) \
               (same format as $(b,asc save-tests))." in
    Arg.(value & opt (some string) None & info [ "save" ] ~doc ~docv:"FILE")
  in
  let retries_arg =
    let doc =
      "Retry a failed connection (or a connection dropped before the \
       response arrived) up to $(docv) more times.  Resubmission is \
       idempotent: results are keyed by content hash, so a retried \
       submit is answered from the server's result cache when the first \
       attempt already completed."
    in
    Arg.(
      value
      & opt (non_negative_int "retries") 0
      & info [ "retries" ] ~doc ~docv:"K")
  in
  let retry_backoff_arg =
    let doc =
      "Base backoff between retries, in milliseconds; attempt $(i,n) \
       sleeps uniformly in [0, $(docv) * 2^$(i,n)] (full jitter, capped \
       at 5 s) before reconnecting, so a fleet of clients bounced by \
       one event does not reconnect in lockstep."
    in
    Arg.(
      value
      & opt (non_negative_int "retry backoff") 100
      & info [ "retry-backoff" ] ~doc ~docv:"MS")
  in
  let prometheus_arg =
    let doc =
      "Render the metrics response in the Prometheus text exposition \
       format instead of JSON (metrics op only)."
    in
    Arg.(value & flag & info [ "prometheus" ] ~doc)
  in
  (* A failed connect or host lookup is a connection error to retry. *)
  let connect listen =
    match Asc_core.Wire.connect listen with
    | fd -> Ok fd
    | exception Unix.Unix_error (e, _, _) ->
        Error ("cannot connect: " ^ Unix.error_message e)
    | exception Sys_error msg -> Error ("cannot connect: " ^ msg)
  in
  (* One connect/send/receive round trip, with every connection-level
     failure turned into [Error] so the caller can retry.  Protocol-level
     failures (an unparseable response) are not retried. *)
  let try_request listen line =
    match connect listen with
    | Error msg -> Error msg
    | Ok fd -> (
        let finish r =
          (try Unix.close fd with Unix.Unix_error _ -> ());
          r
        in
        try
          let ic = Unix.in_channel_of_descr fd in
          let oc = Unix.out_channel_of_descr fd in
          output_string oc line;
          output_char oc '\n';
          flush oc;
          finish (Ok (input_line ic))
        with
        | End_of_file -> finish (Error "server closed the connection")
        | Sys_error msg -> finish (Error msg)
        | Unix.Unix_error (e, _, _) -> finish (Error (Unix.error_message e)))
  in
  (* Pipelined submission: up to [pipeline] requests in flight on one
     connection, responses matched to requests by the echoed [id]
     member, so out-of-order completion (multi-worker shards, cache
     hits) never misattributes a result.  Idempotence (results keyed by
     content hash) is what makes the failure handling simple: a dropped
     connection just reconnects with full-jitter backoff and resends
     everything unanswered, and a typed [overloaded] reject re-queues
     the job after the server's [retry_after_ms] hint. *)
  let submit_pipelined ~listen ~specs ~labels ~want_tset ~retries
      ~backoff_sleep ~pipeline =
    let module J = Asc_util.Json in
    let module P = Asc_core.Protocol in
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ());
    let n = Array.length specs in
    let results : J.t option array = Array.make n None in
    let retry_at = Array.make n 0.0 in
    let attempts = Array.make n 0 in
    let pending = ref (List.init n Fun.id) in
    let outstanding : (int, unit) Hashtbl.t = Hashtbl.create 8 in
    let conn = ref None in
    let conn_attempts = ref 0 in
    let request_line j =
      J.to_string ~compact:true
        (P.request_to_json
           (P.Submit
              { spec = specs.(j); want_tset; client_id = Some j }))
    in
    let disconnect () =
      (match !conn with
      | Some (fd, _, _) -> ( try Unix.close fd with Unix.Unix_error _ -> ())
      | None -> ());
      conn := None;
      (* Unanswered submissions go back in the send queue, in request
         order so output order is stable. *)
      let orphans = Hashtbl.fold (fun j () acc -> j :: acc) outstanding [] in
      Hashtbl.reset outstanding;
      pending := List.sort_uniq compare (orphans @ !pending)
    in
    let retry_or_die msg =
      disconnect ();
      if !conn_attempts < retries then begin
        incr conn_attempts;
        let d = backoff_sleep !conn_attempts in
        Printf.eprintf "asc: %s; retry %d/%d in %.2fs\n%!" msg !conn_attempts
          retries d;
        Unix.sleepf d
      end
      else die exit_input "%s" msg
    in
    let rec ensure_conn () =
      match !conn with
      | Some c -> c
      | None -> (
          match connect listen with
          | Ok fd ->
              let c =
                (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
              in
              conn := Some c;
              c
          | Error msg ->
              retry_or_die msg;
              ensure_conn ())
    in
    let send j =
      let _, _, oc = ensure_conn () in
      match
        output_string oc (request_line j);
        output_char oc '\n';
        flush oc
      with
      | () ->
          Hashtbl.replace outstanding j ();
          pending := List.filter (fun k -> k <> j) !pending
      | exception (Sys_error _ | Unix.Unix_error _) ->
          retry_or_die "connection lost while sending"
    in
    let handle_response line =
      match J.parse line with
      | Error e -> die exit_input "unparseable response: %s" e
      | Ok json -> (
          match Option.bind (J.member "id" json) J.as_int with
          | Some j when j >= 0 && j < n && Hashtbl.mem outstanding j ->
              Hashtbl.remove outstanding j;
              let ok =
                Option.bind (J.member "ok" json) J.as_bool = Some true
              in
              let reason = Option.bind (J.member "reason" json) J.as_str in
              if (not ok) && reason = Some "overloaded" && attempts.(j) < retries
              then begin
                (* Backpressure, not failure: honor the server's hint
                   (or our own jittered backoff, whichever is longer)
                   and resubmit against the retry budget. *)
                attempts.(j) <- attempts.(j) + 1;
                let hint =
                  match
                    Option.bind (J.member "retry_after_ms" json) J.as_int
                  with
                  | Some ms -> float_of_int ms /. 1000.
                  | None -> 0.0
                in
                let d = Float.max hint (backoff_sleep attempts.(j)) in
                Printf.eprintf
                  "asc: submit %s rejected (overloaded); retry %d/%d in %.2fs\n%!"
                  labels.(j) attempts.(j) retries d;
                retry_at.(j) <- Unix.gettimeofday () +. d;
                pending := !pending @ [ j ]
              end
              else results.(j) <- Some json
          | _ -> () (* an anonymous error frame; nothing to match *))
    in
    while Array.exists Option.is_none results do
      (* Fill the window with whatever is ready to (re)send. *)
      let now = Unix.gettimeofday () in
      let ready = List.filter (fun j -> retry_at.(j) <= now) !pending in
      let slots = pipeline - Hashtbl.length outstanding in
      List.iteri (fun i j -> if i < slots then send j) ready;
      if Hashtbl.length outstanding > 0 then begin
        let _, ic, _ = ensure_conn () in
        match input_line ic with
        | line -> handle_response line
        | exception (End_of_file | Sys_error _) ->
            retry_or_die "server closed the connection"
        | exception Unix.Unix_error (e, _, _) ->
            retry_or_die (Unix.error_message e)
      end
      else if ready = [] && !pending <> [] then begin
        (* Everything left is backing off after an overloaded reject. *)
        let wake =
          List.fold_left (fun a j -> Float.min a retry_at.(j)) infinity
            !pending
        in
        Unix.sleepf (Float.max 0.0 (wake -. Unix.gettimeofday ()))
      end
    done;
    disconnect ();
    Array.map Option.get results
  in
  let run socket tcp op circuits netlist seed t0 job_timeout save retries
      retry_backoff prometheus pipeline =
    guard @@ fun () ->
    let module J = Asc_util.Json in
    let module P = Asc_core.Protocol in
    if prometheus && op <> "metrics" then
      die exit_usage "--prometheus only applies to the metrics op";
    if op <> "submit" && circuits <> [] then
      die exit_usage "only the submit op takes CIRCUIT arguments";
    let listen = resolve_listen socket tcp in
    let rng = Asc_util.Rng.of_name ~seed:(Unix.getpid ()) "client/backoff" in
    let backoff_sleep attempt =
      (* Full jitter: uniform in [0, base * 2^(attempt-1)], capped. *)
      Asc_util.Backoff.full_jitter ~rng
        ~base:(float_of_int retry_backoff /. 1000.)
        (attempt - 1)
    in
    match op with
    | "submit" ->
        let netlist_text =
          Option.map
            (fun p -> In_channel.with_open_bin p In_channel.input_all)
            netlist
        in
        if circuits = [] && netlist_text = None then
          die exit_usage "submit needs CIRCUIT names or --netlist FILE";
        let make_spec circuit =
          {
            Asc_core.Scheduler.sp_circuit = circuit;
            sp_netlist = netlist_text;
            sp_seed = seed;
            sp_t0 = t0;
            sp_timeout = job_timeout;
          }
        in
        let specs, labels =
          match circuits with
          | [] -> ([| make_spec None |], [| "netlist" |])
          | _ when netlist_text <> None ->
              die exit_usage "--netlist and CIRCUIT names are mutually exclusive"
          | _ ->
              ( Array.of_list (List.map (fun c -> make_spec (Some c)) circuits),
                Array.of_list circuits )
        in
        let responses =
          submit_pipelined ~listen ~specs ~labels ~want_tset:(save <> None)
            ~retries ~backoff_sleep ~pipeline
        in
        let has_error = ref false and has_partial = ref false in
        Array.iteri
          (fun j json ->
            (* The serialized test set can be large: divert it to --save
               (suffixed per job when submitting several) and print the
               response without it. *)
            Option.iter
              (fun path ->
                let path =
                  if Array.length responses > 1 then
                    Printf.sprintf "%s.%s" path labels.(j)
                  else path
                in
                match Option.bind (J.member "tset" json) J.as_str with
                | Some tset ->
                    let och = open_out path in
                    output_string och tset;
                    close_out och
                | None -> ())
              save;
            let shown =
              match json with
              | J.Obj fields ->
                  J.Obj (List.filter (fun (k, _) -> k <> "tset") fields)
              | other -> other
            in
            print_endline (J.to_string ~compact:true shown);
            let ok = Option.bind (J.member "ok" json) J.as_bool = Some true in
            if not ok then begin
              (* Typed reject: surface the reason class and message on
                 stderr so scripts don't have to parse the JSON. *)
              let reason =
                Option.value ~default:"error"
                  (Option.bind (J.member "reason" json) J.as_str)
              in
              let msg =
                Option.value ~default:"rejected"
                  (Option.bind (J.member "error" json) J.as_str)
              in
              Printf.eprintf "asc: submit %s rejected (%s): %s\n%!" labels.(j)
                reason msg;
              has_error := true
            end
            else
              match Option.bind (J.member "status" json) J.as_str with
              | Some "partial" -> has_partial := true
              | Some "failed" -> has_error := true
              | _ -> ())
          responses;
        if !has_error then exit exit_input;
        if !has_partial then exit exit_partial
    | _ ->
        let line =
          match op with
          | "ping" -> J.to_string ~compact:true (P.request_to_json P.Ping)
          | "metrics" -> J.to_string ~compact:true (P.request_to_json P.Metrics)
          | "shutdown" ->
              J.to_string ~compact:true (P.request_to_json P.Shutdown)
          | "raw" -> (
              try input_line stdin
              with End_of_file -> die exit_usage "raw: no JSON line on stdin")
          | other ->
              die exit_usage
                "unknown client op %S (ping|metrics|shutdown|submit|raw)" other
        in
        let rec attempt n =
          match try_request listen line with
          | Ok response -> response
          | Error msg when n < retries ->
              let delay = backoff_sleep (n + 1) in
              Printf.eprintf "asc: %s; retry %d/%d in %.2fs\n%!" msg (n + 1)
                retries delay;
              Unix.sleepf delay;
              attempt (n + 1)
          | Error msg -> die exit_input "%s" msg
        in
        let response = attempt 0 in
        (match J.parse response with
        | Error e -> die exit_input "unparseable response: %s" e
        | Ok json when prometheus -> (
            match P.prometheus_of_metrics json with
            | Ok text -> print_string text
            | Error e -> die exit_input "%s" e)
        | Ok json ->
            print_endline (J.to_string ~compact:true json);
            let ok = Option.bind (J.member "ok" json) J.as_bool = Some true in
            if not ok then begin
              (match Option.bind (J.member "error" json) J.as_str with
              | Some msg ->
                  let reason =
                    Option.value ~default:"error"
                      (Option.bind (J.member "reason" json) J.as_str)
                  in
                  Printf.eprintf "asc: %s rejected (%s): %s\n%!" op reason msg
              | None -> ());
              exit exit_input
            end)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Talk to a running `asc serve` or `asc route` (exit 0 every job \
          complete, 3 some job partial, 1 a job failed or was rejected \
          or the connection/retry budget exhausted)")
    Term.(
      const run $ socket_arg $ tcp_arg $ op_arg $ circuits_arg $ netlist_arg
      $ seed_arg $ t0_arg $ job_timeout_arg $ save_arg $ retries_arg
      $ retry_backoff_arg $ prometheus_arg $ pipeline_arg)

(* --- tables -------------------------------------------------------------- *)

let tables_cmd =
  let circuits_arg =
    let doc = "Comma-separated circuit list (default: the paper's 19)." in
    Arg.(value & opt (some string) None & info [ "circuits" ] ~doc)
  in
  let dynamic_arg =
    let doc = "Also run the dynamic baseline of [2,3] (slow)." in
    Arg.(value & flag & info [ "dynamic" ] ~doc)
  in
  let run circuits dynamic seed domains verbose =
    setup_logs verbose;
    let pool = make_pool domains in
    let names =
      match circuits with
      | None -> Asc_circuits.Profile.names
      | Some s -> String.split_on_char ',' s
    in
    List.iter check_name names;
    let runs =
      List.map
        (fun n ->
          Printf.printf "running %s...\n%!" n;
          Asc_core.Experiments.run_circuit ?pool ~seed ~with_dynamic:dynamic n)
        names
    in
    print_string (Asc_report.Report.render_all runs)
  in
  Cmd.v (Cmd.info "tables" ~doc:"Regenerate the paper's tables")
    Term.(const run $ circuits_arg $ dynamic_arg $ seed_arg $ domains_arg $ verbose_arg)

let () =
  let doc = "scan test compaction for at-speed testing (Pomeranz & Reddy, DAC 2001)" in
  let exits =
    Cmd.Exit.info exit_input ~doc:"on malformed input (netlist, test set, checkpoint)."
    :: Cmd.Exit.info exit_usage ~doc:"on usage errors such as an unknown circuit."
    :: Cmd.Exit.info exit_partial
         ~doc:
           "when a $(b,--timeout) deadline or a SIGINT/SIGTERM interrupted the \
            run; partial results were reported."
    :: Cmd.Exit.info exit_killed
         ~doc:
           "when an $(b,ASC_CHAOS) fault-injection schedule simulated a hard \
            crash (mirrors a SIGKILL's shell status)."
    :: Cmd.Exit.defaults
  in
  let info = Cmd.info "asc" ~version:"1.0.0" ~doc ~exits in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; info_cmd; export_cmd; import_cmd; run_cmd; baseline_cmd;
            atspeed_cmd; save_cmd; verify_cmd; audit_cmd; waveform_cmd;
            partial_cmd; tables_cmd; serve_cmd; route_cmd; client_cmd;
          ]))
