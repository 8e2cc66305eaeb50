(* One-shot workloads: each job is [Pipeline.prepare] + [run_bounded] in
   a freshly forked child with its own domain pool, so no process-global
   state (the good-trace cache, the [Registry] memo) carries from one
   repetition to the next — just as two [asc run] invocations share
   nothing. *)

module J = Asc_util.Json
module Tel = Asc_util.Telemetry
module Pool = Asc_util.Domain_pool
module Rng = Asc_util.Rng
module Stats = Asc_util.Stats
module Pipeline = Asc_core.Pipeline
module Registry = Asc_circuits.Registry
module Seq_fsim = Asc_fault.Seq_fsim
open Workload

(* The paper's test application time, N_cyc = (k+1) * N_SV + sum_j L(T_j),
   for [k] tests with PI sequence lengths [lengths] on [n_sv] scanned
   flip-flops.  Written out here rather than taken from [Time_model] so
   the benchmark checks the program's count against the formula. *)
let n_cyc ~n_sv lengths =
  match lengths with
  | [] -> 0
  | _ -> ((List.length lengths + 1) * n_sv) + List.fold_left ( + ) 0 lengths

let n_cyc_of_tests (tests : Asc_scan.Scan_test.t array) =
  if tests = [||] then 0
  else
    n_cyc
      ~n_sv:(Array.length tests.(0).Asc_scan.Scan_test.si)
      (Array.to_list (Array.map Asc_scan.Scan_test.length tests))

let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let floats_of json =
  match J.as_obj json with
  | Some members ->
      List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (J.as_float v)) members
  | None -> []

(* --- per-layer metrics from a telemetry snapshot ----------------------- *)

(* The job-internal layer metrics of [snap], per job over [jobs] jobs
   (0 when the workload ran none).  One-shot children pass their own
   snapshot; served runs pass one rebuilt from the server's trace and
   counters. *)
let job_layers ~jobs (snap : Tel.snapshot) =
  let totals = Tel.span_totals snap in
  let per x = if jobs = 0 then 0.0 else x /. float_of_int jobs in
  let span name =
    match List.find_opt (fun t -> t.Tel.t_name = name) totals with
    | Some t -> (t.Tel.t_seconds, float_of_int t.Tel.t_count)
    | None -> (0.0, 0.0)
  in
  let secs name = per (fst (span name)) in
  let calls name = per (snd (span name)) in
  let counter name = float_of_int (Tel.counter_value snap name) in
  let hits = counter "trace_cache_hits" and misses = counter "trace_cache_misses" in
  let candidates = counter "tgen_candidates" in
  let loads = Tel.pool_loads snap in
  let busy = List.fold_left (fun acc l -> acc +. l.Tel.l_busy) 0.0 loads in
  let util = Stats.mean_f (List.map (fun l -> l.Tel.l_util) loads) in
  [
    ("pipeline.prepare_s", secs "prepare");
    ("pipeline.t0_s", secs "t0-generation");
    ("pipeline.phase12_s", secs "phase1+2");
    ("pipeline.phase4_s", secs "phase4");
    ("pipeline.iterations", calls "phase1+2");
    ("phase1.scan_out_s", secs "phase1:scan-out");
    ("seq_fsim.detect_no_scan_s", secs "fsim:detect-no-scan");
    ("seq_fsim.detect_no_scan_calls", calls "fsim:detect-no-scan");
    ("seq_fsim.profile_s", secs "fsim:profile");
    ("seq_fsim.profile_calls", calls "fsim:profile");
    ("seq_fsim.verify_s", secs "fsim:verify");
    ("seq_fsim.verify_calls", calls "fsim:verify");
    ("seq_fsim.detect_s", secs "fsim:detect");
    ("seq_fsim.candidates_s", secs "fsim:candidates");
    ("kernel.cone_gates", per (counter "cone_gates_evaluated"));
    ("kernel.faulty_cycles", per (counter "faulty_cycles"));
    ("kernel.good_cycles", per (counter "good_cycles"));
    ("trace_cache.hits", per hits);
    ("trace_cache.misses", per misses);
    ("trace_cache.hit_ratio", Stat.ratio hits (hits +. misses));
    ("seq_tgen.s", secs "tgen:seq");
    ("tgen.candidates", per candidates);
    ("tgen.commit_ratio", Stat.ratio (counter "tgen_commits") candidates);
    ("comb_tgen.s", secs "tgen:comb");
    ("podem.decisions", per (counter "podem_decisions"));
    ("podem.backtracks", per (counter "podem_backtracks"));
    ("podem.aborts", per (counter "podem_aborts"));
    ("domain_pool.tasks", per (counter "pool_tasks"));
    ("domain_pool.busy_s", per busy);
    ("domain_pool.utilization", util);
    ("domain_pool.imbalance", Tel.imbalance loads);
  ]

(* --- probes -------------------------------------------------------------- *)

(* Layer probes: single calls timed from outside any job, on [circuit]
   with inputs drawn from the workload seed.  Runs in a forked child. *)
let probes ~circuit ~seed ~domains ~t0_length () =
  let c = Registry.get ~seed:1 circuit in
  let pool = Pool.create ~domains () in
  let faults = (Pipeline.prepare ~pool c).Pipeline.faults in
  let rng = Rng.of_name ~seed "perf/probe" in
  let timed f =
    let t = Proc.now () in
    ignore (Sys.opaque_identity (f ()));
    Proc.now () -. t
  in
  let n_pis = Asc_netlist.Circuit.n_inputs c and n_ffs = Asc_netlist.Circuit.n_dffs c in
  let random_seq len = Array.init len (fun _ -> Rng.bool_array rng n_pis) in
  let comb =
    timed (fun () -> Asc_atpg.Comb_tgen.generate ~pool c ~faults ~rng:(Rng.split rng))
  in
  (* A sequence as long as the job's T0, from an unknown initial state. *)
  let t0 = random_seq t0_length in
  let no_scan = timed (fun () -> Seq_fsim.detect_no_scan ~pool c ~seq:t0 ~faults) in
  (* Four random scan tests of 256 vectors over the uncollapsed universe,
     from a cold good-trace cache. *)
  let universe = Asc_fault.Fault.universe c in
  let tests = Array.init 4 (fun _ -> (Rng.bool_array rng n_ffs, random_seq 256)) in
  Seq_fsim.clear_trace_cache ();
  let tel = Tel.create () in
  let detect =
    timed (fun () ->
        Array.map
          (fun (si, seq) -> Seq_fsim.detect ~pool ~tel c ~si ~seq ~faults:universe)
          tests)
  in
  let gates = float_of_int (Tel.counter_value (Tel.drain tel) "cone_gates_evaluated") in
  Pool.shutdown pool;
  J.Obj
    [
      ("probe.comb_tgen.generate_s", J.Float comb);
      ("probe.seq_fsim.detect_no_scan_s", J.Float no_scan);
      ("probe.seq_fsim.detect_s", J.Float detect);
      ("probe.kernel.ns_per_gate", J.Float (Stat.ratio (detect *. 1e9) gates));
    ]

(* --- one job ------------------------------------------------------------- *)

(* Runs in a forked child: build the circuit and pool (set-up), then time
   [prepare] + [run_bounded] (the job).  Traced children also write their
   Chrome trace to [trace_file]. *)
let job (o : oneshot) ~domains ~traced ~trace_file () =
  let t0 = Proc.now () in
  let c = Registry.get ~seed:1 o.circuit in
  let tel = if traced then Some (Tel.create ()) else None in
  let pool = Pool.create ?tel ~domains () in
  let t1 = Proc.now () in
  let cpu0 = cpu_self () in
  let config = Workload.config ~seed:1 o.circuit o.t0 in
  let prepared =
    Tel.span tel "bench:prepare" (fun () -> Pipeline.prepare ~pool ?tel ~config c)
  in
  let outcome =
    Tel.span tel "bench:run_bounded" (fun () ->
        Pipeline.run_bounded ~pool ?tel ~config prepared)
  in
  let t2 = Proc.now () in
  let cpu = cpu_self () -. cpu0 in
  Pool.shutdown pool;
  let result =
    match outcome with
    | Pipeline.Complete r ->
        let tests = r.Pipeline.final_tests in
        let text = Asc_scan.Tset_io.to_string c tests in
        [
          ("complete", J.Bool true);
          ("tests", J.Int (Array.length tests));
          ("cycles", J.Int r.Pipeline.cycles_final);
          ("formula", J.Int (n_cyc_of_tests tests));
          ("detected", J.Int (Asc_util.Bitvec.count r.Pipeline.final_detected));
          ("t0_length", J.Int r.Pipeline.t0_length);
          ("crc", J.Str (Asc_util.Crc.to_hex (Asc_util.Crc.crc32 text)));
        ]
    | Pipeline.Partial _ -> [ ("complete", J.Bool false) ]
  in
  let traced_fields =
    match tel with
    | None -> []
    | Some tel ->
        let snap = Tel.drain tel in
        Option.iter (fun path -> Tel.write_trace path snap) trace_file;
        let layers = job_layers ~jobs:1 snap in
        [
          ("balanced", J.Bool (Tel.balanced snap));
          ("layers", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) layers));
        ]
  in
  J.Obj
    ([
       ("setup_s", J.Float (t1 -. t0));
       ("job_s", J.Float (t2 -. t1));
       ("cpu_s", J.Float cpu);
       ("rss_mb", J.Float (Proc.peak_rss_mb 0));
       ("targets", J.Int (Asc_util.Bitvec.count prepared.Pipeline.targets));
     ]
    @ result @ traced_fields)

(* --- the workload ------------------------------------------------------ *)

type rep = { traced : bool; wall : float; out : J.t }

let member key r = Option.value ~default:J.Null (J.member key r.out)
let num key r = Option.value ~default:nan (J.as_float (member key r))
let int key r = Option.value ~default:(-1) (J.as_int (member key r))
let str key r = Option.value ~default:"" (J.as_str (member key r))
let layers_of r = floats_of (member "layers" r)

(* What must be equal across repetitions. *)
let identity r =
  List.map
    (fun k -> J.to_string ~compact:true (member k r))
    [ "complete"; "tests"; "cycles"; "detected"; "targets"; "crc" ]

(* The checks repetition [r] fails, against the workload's golden output
   and against the first repetition [first]. *)
let check (o : oneshot) ~first r =
  let got =
    (int "tests" r, int "cycles" r, int "detected" r, int "targets" r, str "crc" r)
  in
  let show (t, c, d, n, crc) =
    Printf.sprintf "%d tests, N_cyc %d, %d/%d detected, crc %s" t c d n crc
  in
  if member "complete" r <> J.Bool true then [ "not complete" ]
  else
    List.concat
      [
        (if int "formula" r <> int "cycles" r then
           [
             Printf.sprintf "N_cyc %d but the formula gives %d" (int "cycles" r)
               (int "formula" r);
           ]
         else []);
        (match o.golden with
        | Some g ->
            let want = (g.g_tests, g.g_cycles, g.g_detected, g.g_targets, g.g_crc) in
            if got <> want then [ show got ^ "; golden " ^ show want ] else []
        | None -> []);
        (if r.traced && member "balanced" r <> J.Bool true then [ "unbalanced trace" ]
         else []);
        (if identity r <> identity first then
           [ "output differs from the first repetition" ]
         else []);
      ]

let median_of f reps = Stats.median_f (List.map f reps)

let run (o : oneshot) ~name ~seed ~domains ~seconds ~trace ~trace_dir =
  let reps = ref [] and problems = ref [] and attempted = ref 0 and failed = ref 0 in
  let fail i msgs =
    if msgs <> [] then incr failed;
    problems := !problems @ List.map (Printf.sprintf "job %d: %s" i) msgs
  in
  let start = Proc.now () in
  (* Start another job while it should end within [seconds].  The traced
     run alternates untraced and traced children, so the two medians its
     overhead compares see the same host conditions. *)
  let min_reps = if trace then 4 else 3 in
  let keep_going () =
    !attempted < min_reps
    || !reps <> [] && Proc.now () -. start +. median_of (fun r -> r.wall) !reps <= seconds
  in
  while keep_going () do
    let i = !attempted in
    incr attempted;
    let traced = trace && i mod 2 = 1 in
    let trace_file =
      if i = 1 && traced then Some (Filename.concat trace_dir (name ^ ".json")) else None
    in
    let t = Proc.now () in
    match Proc.in_child (job o ~domains ~traced ~trace_file) with
    | Error e -> fail i [ e ]
    | Ok out ->
        let r = { traced; wall = Proc.now () -. t; out } in
        reps := !reps @ [ r ];
        fail i (check o ~first:(List.hd !reps) r)
  done;
  let loop_wall = Proc.now () -. start in
  let reps = !reps in
  let samples ?(scale = 1.0) key = List.map (fun r -> scale *. num key r) reps in
  let metrics =
    match reps with
    | [] -> []
    | first :: _ when not trace ->
        let n = List.length reps in
        let job_ms = samples ~scale:1000.0 "job_s" in
        let cpu_ms = samples ~scale:1000.0 "cpu_s" in
        let setup = samples "setup_s" in
        [
          ("setup_s", of_samples setup);
          ("latency_p50_ms", of_samples job_ms);
          ("jobs_per_s", scalar ~n (float_of_int n /. loop_wall));
          ("cpu_ms_per_job", of_samples cpu_ms);
          ("peak_rss_mb", scalar ~n (List.fold_left Float.max 0.0 (samples "rss_mb")));
          ("n_cyc", scalar (num "cycles" first));
          ("fault_coverage", scalar (num "detected" first /. num "targets" first));
        ]
    | first :: _ -> (
        match List.partition (fun r -> r.traced) reps with
        | [], _ | _, [] -> []
        | (t :: _ as traced), plain ->
            (* Layer metrics are per job; counts repeat exactly, times
               are the median over the traced repetitions. *)
            let layers =
              List.map
                (fun (k, _) ->
                  (k, median_of (fun r -> List.assoc k (layers_of r)) traced))
                (layers_of t)
            in
            let job_s = num "job_s" in
            let overhead =
              Stat.ratio (median_of job_s traced) (median_of job_s plain) -. 1.0
            in
            let probe =
              let t0_length = int "t0_length" first in
              let circuit = o.circuit in
              match Proc.in_child (probes ~circuit ~seed ~domains ~t0_length) with
              | Ok j -> floats_of j
              | Error e ->
                  problems := !problems @ [ "probes: " ^ e ];
                  []
            in
            List.map
              (fun (k, v) -> (k, scalar ~n:(List.length traced) v))
              (layers @ probe @ [ ("telemetry.overhead_frac", overhead) ]))
  in
  { attempted = !attempted; failed = !failed; problems = !problems; metrics }
