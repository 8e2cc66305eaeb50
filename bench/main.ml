(* Benchmark harness: regenerates every table of the paper.

   Default mode runs the full experiment battery — both T0 sources of the
   proposed procedure, the static baseline of [4] and (for the circuits
   where the paper reports it) the dynamic baseline of [2,3] — over all 19
   benchmark stand-ins, then prints Tables 1-5 in the paper's layout plus
   the at-speed extension table.  EXPERIMENTS.md discusses paper-vs-measured.

     dune exec bench/main.exe                  # everything (several minutes)
     dune exec bench/main.exe -- --quick       # a small circuit subset
     dune exec bench/main.exe -- --circuits s298,s344
     dune exec bench/main.exe -- --seed 7
     dune exec bench/main.exe -- --no-dynamic --no-atspeed
     dune exec bench/main.exe -- --micro       # Bechamel kernel benchmarks
     dune exec bench/main.exe -- --ablations   # design-choice ablations A-E
*)

let default_circuits = Asc_circuits.Profile.names

let quick_circuits = [ "s27"; "s298"; "s344"; "s382"; "b01"; "b02"; "b06" ]

(* The paper reports a [2,3] number only for some ISCAS circuits; the
   dynamic baseline is also the slowest flow, so it runs where the paper
   has a value (and the circuit is tractable). *)
let dynamic_circuits = [ "s298"; "s344"; "s382"; "s526"; "s820"; "s1423"; "s1488" ]

type options = {
  mutable circuits : string list;
  mutable quick : bool;
  mutable seed : int;
  mutable dynamic : bool;
  mutable at_speed : bool;
  mutable micro : bool;
  mutable ablations : bool;
  mutable domains : int option; (* --domains N: pool size for fault simulation *)
  mutable json : string option; (* --json FILE: machine-readable summary *)
  mutable trace : string option; (* --trace FILE: Chrome trace of the battery *)
}

let parse_args () =
  let o =
    { circuits = default_circuits; quick = false; seed = 1; dynamic = true;
      at_speed = true; micro = false; ablations = false; domains = None;
      json = None; trace = None }
  in
  let rec go = function
    | [] -> ()
    | "--quick" :: rest ->
        o.circuits <- quick_circuits;
        o.quick <- true;
        go rest
    | "--circuits" :: names :: rest ->
        o.circuits <- String.split_on_char ',' names;
        go rest
    | "--seed" :: n :: rest ->
        o.seed <- int_of_string n;
        go rest
    | "--domains" :: n :: rest ->
        o.domains <- Some (max 1 (int_of_string n));
        go rest
    | "--json" :: file :: rest ->
        o.json <- Some file;
        go rest
    | "--trace" :: file :: rest ->
        o.trace <- Some file;
        go rest
    | "--no-dynamic" :: rest ->
        o.dynamic <- false;
        go rest
    | "--no-atspeed" :: rest ->
        o.at_speed <- false;
        go rest
    | "--micro" :: rest ->
        o.micro <- true;
        go rest
    | "--ablations" :: rest ->
        o.ablations <- true;
        go rest
    | arg :: _ ->
        Printf.eprintf "unknown argument %S\n" arg;
        exit 2
  in
  go (List.tl (Array.to_list Sys.argv));
  List.iter
    (fun name ->
      if not (Asc_circuits.Registry.mem name) then begin
        Printf.eprintf "unknown circuit %S; known: %s\n" name
          (String.concat " " Asc_circuits.Registry.names);
        exit 2
      end)
    o.circuits;
  o

(* --- Full table regeneration ------------------------------------------- *)

let run_tables o pool tel =
  let total = List.length o.circuits in
  let timings = ref [] in
  let runs =
    List.mapi
      (fun i name ->
        let with_dynamic = o.dynamic && List.mem name dynamic_circuits in
        let t0 = Unix.gettimeofday () in
        Printf.printf "[%2d/%d] %-8s ...%!" (i + 1) total name;
        let r =
          Asc_core.Experiments.run_circuit ?pool ?tel ~seed:o.seed ~with_dynamic
            name
        in
        let dt = Unix.gettimeofday () -. t0 in
        Printf.printf " %.1fs (atpg %.1fs)\n%!" dt r.prepare_seconds;
        timings := (name, dt, r.prepare_seconds) :: !timings;
        r)
      o.circuits
  in
  print_newline ();
  print_string (Asc_report.Report.render_all ~with_at_speed:o.at_speed runs);
  List.rev !timings

(* --- Fault-simulation phase speedup ------------------------------------- *)

(* Wall-clock comparison of the sequential-fault-simulation kernel with 1
   domain vs the requested pool, on the largest circuit of the run: the
   uncollapsed fault universe of that circuit across a few random scan
   tests.  Detection counts must agree bit for bit — the pool's merge is
   deterministic — so the counts are reported alongside the timings. *)
type fsim_result = {
  fs_circuit : string;
  fs_faults : int;
  fs_seq_len : int;
  fs_tests : int;
  fs_detected_1 : int;
  fs_detected_n : int;
  fs_seconds_1 : float;
  fs_seconds_n : float;
  fs_speedup : float;
  fs_loads : Asc_util.Telemetry.load list; (* per-domain, N-domain run only *)
  fs_imbalance : float;
}

(* Per-domain utilization of a pooled benchmark run, from the task-claim
   spans the pool records into its telemetry: the busiest domain's busy
   seconds over the mean (1.0 = perfect balance), plus each domain's share
   of the parallel window. *)
let loads_of = function
  | None -> ([], 1.0)
  | Some snap ->
      let loads = Asc_util.Telemetry.pool_loads snap in
      (loads, Asc_util.Telemetry.imbalance loads)

(* Best of three repetitions, to shed warm-up and scheduler noise.  With
   [tel], it is drained after every repetition and the snapshot of the
   best one is returned, so its pool loads and counters describe the same
   single run as the reported seconds (busy time never exceeds wall time
   times domains). *)
let time_best ?tel f =
  let best = ref infinity and result = ref None and snap = ref None in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    let s = Option.map Asc_util.Telemetry.drain tel in
    if dt < !best then begin
      best := dt;
      result := Some r;
      snap := s
    end
  done;
  (Option.get !result, !best, !snap)

let print_loads loads imbalance =
  if loads <> [] then
    let utils = List.map (fun (l : Asc_util.Telemetry.load) -> l.l_util) loads in
    Printf.printf
      "  pool utilization: mean %.2f, min %.2f, imbalance %.2fx (tasks: %s)\n%!"
      (Asc_util.Stats.mean_f utils)
      (fst (Asc_util.Stats.min_max_f utils))
      imbalance
      (String.concat " "
         (List.map
            (fun (l : Asc_util.Telemetry.load) -> string_of_int l.l_tasks)
            loads))

let fsim_bench ~seed ~domains names =
  let gates name =
    Asc_netlist.Circuit.n_gates (Asc_circuits.Registry.get ~seed name)
  in
  let name =
    List.fold_left
      (fun best n -> if gates n > gates best then n else best)
      (List.hd names) names
  in
  let c = Asc_circuits.Registry.get ~seed name in
  let collapse = Asc_fault.Collapse.run c in
  let faults = Asc_fault.Collapse.universe collapse in
  let rng = Asc_util.Rng.of_name ~seed (name ^ "/fsim-bench") in
  let n_tests = 4 and len = 256 in
  let tests =
    Array.init n_tests (fun _ ->
        let si = Asc_util.Rng.bool_array rng (Asc_netlist.Circuit.n_dffs c) in
        let seq =
          Array.init len (fun _ ->
              Asc_util.Rng.bool_array rng (Asc_netlist.Circuit.n_inputs c))
        in
        (si, seq))
  in
  let detect ?pool () =
    Array.fold_left
      (fun acc (si, seq) ->
        acc + Asc_util.Bitvec.count (Asc_fault.Seq_fsim.detect ?pool c ~si ~seq ~faults))
      0 tests
  in
  let detected_1, seconds_1, _ = time_best (fun () -> detect ()) in
  let detected_n, seconds_n, snap =
    if domains > 1 then begin
      let tel = Asc_util.Telemetry.create () in
      let pool = Asc_util.Domain_pool.create ~tel ~domains () in
      let r = time_best ~tel (fun () -> detect ~pool ()) in
      Asc_util.Domain_pool.shutdown pool;
      r
    end
    else time_best (fun () -> detect ())
  in
  let loads, imbalance = loads_of snap in
  let r =
    {
      fs_circuit = name;
      fs_faults = Array.length faults;
      fs_seq_len = len;
      fs_tests = n_tests;
      fs_detected_1 = detected_1;
      fs_detected_n = detected_n;
      fs_seconds_1 = seconds_1;
      fs_seconds_n = seconds_n;
      fs_speedup = seconds_1 /. seconds_n;
      fs_loads = loads;
      fs_imbalance = imbalance;
    }
  in
  Printf.printf
    "fsim phase (%s, %d faults, %d tests x %d vectors): 1 domain %.3fs, %d \
     domains %.3fs, speedup %.2fx; detected %d vs %d (%s)\n%!"
    r.fs_circuit r.fs_faults r.fs_tests r.fs_seq_len r.fs_seconds_1 domains
    r.fs_seconds_n r.fs_speedup r.fs_detected_1 r.fs_detected_n
    (if r.fs_detected_1 = r.fs_detected_n then "identical" else "MISMATCH");
  print_loads r.fs_loads r.fs_imbalance;
  r

(* --- Levelized-kernel speedup -------------------------------------------- *)

(* The fixed workload of the levelized cone kernel: s1423's uncollapsed
   universe over random scan tests, at 1 domain and at the requested pool
   size.  The perf trajectory gates the 1-domain seconds against the
   recorded snapshots; detection counts must agree bit for bit across
   both configurations.  Kernel-side telemetry (good/faulty cycles, cone
   gates, trace-cache traffic) comes from the pooled run. *)
type kernel_result = {
  k_circuit : string;
  k_faults : int;
  k_seq_len : int;
  k_tests : int;
  k_detected_lv1 : int;
  k_detected_lvn : int;
  k_seconds_lv1 : float;
  k_seconds_lvn : float;
  k_good_cycles : int;
  k_faulty_cycles : int;
  k_cone_gates : int;
  k_cache_hits : int;
  k_cache_misses : int;
  k_loads : Asc_util.Telemetry.load list;
  k_imbalance : float;
}

let kernel_bench ~seed ~domains =
  let name = "s1423" in
  let c = Asc_circuits.Registry.get ~seed name in
  let collapse = Asc_fault.Collapse.run c in
  let faults = Asc_fault.Collapse.universe collapse in
  let rng = Asc_util.Rng.of_name ~seed (name ^ "/kernel-bench") in
  let n_tests = 4 and len = 256 in
  let tests =
    Array.init n_tests (fun _ ->
        let si = Asc_util.Rng.bool_array rng (Asc_netlist.Circuit.n_dffs c) in
        let seq =
          Array.init len (fun _ ->
              Asc_util.Rng.bool_array rng (Asc_netlist.Circuit.n_inputs c))
        in
        (si, seq))
  in
  let detect ?pool ?tel () =
    Array.fold_left
      (fun acc (si, seq) ->
        acc
        + Asc_util.Bitvec.count
            (Asc_fault.Seq_fsim.detect ?pool ?tel c ~si ~seq ~faults))
      0 tests
  in
  (* Each configuration starts from a cold trace cache; repetitions 2-3
     then run warm, which is the shape of real compaction loops (the
     same tests are re-simulated many times).  [time_best] therefore
     reports the steady-state per-call cost. *)
  let time_best_cold ?tel f =
    Asc_fault.Seq_fsim.clear_trace_cache ();
    time_best ?tel f
  in
  let detected_lv1, seconds_lv1, _ = time_best_cold (fun () -> detect ()) in
  let tel = Asc_util.Telemetry.create () in
  let detected_lvn, seconds_lvn, snap =
    if domains > 1 then begin
      let pool = Asc_util.Domain_pool.create ~tel ~domains () in
      let r = time_best_cold ~tel (fun () -> detect ~pool ~tel ()) in
      Asc_util.Domain_pool.shutdown pool;
      r
    end
    else time_best_cold ~tel (fun () -> detect ~tel ())
  in
  (* The best repetition's snapshot: its pool loads and engine counters. *)
  let loads, imbalance = loads_of snap in
  let counter name =
    match snap with Some s -> Asc_util.Telemetry.counter_value s name | None -> 0
  in
  let r =
    {
      k_circuit = name;
      k_faults = Array.length faults;
      k_seq_len = len;
      k_tests = n_tests;
      k_detected_lv1 = detected_lv1;
      k_detected_lvn = detected_lvn;
      k_seconds_lv1 = seconds_lv1;
      k_seconds_lvn = seconds_lvn;
      k_good_cycles = counter "good_cycles";
      k_faulty_cycles = counter "faulty_cycles";
      k_cone_gates = counter "cone_gates_evaluated";
      k_cache_hits = counter "trace_cache_hits";
      k_cache_misses = counter "trace_cache_misses";
      k_loads = loads;
      k_imbalance = imbalance;
    }
  in
  Printf.printf
    "kernel bench (%s, %d faults, %d tests x %d vectors): levelized 1 domain \
     %.3fs, %d domains %.3fs; detected %d / %d (%s)\n%!"
    r.k_circuit r.k_faults r.k_tests r.k_seq_len r.k_seconds_lv1 domains
    r.k_seconds_lvn r.k_detected_lv1 r.k_detected_lvn
    (if r.k_detected_lv1 = r.k_detected_lvn then "identical" else "MISMATCH");
  Printf.printf
    "  best rep: good cycles %d, faulty cycles %d, cone gates %d, trace \
     cache %d hits / %d misses\n%!"
    r.k_good_cycles r.k_faulty_cycles r.k_cone_gates r.k_cache_hits
    r.k_cache_misses;
  print_loads r.k_loads r.k_imbalance;
  r

(* --- ATPG (test-generation) phase speedup -------------------------------- *)

(* Same shape as the fault-simulation comparison, for the other parallel
   kernel: [Comb_tgen.generate] with 1 domain vs the requested pool, on the
   largest circuit of the run.  The merge contract makes the generated set
   bit-identical for any domain count, so detected-fault and test counts
   must agree exactly. *)
type atpg_result = {
  at_circuit : string;
  at_faults : int;
  at_tests_1 : int;
  at_tests_n : int;
  at_detected_1 : int;
  at_detected_n : int;
  at_seconds_1 : float;
  at_seconds_n : float;
  at_speedup : float;
  at_loads : Asc_util.Telemetry.load list; (* per-domain, N-domain run only *)
  at_imbalance : float;
}

let atpg_bench ~seed ~domains names =
  let gates name =
    Asc_netlist.Circuit.n_gates (Asc_circuits.Registry.get ~seed name)
  in
  let name =
    List.fold_left
      (fun best n -> if gates n > gates best then n else best)
      (List.hd names) names
  in
  let c = Asc_circuits.Registry.get ~seed name in
  let faults = Asc_fault.Collapse.reps (Asc_fault.Collapse.run c) in
  let generate ?pool () =
    (* Fresh RNG per run: generate's randomness must not leak between
       repetitions, or the 1-domain and N-domain runs would diverge. *)
    let rng = Asc_util.Rng.of_name ~seed (name ^ "/atpg-bench") in
    let r = Asc_atpg.Comb_tgen.generate ?pool c ~faults ~rng in
    (Asc_util.Bitvec.count r.detected, Array.length r.tests)
  in
  let (detected_1, tests_1), seconds_1, _ = time_best (fun () -> generate ()) in
  let (detected_n, tests_n), seconds_n, snap =
    if domains > 1 then begin
      let tel = Asc_util.Telemetry.create () in
      let pool = Asc_util.Domain_pool.create ~tel ~domains () in
      let r = time_best ~tel (fun () -> generate ~pool ()) in
      Asc_util.Domain_pool.shutdown pool;
      r
    end
    else time_best (fun () -> generate ())
  in
  let loads, imbalance = loads_of snap in
  let r =
    {
      at_circuit = name;
      at_faults = Array.length faults;
      at_tests_1 = tests_1;
      at_tests_n = tests_n;
      at_detected_1 = detected_1;
      at_detected_n = detected_n;
      at_seconds_1 = seconds_1;
      at_seconds_n = seconds_n;
      at_speedup = seconds_1 /. seconds_n;
      at_loads = loads;
      at_imbalance = imbalance;
    }
  in
  Printf.printf
    "atpg phase (%s, %d faults): 1 domain %.3fs, %d domains %.3fs, speedup \
     %.2fx; detected %d vs %d, |C| %d vs %d (%s)\n%!"
    r.at_circuit r.at_faults r.at_seconds_1 domains r.at_seconds_n r.at_speedup
    r.at_detected_1 r.at_detected_n r.at_tests_1 r.at_tests_n
    (if r.at_detected_1 = r.at_detected_n && r.at_tests_1 = r.at_tests_n then
       "identical"
     else "MISMATCH");
  print_loads r.at_loads r.at_imbalance;
  r

(* --- JSON summary -------------------------------------------------------- *)

let json_summary o ~domains ~timings ~fsim ~atpg ~kernel =
  let module J = Asc_util.Json in
  let loads_json loads =
    J.List
      (List.map
         (fun (l : Asc_util.Telemetry.load) ->
           J.Obj
             [
               ("domain", J.Int l.l_dom);
               ("tasks", J.Int l.l_tasks);
               ("busy_seconds", J.Float l.l_busy);
               ("utilization", J.Float l.l_util);
             ])
         loads)
  in
  let doc =
    J.Obj
      [
        ("bench", J.Str "asc");
        ("schema", J.Int 2);
        ("mode", J.Str (if o.quick then "quick" else "full"));
        ("seed", J.Int o.seed);
        ("domains", J.Int domains);
        ("recommended_domains", J.Int (Domain.recommended_domain_count ()));
        ("ocaml_version", J.Str Sys.ocaml_version);
        ( "circuits",
          J.List
            (List.map
               (fun (name, dt, atpg_dt) ->
                 J.Obj
                   [
                     ("name", J.Str name);
                     ("seconds", J.Float dt);
                     ("atpg_seconds", J.Float atpg_dt);
                   ])
               timings) );
        ( "fsim",
          match fsim with
          | None -> J.Null
          | Some f ->
              J.Obj
                [
                  ("circuit", J.Str f.fs_circuit);
                  ("faults", J.Int f.fs_faults);
                  ("tests", J.Int f.fs_tests);
                  ("seq_len", J.Int f.fs_seq_len);
                  ("detected_domains_1", J.Int f.fs_detected_1);
                  ("detected_domains_n", J.Int f.fs_detected_n);
                  ("seconds_domains_1", J.Float f.fs_seconds_1);
                  ("seconds_domains_n", J.Float f.fs_seconds_n);
                  ("speedup", J.Float f.fs_speedup);
                  ("loads", loads_json f.fs_loads);
                  ("imbalance", J.Float f.fs_imbalance);
                ] );
        ( "kernel",
          match kernel with
          | None -> J.Null
          | Some k ->
              J.Obj
                [
                  ("circuit", J.Str k.k_circuit);
                  ("faults", J.Int k.k_faults);
                  ("tests", J.Int k.k_tests);
                  ("seq_len", J.Int k.k_seq_len);
                  ("detected_levelized_1", J.Int k.k_detected_lv1);
                  ("detected_levelized_n", J.Int k.k_detected_lvn);
                  ("seconds_levelized_1", J.Float k.k_seconds_lv1);
                  ("seconds_levelized_n", J.Float k.k_seconds_lvn);
                  ("good_cycles", J.Int k.k_good_cycles);
                  ("faulty_cycles", J.Int k.k_faulty_cycles);
                  ("cone_gates_evaluated", J.Int k.k_cone_gates);
                  ("trace_cache_hits", J.Int k.k_cache_hits);
                  ("trace_cache_misses", J.Int k.k_cache_misses);
                  ("loads", loads_json k.k_loads);
                  ("imbalance", J.Float k.k_imbalance);
                ] );
        ( "atpg",
          match atpg with
          | None -> J.Null
          | Some a ->
              J.Obj
                [
                  ("circuit", J.Str a.at_circuit);
                  ("faults", J.Int a.at_faults);
                  ("tests_domains_1", J.Int a.at_tests_1);
                  ("tests_domains_n", J.Int a.at_tests_n);
                  ("detected_domains_1", J.Int a.at_detected_1);
                  ("detected_domains_n", J.Int a.at_detected_n);
                  ("seconds_domains_1", J.Float a.at_seconds_1);
                  ("seconds_domains_n", J.Float a.at_seconds_n);
                  ("speedup", J.Float a.at_speedup);
                  ("loads", loads_json a.at_loads);
                  ("imbalance", J.Float a.at_imbalance);
                ] );
      ]
  in
  (match o.json with
  | Some file -> (
      try
        J.write_file file doc;
        Printf.printf "wrote %s\n%!" file
      with Sys_error msg -> Printf.eprintf "cannot write JSON summary: %s\n%!" msg)
  | None -> ());
  print_endline (J.to_string doc)

(* --- Bechamel micro-benchmarks ----------------------------------------- *)

(* One Test.make per table: each benchmark regenerates the data behind the
   corresponding table on a small circuit, so Bechamel can sample it. *)
let micro_tests () =
  let open Bechamel in
  let name = "s298" in
  let c = Asc_circuits.Registry.get name in
  let config =
    { Asc_core.Pipeline.default_config with
      t0_source = Asc_core.Pipeline.Directed (Asc_circuits.Registry.t0_budget name) }
  in
  let prepared = Asc_core.Pipeline.prepare ~config c in
  let faults = prepared.faults in
  let directed = lazy (Asc_core.Pipeline.run ~config prepared) in
  let random_cfg =
    { config with t0_source = Asc_core.Pipeline.Random_seq 1000 }
  in
  (* Table 1 and 2 come from the proposed pipeline's phases (directed T0);
     Table 3 adds the [4] baseline; Table 4 needs the final sets' length
     statistics; Table 5 is the random-T0 pipeline.  The extension table
     exercises the transition-fault simulator. *)
  [
    Test.make ~name:"table1+2: proposed pipeline (directed T0)"
      (Staged.stage (fun () -> ignore (Asc_core.Pipeline.run ~config prepared)));
    Test.make ~name:"table3: static baseline of [4]"
      (Staged.stage (fun () -> ignore (Asc_core.Baseline_static.run prepared)));
    Test.make ~name:"table4: length statistics of the final set"
      (Staged.stage (fun () ->
           ignore
             (Asc_scan.Time_model.length_stats (Lazy.force directed).final_tests)));
    Test.make ~name:"table5: proposed pipeline (random T0)"
      (Staged.stage (fun () -> ignore (Asc_core.Pipeline.run ~config:random_cfg prepared)));
    Test.make ~name:"tableA: transition-fault coverage"
      (Staged.stage (fun () ->
           let tf = Asc_tfault.Tfault.universe c in
           ignore
             (Asc_tfault.Tfault.coverage c (Lazy.force directed).final_tests ~faults:tf)));
    (* Kernels under everything above. *)
    Test.make ~name:"kernel: sequential fault simulation (62 lanes)"
      (Staged.stage
         (let si = Array.make (Asc_netlist.Circuit.n_dffs c) false in
          let rng = Asc_util.Rng.create 7 in
          let seq =
            Array.init 64 (fun _ ->
                Asc_util.Rng.bool_array rng (Asc_netlist.Circuit.n_inputs c))
          in
          fun () -> ignore (Asc_fault.Seq_fsim.detect c ~si ~seq ~faults)));
    Test.make ~name:"kernel: PODEM over the fault list"
      (Staged.stage
         (let podem = Asc_atpg.Podem.create c in
          fun () ->
            Array.iter (fun f -> ignore (Asc_atpg.Podem.run podem f)) faults));
  ]

let run_micro () =
  let open Bechamel in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 2.0) ~kde:(Some 100) () in
    Benchmark.all cfg [ instance ] test
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true
        ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  List.iter
    (fun test ->
      let results = benchmark test in
      let stats = analyze results in
      Hashtbl.iter
        (fun name r ->
          match Analyze.OLS.estimates r with
          | Some [ est ] ->
              Printf.printf "%-50s %12.0f ns/run\n%!" name est
          | _ -> Printf.printf "%-50s (no estimate)\n%!" name)
        stats)
    (micro_tests ())

let () =
  let o = parse_args () in
  if o.micro then run_micro ()
  else if o.ablations then
    Ablations.run_all ~seed:o.seed
      ?names:(if o.circuits == default_circuits then None else Some o.circuits)
      ()
  else begin
    let domains =
      match o.domains with
      | Some n -> n
      | None -> Asc_util.Domain_pool.default_domains ()
    in
    let tel = Option.map (fun _ -> Asc_util.Telemetry.create ()) o.trace in
    let pool =
      if domains > 1 then Some (Asc_util.Domain_pool.create ?tel ~domains ())
      else None
    in
    let timings = run_tables o pool tel in
    (match pool with Some p -> Asc_util.Domain_pool.shutdown p | None -> ());
    (* The trace covers the table battery, not the speedup re-runs below
       (those drain their own handles for the utilization report). *)
    (match (tel, o.trace) with
    | Some tel, Some file ->
        Asc_util.Telemetry.write_trace file (Asc_util.Telemetry.drain tel);
        Printf.printf "wrote trace to %s\n%!" file
    | _ -> ());
    (* The fault-simulation phase comparison runs whenever a domain count
       was requested explicitly — it is the per-PR perf-regression signal
       the CI quick-bench job records. *)
    let fsim, atpg =
      match o.domains with
      | Some domains ->
          ( Some (fsim_bench ~seed:o.seed ~domains o.circuits),
            Some (atpg_bench ~seed:o.seed ~domains o.circuits) )
      | None -> (None, None)
    in
    (* The kernel acceptance benchmark runs whenever a machine-readable
       summary is requested (the perf-trajectory job) or a domain count
       was given explicitly. *)
    let kernel =
      match (o.domains, o.json) with
      | Some domains, _ -> Some (kernel_bench ~seed:o.seed ~domains)
      | None, Some _ -> Some (kernel_bench ~seed:o.seed ~domains)
      | None, None -> None
    in
    json_summary o ~domains ~timings ~fsim ~atpg ~kernel
  end
