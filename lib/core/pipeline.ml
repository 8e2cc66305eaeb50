(* The proposed compaction procedure, end to end (Section 3 of the paper).

   Phases:
   1. build a scan-based test from a test sequence T0 (scan-in selection
      from the combinational set C, scan-out time selection);
   2. vector omission;
   1+2 iterate with T0 := T_C until the selected scan-in state repeats
      (or an iteration cap);
   3. top up to complete coverage with length-one tests from C, greedy
      minimum-n(f) first;
   4. static compaction of the resulting set with the combining procedure
      of [4].

   Every question a phase asks of the scan architecture goes to one
   [Scan_model.t] per run: full scan, or partial scan given a chain.

   [prepare] builds everything the procedure (and the baselines) share:
   the collapsed fault list, the combinational test set C, and the target
   fault set (collapsed faults minus proven-redundant ones). *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Pattern = Asc_sim.Pattern
module Scan_test = Asc_scan.Scan_test
module Seq_fsim = Asc_fault.Seq_fsim

let log = Logs.Src.create "asc.pipeline" ~doc:"Proposed compaction procedure"

module Log = (val Logs.src_log log)

type t0_source = Directed of int | Random_seq of int | Genetic of int
(* [Directed budget] — the PROPTEST-style generator; [Random_seq len] — a
   uniform random sequence (the paper's "rand" columns); [Genetic budget] —
   the STRATEGATE-style genetic generator. *)

type config = {
  seed : int;
  t0_source : t0_source;
  scan_out_policy : Phase1.scan_out_policy;
}

let default_config = { seed = 1; t0_source = Directed 1000; scan_out_policy = Phase1.Earliest }

type prepared = {
  circuit : Circuit.t;
  faults : Asc_fault.Fault.t array; (* collapsed representatives *)
  targets : Bitvec.t; (* collapsed minus proven-redundant *)
  comb_tests : Pattern.t array; (* the compact combinational set C *)
  comb_detected : Bitvec.t; (* coverage of C *)
  redundant : Bitvec.t;
  aborted : Bitvec.t;
}

let prepare ?pool ?budget ?tel ?(config = default_config) c =
  Telemetry.span tel "prepare" ~args:[ ("circuit", Circuit.name c) ]
  @@ fun () ->
  let collapse = Asc_fault.Collapse.run c in
  let faults = Asc_fault.Collapse.reps collapse in
  let rng = Rng.of_name ~seed:config.seed (Circuit.name c ^ "/comb") in
  let gen = Asc_atpg.Comb_tgen.generate ?pool ?budget ?tel c ~faults ~rng in
  let n = Array.length faults in
  let targets = Bitvec.init n (fun i -> not (Bitvec.get gen.redundant i)) in
  {
    circuit = c;
    faults;
    targets;
    comb_tests = gen.tests;
    comb_detected = gen.detected;
    redundant = gen.redundant;
    aborted = gen.aborted;
  }

type iteration = {
  si_index : int;
  u_so : int; (* chosen scan-out time *)
  len_after_omission : int;
  detected_count : int;
}

type result = {
  config : config;
  t0_length : int;
  f0_count : int; (* faults T0 detects without scan (Table 1 "T0") *)
  tau_seq : Scan_test.t;
  f_seq : Bitvec.t; (* faults tau_seq detects (Table 1 "scan") *)
  iterations : iteration list;
  added : Scan_test.t array; (* Phase 3 tests (Table 2 "added") *)
  uncovered : Bitvec.t; (* target faults not even C detects *)
  initial_tests : Scan_test.t array; (* end of Phase 3 *)
  final_tests : Scan_test.t array; (* end of Phase 4 *)
  final_detected : Bitvec.t;
  cycles_initial : int;
  cycles_final : int;
}

(* T0 and F0, the targets it detects without scan.  The directed and
   genetic generators already co-simulated their sequence from the all-X
   state, so their [detected] set is F0 before the target filter; a
   random T0 is simulated here.  [budget] is checked between generation
   and that simulation, so a fired budget ends at T0 generation either
   way. *)
let make_t0 ?pool ~budget ?tel config (p : prepared) =
  let c = p.circuit in
  let rng = Rng.of_name ~seed:config.seed (Circuit.name c ^ "/t0") in
  let seq, detected =
    match config.t0_source with
    | Random_seq len ->
        (Asc_atpg.Random_tgen.generate rng ~n_pis:(Circuit.n_inputs c) ~len, None)
    | Directed max_length ->
        let r =
          Asc_atpg.Seq_tgen.generate ?pool ~budget ?tel ~max_length c ~faults:p.faults ~rng
        in
        (r.seq, Some r.detected)
    | Genetic max_length ->
        let r =
          Asc_atpg.Ga_tgen.generate ?pool ~budget ?tel ~max_length c ~faults:p.faults ~rng
        in
        (r.seq, Some r.detected)
  in
  Budget.check budget;
  let detected =
    match detected with
    | Some d -> d
    | None -> Seq_fsim.detect_no_scan ?pool ~budget ?tel c ~seq ~faults:p.faults
  in
  (seq, Bitvec.inter detected p.targets)

(* --- Robustness layer: snapshots, partial results ---------------------- *)

let t0_fingerprint = function
  | Directed b -> Printf.sprintf "directed/%d" b
  | Random_seq l -> Printf.sprintf "random/%d" l
  | Genetic b -> Printf.sprintf "genetic/%d" b

(* Phase-3 output captured at the post-Phase-3 boundary: the added
   length-one tests and the faults not even C covers.  Everything else a
   resumed Phase 4 needs (initial_tests, N_cyc, coverage) is derived from
   these plus [snap_best] by the same deterministic simulations the
   uninterrupted run used. *)
type phase3_snap = {
  ph3_added : Scan_test.t array;
  ph3_uncovered : Bitvec.t;
}

type snapshot = {
  snap_circuit : string;
  snap_pis : int;
  snap_ffs : int;
  snap_seed : int;
  snap_t0 : string; (* [t0_fingerprint] of the run's T0 source *)
  snap_comb_size : int; (* |C|, sanity-checked on resume *)
  snap_t0_length : int;
  snap_f0_count : int;
  snap_iter : int; (* Phase 1+2 iterations completed *)
  snap_selected : Bitvec.t; (* scan-in states already selected *)
  snap_seq : bool array array; (* T_C entering the next iteration *)
  snap_best : Scan_test.t option; (* best iterate tau so far *)
  snap_iterations : iteration list; (* newest first (loop accumulator order) *)
  snap_phase3 : phase3_snap option; (* present once Phase 3 has completed *)
}

type stage = Stage_t0 | Stage_iterate | Stage_cover | Stage_combine

let stage_to_string = function
  | Stage_t0 -> "t0-generation"
  | Stage_iterate -> "phase1+2"
  | Stage_cover -> "phase3"
  | Stage_combine -> "phase4"

type partial = {
  p_reason : Budget.reason;
  p_stage : stage;
  p_iterations : iteration list; (* oldest first, like [result.iterations] *)
  p_tests : Scan_test.t array; (* best-so-far test set (possibly empty) *)
  p_detected : Bitvec.t; (* target faults [p_tests] detects *)
  p_cycles : int; (* N_cyc of [p_tests] *)
}

type outcome = Complete of result | Partial of partial

let snapshot_mismatch (p : prepared) config s =
  let c = p.circuit in
  let fields =
    [
      ("circuit", s.snap_circuit, Circuit.name c);
      ("inputs", string_of_int s.snap_pis, string_of_int (Circuit.n_inputs c));
      ("flip-flops", string_of_int s.snap_ffs, string_of_int (Circuit.n_dffs c));
      ("seed", string_of_int s.snap_seed, string_of_int config.seed);
      ("t0 source", s.snap_t0, t0_fingerprint config.t0_source);
      ("|C|", string_of_int s.snap_comb_size, string_of_int (Array.length p.comb_tests));
    ]
    @
    match s.snap_phase3 with
    | None -> []
    | Some p3 ->
        [
          ( "phase3 fault universe",
            string_of_int (Bitvec.length p3.ph3_uncovered),
            string_of_int (Array.length p.faults) );
        ]
  in
  List.find_map
    (fun (what, got, want) ->
      if got = want then None
      else Some (Printf.sprintf "%s: snapshot has %s, this run has %s" what got want))
    fields

(* The deterministic-resume contract: a snapshot is taken only at an
   iteration *boundary* (after the "continue" updates), and it captures the
   loop's full explicit state — selected scan-ins, T_C, the best iterate,
   the iteration log.  The derived state (no-scan detections of T_C, the
   best iterate's detection set) is recomputed on resume by the same
   deterministic simulations the uninterrupted run used, so a resumed run
   replays the remaining iterations and Phases 3–4 bit-identically.
   Only [run] passes [chain], which a snapshot does not record. *)
let run_phases ?pool ?(budget = Budget.unlimited) ?tel ?(config = default_config) ?chain
    ?resume ?on_checkpoint (p : prepared) =
  let c = p.circuit in
  if Array.length p.comb_tests = 0 then begin
    (* An exhausted budget during [prepare] also leaves the set empty;
       that is a deadline, not a diagnosis. *)
    Budget.check budget;
    invalid_arg
      (Printf.sprintf
         "Pipeline.run: circuit %s has an empty combinational test set (no \
          detectable faults?)"
         (Circuit.name c))
  end;
  Option.iter
    (fun s ->
      Option.iter
        (fun m -> invalid_arg ("Pipeline.run_bounded: " ^ m))
        (snapshot_mismatch p config s);
      (* A post-Phase-3 snapshot resumes into Phase 4 from its best
         iterate. *)
      if s.snap_phase3 <> None && s.snap_best = None then
        invalid_arg "Pipeline.run_bounded: phase3 snapshot without a tau block")
    resume;
  let faults = p.faults in
  let no_scan seq =
    Bitvec.inter (Seq_fsim.detect_no_scan ?pool ~budget ?tel c ~seq ~faults) p.targets
  in
  let model =
    match chain with
    | None -> Scan_model.full ?pool ~budget ?tel c ~faults
    | Some chain -> Scan_model.partial ?pool ~budget ?tel c ~faults chain
  in
  let timed label f =
    let t0 = Sys.time () in
    let r = f () in
    Log.debug (fun m -> m "%s %s: %.2fs" (Circuit.name c) label (Sys.time () -. t0));
    r
  in
  (* --- Phase 1+2 loop state (fresh, or rebuilt from a snapshot) ----- *)
  let selected =
    match resume with
    | Some s -> Bitvec.copy s.snap_selected
    | None -> Bitvec.create (Array.length p.comb_tests)
  in
  let iterations = ref [] in
  let current_seq = ref [||] in
  let current_f0 = ref (Bitvec.create (Array.length faults)) in
  let tau = ref None in
  let iter = ref 0 in
  let t0_length = ref 0 in
  let f0_count = ref 0 in
  let partial reason stage =
    let tests, detected =
      match !tau with
      | Some (t, f) -> ([| t |], f)
      | None -> ([||], Bitvec.create (Array.length faults))
    in
    Partial
      {
        p_reason = reason;
        p_stage = stage;
        p_iterations = List.rev !iterations;
        p_tests = tests;
        p_detected = detected;
        p_cycles = (if Array.length tests = 0 then 0 else model.cycles tests);
      }
  in
  let snapshot () =
    {
      snap_circuit = Circuit.name c;
      snap_pis = Circuit.n_inputs c;
      snap_ffs = Circuit.n_dffs c;
      snap_seed = config.seed;
      snap_t0 = t0_fingerprint config.t0_source;
      snap_comb_size = Array.length p.comb_tests;
      snap_t0_length = !t0_length;
      snap_f0_count = !f0_count;
      snap_iter = !iter;
      snap_selected = Bitvec.copy selected;
      snap_seq = Array.map Array.copy !current_seq;
      snap_best = (match !tau with Some (t, _) -> Some t | None -> None);
      snap_iterations = !iterations;
      snap_phase3 = None;
    }
  in
  let resume_phase3 =
    match resume with Some { snap_phase3 = Some p3; _ } -> Some p3 | _ -> None
  in
  let checkpoint_degrading snap =
    match on_checkpoint with
    | Some f -> (
        try f snap
        with Sys_error msg ->
          (* Checkpoint.write_file already counted the failed attempts
             under Checkpoint_write_failures. *)
          Log.warn (fun m ->
              m "%s: checkpoint write failed (%s); continuing without a snapshot"
                (Circuit.name c) msg))
    | None -> ()
  in
  let init =
    try
      (match resume with
      | Some s ->
          iterations := s.snap_iterations;
          iter := s.snap_iter;
          t0_length := s.snap_t0_length;
          f0_count := s.snap_f0_count;
          current_seq := s.snap_seq;
          current_f0 := no_scan !current_seq;
          tau :=
            Option.map
              (fun t -> (t, Bitvec.inter (model.detect ~only:p.targets t) p.targets))
              s.snap_best
      | None ->
          Telemetry.span tel "t0-generation" (fun () ->
              let t0, f0 = make_t0 ?pool ~budget ?tel config p in
              current_seq := t0;
              current_f0 := f0;
              t0_length := Array.length t0;
              f0_count := Bitvec.count f0));
      `Ok
    with Budget.Exhausted reason -> `Exhausted reason
  in
  match init with
  | `Exhausted reason -> partial reason Stage_t0
  | `Ok -> (
      (* --- Phases 1 + 2, iterated (skipped entirely when resuming from
         a post-Phase-3 snapshot: the loop's outputs are already final) *)
      let loop =
        try
          let stop = ref (resume_phase3 <> None) in
          while not !stop do
            Budget.check budget;
            incr iter;
            Telemetry.span tel "phase1+2"
              ~args:[ ("iter", string_of_int !iter) ]
            @@ fun () ->
            let choice =
              timed "select_scan_in" (fun () ->
                  Phase1.select_scan_in ?tel model ~candidates:p.comb_tests
                    ~t0:!current_seq ~f0:!current_f0 ~targets:p.targets ~selected)
            in
            let so =
              timed "select_scan_out" (fun () ->
                  Phase1.select_scan_out ?tel ~policy:config.scan_out_policy model
                    ~si:p.comb_tests.(choice.index).state
                    ~t0:!current_seq ~f_si:choice.f_si ~targets:p.targets)
            in
            let om =
              timed "vector_omission" (fun () -> model.omit so.test ~required:so.f_so)
            in
            let f_c = Bitvec.inter (model.detect ~only:p.targets om) p.targets in
            Log.debug (fun m ->
                m "%s iter %d: SI=%d%s u_SO=%d len %d->%d detected %d" (Circuit.name c)
                  !iter choice.index
                  (if choice.already_selected then " (repeat)" else "")
                  so.u
                  (Scan_test.length so.test) (Scan_test.length om) (Bitvec.count f_c));
            iterations :=
              {
                si_index = choice.index;
                u_so = so.u;
                len_after_omission = Scan_test.length om;
                detected_count = Bitvec.count f_c;
              }
              :: !iterations;
            (* Keep the best iterate: changing the scan-in state between rounds
               can lose detections, and the best round dominates the last one.
               Because round 1 already detects F_SI(1) >= F0, this also keeps the
               Table-1 invariant |F0| <= |F_seq|. *)
            let better =
              match !tau with
              | None -> true
              | Some (t, f) ->
                  let cmp = compare (Bitvec.count f_c) (Bitvec.count f) in
                  cmp > 0 || (cmp = 0 && Scan_test.length om < Scan_test.length t)
            in
            if better then tau := Some (om, f_c);
            (* Stop on the paper's condition (a repeated scan-in state), on the
               iteration cap, or when the round brought no improvement — further
               rounds only re-shuffle equivalent scan-in states. *)
            if choice.already_selected || !iter >= model.max_iterations || not better
            then stop := true
            else begin
              Bitvec.set selected choice.index;
              current_seq := om.seq;
              current_f0 := no_scan !current_seq;
              (* Iteration boundary: a checkpoint point — resuming here
                 replays the rest of the run bit-identically.  A persistent
                 write failure must not abort the run: losing a snapshot
                 costs resume granularity, aborting loses the best-so-far
                 test set the whole run built.  (Chaos.Killed models a
                 hard crash and is deliberately not caught.) *)
              checkpoint_degrading (snapshot ())
            end
          done;
          `Ok
        with Budget.Exhausted reason -> `Exhausted reason
      in
      match loop with
      | `Exhausted reason -> partial reason Stage_iterate
      | `Ok -> (
          let tau_seq, f_seq = match !tau with Some x -> x | None -> assert false in
          (* Phases 3 and 4, each a cancellation region: a budget firing in
             Phase 3 degrades to the tau-only set, in Phase 4 to the
             uncombined end-of-Phase-3 set. *)
          let after_phase3 = ref None in
          try
            (* --- Phase 3: complete the coverage -------------------- *)
            let initial_tests, cycles_initial, detected_initial, uncovered, added =
              match resume_phase3 with
              | Some p3 ->
                  (* Phase 3 already ran before the interruption: rebuild
                     its outputs from the snapshot.  [detected_initial] is
                     recomputed by fault simulation of the very same tests
                     whose per-test detections the fresh path unions, so
                     the value is bit-identical. *)
                  let added = p3.ph3_added in
                  let initial_tests = Array.append [| tau_seq |] added in
                  let cycles_initial = model.cycles initial_tests in
                  let detected_initial = model.coverage ~only:p.targets initial_tests in
                  (initial_tests, cycles_initial, detected_initial, p3.ph3_uncovered, added)
              | None ->
                  Telemetry.span tel "phase3" @@ fun () ->
                  let undetected = Bitvec.diff p.targets f_seq in
                  let matrix = model.cover_rows ~only:undetected p.comb_tests in
                  let cover = Asc_compact.Set_cover.select ~matrix ~undetected in
                  let added =
                    Array.of_list
                      (List.map
                         (fun j -> Scan_test.of_pattern p.comb_tests.(j))
                         cover.selected)
                  in
                  let initial_tests = Array.append [| tau_seq |] added in
                  let cycles_initial = model.cycles initial_tests in
                  let detected_initial =
                    List.fold_left
                      (fun acc j -> Bitvec.union acc (Bitmat.row matrix j))
                      f_seq cover.selected
                  in
                  (initial_tests, cycles_initial, detected_initial, cover.uncovered, added)
            in
            after_phase3 := Some (initial_tests, cycles_initial, detected_initial, uncovered, added);
            (* Post-Phase-3 boundary: checkpoint again so a late
               interruption (or a server-side job eviction) resumes
               straight into Phase 4 instead of replaying the iterate
               loop.  Skipped when this run itself resumed past Phase 3 —
               the on-disk snapshot is already this one. *)
            if resume_phase3 = None then
              checkpoint_degrading
                { (snapshot ()) with
                  snap_phase3 = Some { ph3_added = added; ph3_uncovered = uncovered } };
            (* --- Phase 4: static compaction of the result ----------- *)
            let final_tests, cycles_final, final_detected =
              Telemetry.span tel "phase4" @@ fun () ->
              let final_tests = model.combine ~targets:p.targets initial_tests in
              let cycles_final = model.cycles final_tests in
              let final_detected = model.coverage ~only:p.targets final_tests in
              (final_tests, cycles_final, final_detected)
            in
            Complete
              {
                config;
                t0_length = !t0_length;
                f0_count = !f0_count;
                tau_seq;
                f_seq;
                iterations = List.rev !iterations;
                added;
                uncovered;
                initial_tests;
                final_tests;
                final_detected;
                cycles_initial;
                cycles_final;
              }
          with Budget.Exhausted reason -> (
            match !after_phase3 with
            | None -> partial reason Stage_cover
            | Some (tests, cycles, detected, _, _) ->
                Partial
                  {
                    p_reason = reason;
                    p_stage = Stage_combine;
                    p_iterations = List.rev !iterations;
                    p_tests = tests;
                    p_detected = detected;
                    p_cycles = cycles;
                  })))

let run_bounded ?pool ?budget ?tel ?config ?resume ?on_checkpoint p =
  run_phases ?pool ?budget ?tel ?config ?resume ?on_checkpoint p

let run ?pool ?tel ?config ?chain (p : prepared) =
  match run_phases ?pool ?tel ?config ?chain p with
  | Complete r -> r
  | Partial pr ->
      (* Only reachable through a pool whose own budget fired (the explicit
         budget above is unlimited); surface it as the exception legacy
         callers expect. *)
      raise (Budget.Exhausted pr.p_reason)
