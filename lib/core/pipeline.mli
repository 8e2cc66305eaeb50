(** The proposed compaction procedure, end to end (Section 3).

    {!prepare} builds what the procedure and every baseline share — the
    collapsed fault list, the target set, and the combinational test set C.
    {!run} executes Phases 1–4 for a chosen T0 source and returns
    everything the paper's Tables 1–5 report. *)

type t0_source =
  | Directed of int
      (** PROPTEST-style directed sequence with the given length budget
          (the paper's [10]–[12] columns). *)
  | Random_seq of int
      (** Uniform random sequence of the given length (the paper's "rand"
          columns use 1000). *)
  | Genetic of int
      (** STRATEGATE-style genetic sequence with the given length budget
          (the T0-quality ablation's strongest source). *)

type config = {
  seed : int;
  t0_source : t0_source;
  scan_out_policy : Phase1.scan_out_policy;  (** [i_0] (paper) or [i_1]. *)
}

(** Seed 1, [Directed 1000], [i_0]. *)
val default_config : config

type prepared = {
  circuit : Asc_netlist.Circuit.t;
  faults : Asc_fault.Fault.t array;  (** Collapsed representatives. *)
  targets : Asc_util.Bitvec.t;  (** Collapsed minus proven-redundant. *)
  comb_tests : Asc_sim.Pattern.t array;  (** The compact set C. *)
  comb_detected : Asc_util.Bitvec.t;
  redundant : Asc_util.Bitvec.t;
  aborted : Asc_util.Bitvec.t;
}

(** [prepare ?pool ?config c] builds the shared preparation.  [pool]
    parallelises combinational test generation (the PODEM phase chunks
    target faults across domains, each chunk with private ATPG state); the
    [prepared] record is bit-identical for any domain count.  [budget]
    degrades the ATPG gracefully (see {!Asc_atpg.Comb_tgen.generate}).
    [tel] records a ["prepare"] span plus engine counters; telemetry
    never affects the result. *)
val prepare :
  ?pool:Asc_util.Domain_pool.t ->
  ?budget:Asc_util.Budget.t ->
  ?tel:Asc_util.Telemetry.t ->
  ?config:config ->
  Asc_netlist.Circuit.t ->
  prepared

type iteration = {
  si_index : int;
  u_so : int;
  len_after_omission : int;
  detected_count : int;
}

type result = {
  config : config;
  t0_length : int;  (** Table 2, "T0". *)
  f0_count : int;  (** Table 1, "T0". *)
  tau_seq : Asc_scan.Scan_test.t;
  f_seq : Asc_util.Bitvec.t;  (** Table 1, "scan". *)
  iterations : iteration list;
  added : Asc_scan.Scan_test.t array;  (** Table 2, "added c.tst". *)
  uncovered : Asc_util.Bitvec.t;
  initial_tests : Asc_scan.Scan_test.t array;  (** End of Phase 3. *)
  final_tests : Asc_scan.Scan_test.t array;  (** End of Phase 4. *)
  final_detected : Asc_util.Bitvec.t;  (** Table 1, "final". *)
  cycles_initial : int;  (** Table 3, "init". *)
  cycles_final : int;  (** Table 3, "comp". *)
}

(** [run ?pool ?config ?chain prepared] executes Phases 1–4.  [pool]
    parallelises the fault-simulation inner loops across domains; the
    result is identical for any domain count.  Raises
    {!Asc_util.Budget.Exhausted} if the pool carries a budget that fires
    mid-run (prefer {!run_bounded} for interruptible runs).

    [chain] runs the same procedure for a partial-scan circuit
    ({!Scan_model.partial}; full scan, {!Scan_model.full}, without it):
    [final_detected] is then the partial-scan detectable coverage and
    [cycles_*] count [N_scanned] per scan operation. *)
val run :
  ?pool:Asc_util.Domain_pool.t ->
  ?tel:Asc_util.Telemetry.t ->
  ?config:config ->
  ?chain:Asc_scan.Partial.chain ->
  prepared ->
  result

(** {2 Deadline-aware execution (see docs/ROBUSTNESS.md)} *)

(** Phase-3 output captured at the post-Phase-3 boundary: the added
    length-one tests and the target faults not even C covers.  A snapshot
    carrying one resumes straight into Phase 4. *)
type phase3_snap = {
  ph3_added : Asc_scan.Scan_test.t array;
  ph3_uncovered : Asc_util.Bitvec.t;
}

(** Inter-iteration state of the Phase 1+2 loop, captured at an iteration
    boundary — or, with [snap_phase3] present, at the post-Phase-3
    boundary.  Identity fields ([snap_circuit] … [snap_comb_size]) pin the
    snapshot to one (circuit, seed, T0 source, C) combination; the rest is
    the loop's explicit state.  Derived state is recomputed on resume, so
    a resumed run reproduces the uninterrupted result bit-identically. *)
type snapshot = {
  snap_circuit : string;
  snap_pis : int;
  snap_ffs : int;
  snap_seed : int;
  snap_t0 : string;  (** {!t0_fingerprint} of the T0 source. *)
  snap_comb_size : int;  (** |C|. *)
  snap_t0_length : int;
  snap_f0_count : int;
  snap_iter : int;  (** Iterations completed. *)
  snap_selected : Asc_util.Bitvec.t;
  snap_seq : bool array array;  (** T_C entering the next iteration. *)
  snap_best : Asc_scan.Scan_test.t option;
  snap_iterations : iteration list;  (** Newest first. *)
  snap_phase3 : phase3_snap option;  (** Present once Phase 3 completed. *)
}

(** Stable textual identity of a T0 source (recorded in snapshots). *)
val t0_fingerprint : t0_source -> string

(** The first identity field — circuit, input and flip-flop counts, seed,
    T0 fingerprint, |C|, and for a post-Phase-3 snapshot the size of the
    fault universe — in which [snapshot] differs from the run of [config]
    on [prepared], as ["FIELD: snapshot has X, this run has Y"]; [None]
    when the snapshot belongs to that run. *)
val snapshot_mismatch : prepared -> config -> snapshot -> string option

(** Where a run was when its budget fired. *)
type stage = Stage_t0 | Stage_iterate | Stage_cover | Stage_combine

val stage_to_string : stage -> string

(** Best-so-far state of an interrupted run: the stage reached, the
    iteration log, and a usable (if incomplete) test set with its target
    coverage and [N_cyc]. *)
type partial = {
  p_reason : Asc_util.Budget.reason;
  p_stage : stage;
  p_iterations : iteration list;  (** Oldest first, like [result]. *)
  p_tests : Asc_scan.Scan_test.t array;
  p_detected : Asc_util.Bitvec.t;
  p_cycles : int;
}

type outcome = Complete of result | Partial of partial

(** [run_bounded ?pool ?budget ?config ?resume ?on_checkpoint prepared]:
    {!run} for full scan, made interruptible and resumable.

    [budget] is polled at every iteration and threaded through every
    kernel; once it fires the run unwinds cooperatively and returns
    [Partial] with the best test set computed so far — it does not raise.

    [on_checkpoint] is called with a {!snapshot} at each iteration
    boundary the loop decides to continue past (so it fires at least once
    whenever a second iteration starts), and once more — with
    [snap_phase3] filled in — when Phase 3 completes, so an interruption
    during Phase 4 resumes without replaying the iterate loop or the
    Phase-3 covering.  A [Sys_error] raised by the
    callback (a persistent checkpoint-write failure) {e degrades} the run
    instead of aborting it: the failure is logged as a warning and the
    computation continues without that snapshot.  [resume] restarts from
    such a snapshot: the remaining iterations and Phases 3–4 replay exactly, so
    the final result is bit-identical to an uninterrupted run for any
    domain count.  Raises [Invalid_argument] with the
    {!snapshot_mismatch} if the snapshot belongs to another run.

    [tel] records one span per phase (["t0-generation"], ["phase1+2"] with
    an [iter] argument per round, ["phase3"], ["phase4"]) plus the engine
    counters of every kernel it reaches; {!Asc_util.Telemetry.metrics_json}
    turns the drained snapshot into the per-phase wall-time breakdown.
    Telemetry never affects the outcome. *)
val run_bounded :
  ?pool:Asc_util.Domain_pool.t ->
  ?budget:Asc_util.Budget.t ->
  ?tel:Asc_util.Telemetry.t ->
  ?config:config ->
  ?resume:snapshot ->
  ?on_checkpoint:(snapshot -> unit) ->
  prepared ->
  outcome
