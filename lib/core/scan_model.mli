(** The scan model: the questions the proposed procedure asks of a scan
    architecture.  {!Pipeline} and {!Phase1} ask them and never branch on
    the architecture.  A value is built once per run and captures its
    [pool], [budget] and [tel]; answers are identical for any domain
    count. *)

type seq = bool array array

type t = {
  candidate_rows :
    sis:bool array array -> seq:seq -> subset:int array -> Asc_util.Bitmat.t;
      (** Phase 1 Step 2: per candidate scan-in state, the [subset] faults
          [(candidate, seq)] detects. *)
  profile : si:bool array -> seq:seq -> subset:int array -> Asc_fault.Seq_fsim.profile;
      (** Phase 1 Step 3: the detection-time profile of [(si, seq)]. *)
  detect : only:Asc_util.Bitvec.t -> Asc_scan.Scan_test.t -> Asc_util.Bitvec.t;
  omit : Asc_scan.Scan_test.t -> required:Asc_util.Bitvec.t -> Asc_scan.Scan_test.t;
      (** Phase 2: vectors omitted, every fault of [required] kept. *)
  cover_rows : only:Asc_util.Bitvec.t -> Asc_sim.Pattern.t array -> Asc_util.Bitmat.t;
      (** Phase 3: per pattern of C as a length-one test, its detections. *)
  combine :
    targets:Asc_util.Bitvec.t -> Asc_scan.Scan_test.t array -> Asc_scan.Scan_test.t array;
      (** Phase 4: the set after combining, its [targets] coverage kept. *)
  coverage : only:Asc_util.Bitvec.t -> Asc_scan.Scan_test.t array -> Asc_util.Bitvec.t;
  cycles : Asc_scan.Scan_test.t array -> int;  (** Test application time. *)
  max_iterations : int;  (** Cap on Phase 1+2 rounds. *)
}

(** Full scan: 2-valued detection with every flip-flop scanned in and out
    ({!Asc_fault.Seq_fsim}, {!Asc_compact.Vector_omission},
    {!Asc_fault.Comb_fsim}, {!Asc_compact.Combine}), [N_cyc] over [N_SV]
    and at most 8 Phase 1+2 rounds. *)
val full :
  ?pool:Asc_util.Domain_pool.t ->
  ?budget:Asc_util.Budget.t ->
  ?tel:Asc_util.Telemetry.t ->
  Asc_netlist.Circuit.t ->
  faults:Asc_fault.Fault.t array ->
  t

(** Partial scan over [chain] ({!Asc_scan.Partial}): unscanned flip-flops
    are X at test start, the scan-out observes the scanned flip-flops
    only, and a scan operation costs [N_scanned] cycles.  Omission trials
    run in halving chunks from 16 vectors under a budget of 120, combining
    stops after 2,000 attempts, and Phase 1+2 after 4 rounds. *)
val partial :
  ?pool:Asc_util.Domain_pool.t ->
  ?budget:Asc_util.Budget.t ->
  ?tel:Asc_util.Telemetry.t ->
  Asc_netlist.Circuit.t ->
  faults:Asc_fault.Fault.t array ->
  Asc_scan.Partial.chain ->
  t
