(** Partial scan: only a subset of the flip-flops is on the scan chain.

    Unscanned flip-flops start each test at X (conservative 3-valued
    evaluation) and are not observed by the scan-out; scan operations cost
    [N_scanned] cycles instead of [N_SV].  Substrate for the paper's
    "can be extended to partial scan" remark. *)

type chain = { scanned : bool array }

val full_chain : Asc_netlist.Circuit.t -> chain

(** Keep the [ratio] highest-fanout flip-flops on the chain. *)
val by_fanout : Asc_netlist.Circuit.t -> ratio:float -> chain

val n_scanned : chain -> int

(** Test application time under the shorter chain. *)
val cycles : chain -> Scan_test.t array -> int

(** Faults detected by one test under the partial chain (3-valued,
    pessimistic): one {!Asc_fault.Seq_fsim.detect3} sweep from the scan-in
    on the scanned flip-flops and X elsewhere, observing the scanned
    flip-flops at scan-out.  Identical for any domain count. *)
val detect :
  ?pool:Asc_util.Domain_pool.t ->
  ?budget:Asc_util.Budget.t ->
  ?tel:Asc_util.Telemetry.t ->
  ?only:Asc_util.Bitvec.t ->
  Asc_netlist.Circuit.t ->
  chain ->
  Scan_test.t ->
  faults:Asc_fault.Fault.t array ->
  Asc_util.Bitvec.t

(** Coverage of a test set, with fault dropping. *)
val coverage :
  ?pool:Asc_util.Domain_pool.t ->
  ?budget:Asc_util.Budget.t ->
  ?tel:Asc_util.Telemetry.t ->
  Asc_netlist.Circuit.t ->
  chain ->
  Scan_test.t array ->
  faults:Asc_fault.Fault.t array ->
  Asc_util.Bitvec.t

(** Partial-scan analogue of [Seq_fsim.candidate_detections]: one
    {!detect} of [(candidate, seq)] over the [subset] faults per row. *)
val candidate_detections :
  ?pool:Asc_util.Domain_pool.t ->
  ?budget:Asc_util.Budget.t ->
  ?tel:Asc_util.Telemetry.t ->
  Asc_netlist.Circuit.t ->
  chain ->
  sis:bool array array ->
  seq:bool array array ->
  faults:Asc_fault.Fault.t array ->
  subset:int array ->
  Asc_util.Bitmat.t

(** Partial-scan analogue of [Seq_fsim.profile]
    ({!Asc_fault.Seq_fsim.profile3}): [state_diff_at] marks the time units
    at which the {e scanned} state observably differs. *)
val profile :
  ?pool:Asc_util.Domain_pool.t ->
  ?budget:Asc_util.Budget.t ->
  ?tel:Asc_util.Telemetry.t ->
  Asc_netlist.Circuit.t ->
  chain ->
  Scan_test.t ->
  faults:Asc_fault.Fault.t array ->
  subset:int array ->
  Asc_fault.Seq_fsim.profile
