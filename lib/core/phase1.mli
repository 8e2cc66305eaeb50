(** Phase 1: from a test sequence T0 to a scan-based test.

    Step 2 — scan-in selection among the state parts of the combinational
    set C (maximum new detections, unselected candidates preferred); Step 3
    — earliest scan-out time preserving every fault of [F_SI], computed
    from a single detection-time profile (the paper's [i_0] criterion). *)

type scan_in_choice = {
  index : int;  (** Chosen candidate index into C. *)
  f_si : Asc_util.Bitvec.t;  (** [F_SI = F0 + new detections], in targets. *)
  already_selected : bool;
      (** True when a previously selected state won — the Phase 1+2
          iteration's termination condition. *)
}

(** Step 2, asking [model] (span ["phase1:scan-in"]). *)
val select_scan_in :
  ?tel:Asc_util.Telemetry.t ->
  Scan_model.t ->
  candidates:Asc_sim.Pattern.t array ->
  t0:bool array array ->
  f0:Asc_util.Bitvec.t ->
  targets:Asc_util.Bitvec.t ->
  selected:Asc_util.Bitvec.t ->
  scan_in_choice

type scan_out_choice = {
  test : Asc_scan.Scan_test.t;  (** [tau_SO = (SI, T0[0, u])]. *)
  u : int;
  f_so : Asc_util.Bitvec.t;  (** All target faults the truncated test detects. *)
}

(** The paper's two scan-out criteria (Section 3.1): [Earliest] is [i_0]
    (used by the paper), [Max_detection] is the [i_1] alternative it
    discusses and rejects. *)
type scan_out_policy = Earliest | Max_detection

(** Step 3, asking [model] (span ["phase1:scan-out"]). *)
val select_scan_out :
  ?tel:Asc_util.Telemetry.t ->
  ?policy:scan_out_policy ->
  Scan_model.t ->
  si:bool array ->
  t0:bool array array ->
  f_si:Asc_util.Bitvec.t ->
  targets:Asc_util.Bitvec.t ->
  scan_out_choice
