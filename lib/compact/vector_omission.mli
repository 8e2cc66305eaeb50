(** Phase 2: vector omission, after [8] — shorten a test's PI sequence
    without losing any fault in [required].

    Omissions are tried in halving chunks from the tail, starting at 32
    vectors, under a budget of 400 trials and 60,000,000 units of
    simulation work (fault group x cycle x gate); per-fault
    earliest-PO-detection times narrow each check to the faults an
    omission could actually disturb. *)

type result = {
  test : Asc_scan.Scan_test.t;
  omitted : int;  (** Vectors removed. *)
  checks : int;  (** Simulations spent. *)
}

val run :
  ?pool:Asc_util.Domain_pool.t ->
  ?budget:Asc_util.Budget.t ->
  ?tel:Asc_util.Telemetry.t ->
  Asc_netlist.Circuit.t ->
  Asc_scan.Scan_test.t ->
  faults:Asc_fault.Fault.t array ->
  required:Asc_util.Bitvec.t ->
  result
