(** Transition (gate-delay) faults — quantifying the paper's at-speed
    claim.

    A slow-to-rise / slow-to-fall fault delays every such transition of its
    line past the capture edge; effects propagate through the state.  A
    length-one scan test can never detect one (no at-speed predecessor to
    launch a transition), so transition coverage directly measures the
    value of the long at-speed sequences the proposed procedure produces.

    Simulation runs on {!Asc_sim.Kernel}, each cycle's delayed lanes
    injected as stuck-at overrides, one {!Asc_fault.Sweep.run} per test:
    [pool] chunks the fault groups across domains, with results
    bit-identical for any domain count, and [tel] gets a
    ["tfault:detect"] span per test and the sweep's work counters. *)

type t = { gate : int; rising : bool }

val to_string : Asc_netlist.Circuit.t -> t -> string

(** Both polarities on every gate output (PIs and flip-flop outputs
    included). *)
val universe : Asc_netlist.Circuit.t -> t array

(** Transition faults detected by one scan test; [only] restricts the
    simulated fault indices. *)
val detect :
  ?pool:Asc_util.Domain_pool.t ->
  ?tel:Asc_util.Telemetry.t ->
  ?only:Asc_util.Bitvec.t ->
  Asc_netlist.Circuit.t ->
  Asc_scan.Scan_test.t ->
  faults:t array ->
  Asc_util.Bitvec.t

(** Coverage of a test set (with fault dropping; length-one tests are
    skipped — they cannot detect transition faults). *)
val coverage :
  ?pool:Asc_util.Domain_pool.t ->
  ?tel:Asc_util.Telemetry.t ->
  Asc_netlist.Circuit.t ->
  Asc_scan.Scan_test.t array ->
  faults:t array ->
  Asc_util.Bitvec.t
