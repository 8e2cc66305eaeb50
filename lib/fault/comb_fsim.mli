(** Combinational fault simulation (parallel-pattern single-fault).

    A pattern is a PI + present-state assignment; detection means a
    difference at a primary output or in the captured next state — exactly
    the detection condition of a length-one scan test under full scan. *)

(** [detect_matrix ?pool ?only c ~patterns ~faults] — rows are patterns,
    columns are fault indices; [only] restricts which fault indices are
    simulated (others are left undetected).  [pool] chunks the pattern
    groups across worker domains; results are identical for any domain
    count.  [budget] is polled per pattern group (raises
    {!Asc_util.Budget.Exhausted} once fired).  [tel] records a span per
    call plus engine counters; telemetry never affects results. *)
val detect_matrix :
  ?pool:Asc_util.Domain_pool.t ->
  ?budget:Asc_util.Budget.t ->
  ?tel:Asc_util.Telemetry.t ->
  ?only:Asc_util.Bitvec.t ->
  Asc_netlist.Circuit.t ->
  patterns:Asc_sim.Pattern.t array ->
  faults:Fault.t array ->
  Asc_util.Bitmat.t

(** Which patterns detect one given fault. *)
val patterns_detecting :
  Asc_netlist.Circuit.t ->
  patterns:Asc_sim.Pattern.t array ->
  fault:Fault.t ->
  Asc_util.Bitvec.t
