(** Combinational test-set generation (the compact set C of the paper).

    Random phase with fault dropping, PODEM for the remaining faults with
    random fill, then reverse-order fault-simulation compaction.  Detection
    is the full-scan combinational condition (PO or captured-state
    difference).

    The PODEM phase runs across worker domains when [pool] is given: fault
    chunks each own a private [Podem.t], random fill draws from per-fault
    streams seeded by fault id, and the greedy fortuitous-dropping pass is
    a sequential fault-index-order merge over the chunked candidates — the
    result is bit-identical for any domain count. *)

type result = {
  tests : Asc_sim.Pattern.t array;  (** The compacted test set C. *)
  detected : Asc_util.Bitvec.t;  (** Fault indices covered by [tests]. *)
  redundant : Asc_util.Bitvec.t;  (** Proven combinationally untestable. *)
  aborted : Asc_util.Bitvec.t;  (** PODEM hit its backtrack limit. *)
}

(** [budget] makes the generator degrade gracefully: a fired budget stops
    the random phase and makes PODEM return [Aborted] promptly, but the
    result record is still well-formed (unless a pool carrying its own
    fired budget raises {!Asc_util.Budget.Exhausted} out of a sweep).
    [tel] records a span per PODEM chunk plus decision / candidate /
    commit counters; it never affects the generated set. *)
val generate :
  ?pool:Asc_util.Domain_pool.t ->
  ?budget:Asc_util.Budget.t ->
  ?tel:Asc_util.Telemetry.t ->
  Asc_netlist.Circuit.t ->
  faults:Asc_fault.Fault.t array ->
  rng:Asc_util.Rng.t ->
  result
