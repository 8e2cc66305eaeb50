(** Sequential fault simulation of scan tests.

    A scan test [(SI, T)] loads state [SI], applies the vectors of [T] with
    the functional clock, and scans out the final state.  Detection: a
    difference at a primary output at any time unit, or in the final
    (scanned-out) state.  Faults live in the functional logic; the scan
    operation itself is fault-free (standard full-scan assumption).

    Bit-parallel: up to 62 faulty machines per word — or, in
    {!candidate_detections}, one fault across up to 62 candidate scan-in
    states per word.  Faulty machines run on the levelized kernel
    ({!Asc_sim.Kernel}).  Every entry point additionally takes an optional
    [pool]: fault groups are chunked across worker domains, each chunk on
    a private kernel, and the results are merged deterministically — the
    output is bit-identical for any domain count.

    Every entry point also takes an optional [budget]
    ({!Asc_util.Budget.t}), polled once per fault group; a fired budget
    raises {!Asc_util.Budget.Exhausted} at the next group boundary.

    An optional [tel] ({!Asc_util.Telemetry.t}) records a span per entry
    call plus engine counters (faults swept, good/faulty cycles,
    detections, budget polls) at chunk granularity.  Telemetry never
    affects results. *)

type seq = bool array array
(** A primary-input sequence: [L] vectors of [n_pis] values. *)

(** Empty the shared good-machine trace cache: the fault-free trace of a
    scan test depends only on (circuit, scan-in, seq), so it is computed
    once and recalled across calls — detect, profile, verify of the same
    test — and across domains.  Benchmarks call this between repetitions
    to measure cold-cache behaviour; results never depend on cache
    state. *)
val clear_trace_cache : unit -> unit

(** The fault-free rows of the scan test [(si, seq)] through the cache:
    row [t] holds one byte per gate, ['\001'] where the gate's good value
    at time unit [t] is 1 — the [gb] argument of {!Asc_sim.Kernel}'s
    byte-trace entry points.  A lookup counts a trace-cache hit or miss,
    and a miss its computed [good_cycles].  The rows are shared: never
    mutate them. *)
val good_gb :
  ?tel:Asc_util.Telemetry.t ->
  Asc_netlist.Circuit.t ->
  si:bool array ->
  seq:seq ->
  Bytes.t array

(** Fault indices detected by the scan test; [only] restricts simulation. *)
val detect :
  ?pool:Asc_util.Domain_pool.t ->
  ?budget:Asc_util.Budget.t ->
  ?tel:Asc_util.Telemetry.t ->
  ?only:Asc_util.Bitvec.t ->
  Asc_netlist.Circuit.t ->
  si:bool array ->
  seq:seq ->
  faults:Fault.t array ->
  Asc_util.Bitvec.t

(** Detection-time profile over [subset] (fault indices).  [po_time.(k)]:
    earliest PO-difference time of subset fault [k] ([max_int] if none);
    [state_diff_at.(k)]: time units after whose vector the faulty state
    differs (scanning out there would detect the fault).

    [state_diff_at.(k)] holds bits only for [t <= po_time.(k)]: a fault is
    simulated up to its first PO detection and no further, since every
    truncation at or after that time detects it anyway.  Readers must
    treat later time units as detected through the PO, as
    {!profile_detected_at} does. *)
type profile = {
  subset : int array;
  po_time : int array;
  state_diff_at : Asc_util.Bitvec.t array;
}

val profile :
  ?pool:Asc_util.Domain_pool.t ->
  ?budget:Asc_util.Budget.t ->
  ?tel:Asc_util.Telemetry.t ->
  Asc_netlist.Circuit.t ->
  si:bool array ->
  seq:seq ->
  faults:Fault.t array ->
  subset:int array ->
  profile

(** Subset faults detected when the test is truncated to scan out at time
    [u] (bit [k] refers to [subset.(k)]). *)
val profile_detected_at : profile -> u:int -> Asc_util.Bitvec.t

(** Phase-1 scan-in selection: rows are candidate scan-in states, columns
    fault indices; set when [(candidate, seq)] detects the fault.  Only
    [subset] columns are simulated. *)
val candidate_detections :
  ?pool:Asc_util.Domain_pool.t ->
  ?budget:Asc_util.Budget.t ->
  ?tel:Asc_util.Telemetry.t ->
  Asc_netlist.Circuit.t ->
  sis:bool array array ->
  seq:seq ->
  faults:Fault.t array ->
  subset:int array ->
  Asc_util.Bitmat.t

(** Does the test detect every fault index in [subset]?  Checked in subset
    order with early failure exit — put fragile faults first. *)
val verify_required :
  ?pool:Asc_util.Domain_pool.t ->
  ?budget:Asc_util.Budget.t ->
  ?tel:Asc_util.Telemetry.t ->
  Asc_netlist.Circuit.t ->
  si:bool array ->
  seq:seq ->
  faults:Fault.t array ->
  subset:int array ->
  bool

(** {1 Prefix snapshots and resumed verification}

    A candidate test that keeps the prefix [T[0,b)] of a simulated scan
    test [(SI, T)] — a vector-omission trial [(SI, T[0,p) . T[p+c,L))]
    at [b = p], a combination [(SI_i, T_i . T_j)] at [b = L(T_i)] — is
    verified from a snapshot at [b] over its suffix only.  A snapshot
    holds the fault-free state entering [b] and, for each snapshotted
    fault, either "PO-detected before [b]" or the faulty machine's state
    difference at [b].

    Contract: for a snapshot of [(si, seq)] at [b] and any [suffix],
    [resume_verify s ~suffix] equals {!verify_required} on
    [(si, seq[0,b) . suffix)], and [resume_po_time s ~suffix] equals that
    sequence's {!profile} [po_time], over any [subset] of the snapshotted
    faults (a fault outside it raises [Invalid_argument]).  Resumed runs
    skip faults PO-detected before [b] and compute the suffix's
    fault-free rows from the snapshot's good state without entering
    them in the trace cache.  Results are identical for any domain
    count.

    [rejoin] names a scan test [(si', seq')] whose trace may already be
    cached (the test a vector-omission pass snapshotted, or the second
    test [T_j] of a combination).  Where [suffix] and [seq'] share a
    tail, aligned at their ends, suffix rows are simulated only until
    the good state equals [(si', seq')]'s at the same input position;
    from there the cached rows are shared.  Without a common tail or a
    cached trace every suffix row is simulated.  Results never depend
    on [rejoin]. *)

type snapshot

(** [snapshots ~si ~seq ~faults ~subset ~boundaries] records, in one
    profile-style pass over [(si, seq)] (span ["fsim:snapshot"]; each
    lane stops at its first PO detection), one snapshot of the [subset]
    faults per boundary [b] ([0 <= b <= L], distinct, any order), in
    [boundaries] order.  The first component is the pass's per-fault
    earliest PO time over [subset], as {!profile}'s [po_time]. *)
val snapshots :
  ?pool:Asc_util.Domain_pool.t ->
  ?budget:Asc_util.Budget.t ->
  ?tel:Asc_util.Telemetry.t ->
  Asc_netlist.Circuit.t ->
  si:bool array ->
  seq:seq ->
  faults:Fault.t array ->
  subset:int array ->
  boundaries:int array ->
  int array * snapshot array

(** Whether fault index [f] is in the snapshot. *)
val snapshot_covers : snapshot -> int -> bool

(** {!verify_required} of [(si, seq[0,b) . suffix)], simulating only
    [suffix] (span ["fsim:verify"]). *)
val resume_verify :
  ?pool:Asc_util.Domain_pool.t ->
  ?budget:Asc_util.Budget.t ->
  ?tel:Asc_util.Telemetry.t ->
  ?rejoin:bool array * seq ->
  Asc_netlist.Circuit.t ->
  snapshot ->
  suffix:seq ->
  faults:Fault.t array ->
  subset:int array ->
  bool

(** {!profile}'s [po_time] of [(si, seq[0,b) . suffix)] over [subset],
    simulating only [suffix] (span ["fsim:profile"]). *)
val resume_po_time :
  ?pool:Asc_util.Domain_pool.t ->
  ?budget:Asc_util.Budget.t ->
  ?tel:Asc_util.Telemetry.t ->
  ?rejoin:bool array * seq ->
  Asc_netlist.Circuit.t ->
  snapshot ->
  suffix:seq ->
  faults:Fault.t array ->
  subset:int array ->
  int array

(** 3-valued detection (span ["fsim:detect3"]): the good machine starts
    from [start], one {!Asc_sim.Kernel3} code per flip-flop (all X by
    default); a fault is detected when a fault-free binary value meets
    the complementary faulty one at a PO, or at the end of [seq] in a
    flip-flop of [observe] (none by default). *)
val detect3 :
  ?pool:Asc_util.Domain_pool.t ->
  ?budget:Asc_util.Budget.t ->
  ?tel:Asc_util.Telemetry.t ->
  ?only:Asc_util.Bitvec.t ->
  ?start:Bytes.t ->
  ?observe:bool array ->
  Asc_netlist.Circuit.t ->
  seq:seq ->
  faults:Fault.t array ->
  Asc_util.Bitvec.t

(** {!detect3} from all-X, observing the POs only: the faults [seq]
    detects without scan (span ["fsim:detect-no-scan"]). *)
val detect_no_scan :
  ?pool:Asc_util.Domain_pool.t ->
  ?budget:Asc_util.Budget.t ->
  ?tel:Asc_util.Telemetry.t ->
  ?only:Asc_util.Bitvec.t ->
  Asc_netlist.Circuit.t ->
  seq:seq ->
  faults:Fault.t array ->
  Asc_util.Bitvec.t

(** {!profile} of [seq] from [start] (one {!Asc_sim.Kernel3} code per
    flip-flop), 3-valued: [state_diff_at] marks a detectable difference
    in a flip-flop of [observe] (span ["fsim:profile3"]). *)
val profile3 :
  ?pool:Asc_util.Domain_pool.t ->
  ?budget:Asc_util.Budget.t ->
  ?tel:Asc_util.Telemetry.t ->
  start:Bytes.t ->
  observe:bool array ->
  Asc_netlist.Circuit.t ->
  seq:seq ->
  faults:Fault.t array ->
  subset:int array ->
  profile

(** Incremental 3-valued co-simulation for sequence generation: keeps the
    fault-free state at the end of the sequence built so far and every
    undetected faulty machine's state difference against it, so candidate
    extensions are evaluated without re-simulating the prefix. *)
type inc3

val inc3_create : Asc_netlist.Circuit.t -> Fault.t array -> inc3

(** Faults detected by the committed sequence so far. *)
val inc3_detected : inc3 -> Asc_util.Bitvec.t

(** Length of the committed sequence. *)
val inc3_length : inc3 -> int


(** Number of new detections a candidate segment would add (no commit).
    [pool] chunks the fault groups across worker domains (each group's
    state stays private to one task); the count is identical for any
    domain count.  No group state is written. *)
val inc3_peek :
  ?pool:Asc_util.Domain_pool.t ->
  ?budget:Asc_util.Budget.t ->
  ?tel:Asc_util.Telemetry.t ->
  inc3 ->
  seq ->
  int

(** Append a segment; returns the number of newly detected faults.  Same
    [pool] contract as {!inc3_peek}.  The budget is polled on entry only,
    so a commit that starts runs to completion (unless aborted by the
    pool's own budget, after which the [inc3] must be discarded). *)
val inc3_commit :
  ?pool:Asc_util.Domain_pool.t ->
  ?budget:Asc_util.Budget.t ->
  ?tel:Asc_util.Telemetry.t ->
  inc3 ->
  seq ->
  int

(** The detections of [seq], the sequence committed so far: a copy of
    {!inc3_detected}, unless a commit was cut short mid-sweep (by a
    pool's own budget) — that leaves the co-simulation describing no
    committed sequence, so [seq] is then simulated once
    ({!detect_no_scan}, without a pool). *)
val inc3_detections : ?tel:Asc_util.Telemetry.t -> inc3 -> seq:seq -> Asc_util.Bitvec.t
