(** Levelized event-driven fault-simulation kernel.

    Simulates faulty machines as lane-masked *differences* against a
    precomputed fault-free trace: per cycle, the difference is seeded at
    the fault sites and diverged flip-flops and propagated level by level
    through the fanout cone only, dying out where the faulty machine
    reconverges with the good one.  All values are {!Asc_util.Word}
    bit-parallel words (62 lanes).

    The schedule comes from the circuit's flat levelized arrays
    ({!Asc_netlist.Circuit.level_order}) — ints, not closures — computed
    once per netlist and shared read-only across kernels and domains.

    Detection results equal those of a full scalar re-simulation of
    each faulty machine against the fault-free one; the kernel test
    suite pins this against a faulty simulator built on {!Naive}.

    A kernel instance is single-domain mutable state: create one per
    pool chunk. *)

type t

val create : Asc_netlist.Circuit.t -> t

(** Swap the injected fault set (no state-array reallocation).  Overrides
    are applied in {!Sched.group}'s order, shared with {!Kernel3}. *)
val set_overrides : t -> Override.t list -> unit

(** Zero all difference state: the faulty machine restarts equal to the
    good one.  Call before simulating a new fault group or test. *)
val reset : t -> unit

(** Start the faulty machines from the state difference [diff] (one word
    per flip-flop index, as {!state_diff} reads it) instead of zero, like
    {!Kernel3.load_state_diff}; clears any in-cycle leftovers. *)
val load_state_diff : t -> diff:int array -> unit

(** [cycle t ~gw]: settle the faulty machine's combinational difference
    against the good values [gw] of this time unit (one word per gate,
    sources included).  Only the fanout cone of the seeds is evaluated.

    [prune] masks lanes out of the propagation (they behave fault-free
    from here on).  Sound exactly when the caller no longer reads those
    lanes' differences — detection loops prune already-detected lanes,
    whose result bit is a monotonic OR, and the profile prunes a lane
    once it is PO-detected. *)
val cycle : ?prune:int -> t -> gw:int array -> unit

(** PO difference word of the settled cycle.  Read after {!cycle},
    before {!finish_cycle}. *)
val po_diff : t -> int

(** Difference word (faulty XOR good) of gate [g] in the settled cycle.
    Read after {!cycle}, before {!finish_cycle}. *)
val diff : t -> int -> int

(** Clock edge: capture the next-state difference (folding in DFF pin-0
    overrides against the good captured values in [gw]) and clear the
    in-cycle difference. *)
val finish_cycle : t -> gw:int array -> unit

(** {1 Byte-trace variants}

    When every lane carries the same fault-free machine (a splat trace),
    the good values of a cycle are one byte per gate, recovered as
    [(-byte) land Word.mask] on access — 8x denser than word arrays, so
    long traces stay cache-resident.  Semantics are identical to the
    word-array entry points. *)

val cycle_bits : ?prune:int -> t -> gb:Bytes.t -> unit
val finish_cycle_bits : t -> gb:Bytes.t -> unit

(** OR of all flip-flop state differences — after the final
    {!finish_cycle} this is the scan-out difference word. *)
val state_diff_word : t -> int

(** State difference of flip-flop index [i]. *)
val state_diff : t -> int -> int

(** Cone gates evaluated since the last call; returns and resets the
    counter (feeds the [Cone_gates_evaluated] telemetry counter). *)
val take_evaluated : t -> int

(** {1 Fault-free levelized sweep}

    The 62-wide good-machine kernel: a closure-free sweep over the
    levelized schedule with no override machinery at all. *)

(** [good_cycle t ~pi_words ~state ~v] evaluates one fault-free cycle
    into [v] (one word per gate, sources included). *)
val good_cycle : t -> pi_words:int array -> state:int array -> v:int array -> unit

(** [good_capture t ~v ~state] clocks the fault-free machine:
    [state.(i) <- v.(dff_input i)]. *)
val good_capture : t -> v:int array -> state:int array -> unit

(** [good_final_state c ~state ~seq]: the fault-free state after the
    vectors of [seq] are applied from [state] — the expected scan-out of
    the scan test [(state, seq)]. *)
val good_final_state :
  Asc_netlist.Circuit.t -> state:bool array -> seq:bool array array -> bool array
