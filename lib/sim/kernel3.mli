(** Levelized event-driven 3-valued (0/1/X) fault-simulation kernel.

    Values use the two-word [(z, o)] encoding: a lane set in [z] is
    known-0, in [o] known-1, in neither X; gate functions are the standard
    pessimistic 3-valued extensions.  Used wherever the circuit state is
    (partly) unknown: simulation "without scan" from the all-X state, and
    partial scan.

    The fault-free machine is a single machine, stored one byte per gate
    per cycle ({!x}, {!zero}, {!one}) and computed by a scalar sweep
    ({!good_cycle}).  Up to 62 faulty machines are simulated as lane
    differences against that trace, cone-limited over the levelized
    schedule exactly like {!Kernel}.  A lane is detected at a signal when
    the good value is binary and the faulty value is the complementary
    binary value.

    A kernel instance is single-domain mutable state: create one per pool
    chunk.  Good trace rows are read-only and may be shared. *)

type t

(** Good-machine codes: one byte per gate (or per flip-flop for states). *)

val x : char
val zero : char
val one : char
val of_bool : bool -> char

val create : Asc_netlist.Circuit.t -> t

(** The all-X state, one code per flip-flop. *)
val x_state : Asc_netlist.Circuit.t -> Bytes.t

(** Swap the injected fault set (no state-array reallocation). *)
val set_overrides : t -> Override.t list -> unit

(** Zero all difference state: every faulty machine restarts equal to the
    good one. *)
val reset : t -> unit

(** Load a per-flip-flop state difference [(z, o)] (faulty XOR good), as
    saved by {!store_state_diff}; clears any in-cycle leftovers. *)
val load_state_diff : t -> z:int array -> o:int array -> unit

(** Copy the current state difference out into [z] and [o]. *)
val store_state_diff : t -> z:int array -> o:int array -> unit

(** [cycle t ~gb] settles the faulty machines' combinational difference
    against the good row [gb] of this time unit.  [prune] masks lanes out
    of the propagation (they behave fault-free from here on) — sound when
    the caller no longer reads those lanes. *)
val cycle : ?prune:int -> t -> gb:Bytes.t -> unit

(** Lanes detected at a PO in the settled cycle.  Read after {!cycle},
    before {!finish_cycle}. *)
val po_detect : t -> gb:Bytes.t -> int

(** Clock edge: capture the next-state difference and clear the in-cycle
    difference. *)
val finish_cycle : t -> gb:Bytes.t -> unit

(** [detect_po t ~gbs ~want] runs the good rows [gbs] from the current
    state difference until every lane of [want] is detected at a PO or
    the rows run out, pruning lanes outside [want] and lanes as they are
    detected.  Returns the detected lanes and the number of cycles
    simulated.  The state difference afterwards is exact only for the
    lanes of [want] still undetected. *)
val detect_po : t -> gbs:Bytes.t array -> want:int -> int * int

(** Lanes whose captured state is detectably different from the good
    state [gs] (one code per flip-flop), over the flip-flops selected by
    [observe] (all by default).  After the final {!finish_cycle} with [gs]
    the good final state, this is scan-out detection. *)
val state_detect : ?observe:bool array -> t -> gs:Bytes.t -> int

(** Cone gates evaluated since the last call; returns and resets the
    counter (feeds the [Cone_gates_evaluated] telemetry counter). *)
val take_evaluated : t -> int

(** {1 Fault-free scalar sweep} *)

(** [eval_code ~kinds ~flat ~off gb g ~forced ~forced_code]: the code
    ([0] X, [1] known 0, [2] known 1) of combinational gate [g] over the
    fanin codes in [gb], with the arrays of a {!Sched.t}.  The fanin at
    flat index [forced] (into [flat]) reads [forced_code] instead; [-1]
    forces nothing.  The one scalar 3-valued gate body: {!good_cycle} and
    PODEM's implication evaluate through it. *)
val eval_code :
  kinds:Asc_netlist.Gate.kind array ->
  flat:int array ->
  off:int array ->
  Bytes.t ->
  int ->
  forced:int ->
  forced_code:int ->
  int

(** [good_cycle t ~pis ~state ~gb] evaluates one fault-free cycle from the
    flip-flop codes [state] into the row [gb] (one code per gate). *)
val good_cycle : t -> pis:bool array -> state:Bytes.t -> gb:Bytes.t -> unit

(** [good_capture t ~gb ~state] clocks the row's next state into [state]. *)
val good_capture : t -> gb:Bytes.t -> state:Bytes.t -> unit

(** {!good_cycle} then {!good_capture}, through a scratch row. *)
val good_step : t -> pis:bool array -> state:Bytes.t -> unit

(** The good rows of a whole sequence; advances [state] to the final
    state. *)
val good_trace : t -> state:Bytes.t -> seq:bool array array -> Bytes.t array
