(** Immutable gate-level sequential circuit.

    Gates carry dense integer ids.  Combinational evaluation is a single
    left-to-right sweep over {!order}; [Input] and [Dff] gates are sources
    (a DFF outputs the current state and its single fanin is the next-state
    signal captured at the clock edge).  Full scan is modelled by treating
    the DFFs, in {!dffs} order, as the scan chain. *)

type t

exception Structural_error of string

(** Construct a circuit and all derived structure (fanouts, topological
    order, levels).  Raises {!Structural_error} on malformed input — arity
    violations, dangling ids, unregistered sources, combinational cycles. *)
val make :
  name:string ->
  kinds:Gate.kind array ->
  fanins:int array array ->
  inputs:int array ->
  outputs:int array ->
  dffs:int array ->
  signal_names:string array ->
  t

val name : t -> string
val n_gates : t -> int
val n_inputs : t -> int
val n_outputs : t -> int
val n_dffs : t -> int

val kind : t -> int -> Gate.kind
val fanins : t -> int -> int array
val fanouts : t -> int -> int array
val signal_name : t -> int -> string

(** Topological level; sources are level 0. *)
val level : t -> int -> int

(** Primary input gate ids, in PI vector order. *)
val inputs : t -> int array

(** Gate ids driving the primary outputs, in PO vector order. *)
val outputs : t -> int array

(** Flip-flop gate ids, in scan-chain order. *)
val dffs : t -> int array

(** Every non-source gate in topological evaluation order. *)
val order : t -> int array

(** {2 Flat levelized schedule}

    CSR-style arrays computed once per netlist and shared read-only by all
    simulation engines.  Callers must not mutate the returned arrays. *)

(** Gate [g]'s fanins are
    [fanin_flat.(fanin_off.(g)) .. fanin_flat.(fanin_off.(g+1) - 1)]. *)
val fanin_flat : t -> int array

val fanin_off : t -> int array

(** Gate [g]'s fanouts, in the same layout as {!fanin_flat}. *)
val fanout_flat : t -> int array

val fanout_off : t -> int array

(** The fanouts without DFF successors (sequential edges), same layout. *)
val comb_fanout_flat : t -> int array

val comb_fanout_off : t -> int array

(** Per-gate kinds and levels, indexed by gate id. *)
val kinds : t -> Gate.kind array

val levels : t -> int array

(** Per DFF index ({!dffs} order): the gate id of its next-state signal. *)
val dff_inputs : t -> int array

(** The non-source gates sorted by (level, id): the levelized evaluation
    schedule.  A gate's combinational fanouts always sit at strictly
    higher levels, so walking levels in ascending order evaluates every
    gate after all its fanins. *)
val level_order : t -> int array

(** [level_off.(l) .. level_off.(l+1) - 1] slices level [l] out of
    {!level_order}; length [max_level + 2]. *)
val level_off : t -> int array

(** Index of a gate in {!inputs}, or [-1]. *)
val pi_index : t -> int -> int

(** Index of a gate in {!dffs}, or [-1]. *)
val dff_index : t -> int -> int

(** The gate id of the next-state signal feeding a flip-flop. *)
val dff_input : t -> int -> int

(** Maximum combinational depth. *)
val max_level : t -> int

(** Find a gate by signal name (linear scan; for tests and tools). *)
val find_signal : t -> string -> int option

val kind_counts : t -> (Gate.kind * int) list
val pp_stats : Format.formatter -> t -> unit
