(** Levelized schedule and override grouping shared by the difference
    kernels ({!Kernel}, 2-valued, and {!Kernel3}, 3-valued) and by PODEM's
    event-driven implication.  Its arrays are computed once per netlist
    ({!Asc_netlist.Circuit.make}) and shared read-only; {!create} only
    collects them. *)

type t = {
  kinds : Asc_netlist.Gate.kind array;
  flat : int array;  (** fanins, CSR *)
  off : int array;
  coflat : int array;  (** combinational-only fanouts, CSR *)
  cooff : int array;
  level : int array;
  sched : int array;  (** comb gates by ascending level *)
  level_off : int array;  (** [sched] offsets per level *)
  spill_bar : int;  (** queue-evaluated gates per cycle before spilling *)
  dffs : int array;
  dff_din : int array;  (** per DFF index: its next-state signal's gate *)
  outputs : int array;
}

val create : Asc_netlist.Circuit.t -> t

val n_levels : t -> int

(** One empty level bucket per level, sized to the level's population. *)
val buckets : t -> int array array

(** The union of the overrides' lanes. *)
val union_lanes : Override.t list -> int

type grouped = {
  source : Override.t array;  (** output overrides on Input/Dff gates *)
  dff_pin0 : (int * Override.t list) list;  (** DFF index -> D-pin overrides *)
  comb : (int * Override.t list) list;  (** comb gate -> its overrides *)
}

(** Group overrides by attachment point.  Per-gate and per-DFF lists hold
    their overrides in reverse list order, sources in list order; both
    kernels apply them in that order. *)
val group :
  Asc_netlist.Circuit.t -> kinds:Asc_netlist.Gate.kind array -> Override.t list -> grouped
