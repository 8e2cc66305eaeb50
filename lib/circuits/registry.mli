(** Name-based access to every circuit the experiments use.

    Covers the synthetic stand-ins of {!Profile.all} plus the embedded
    {!S27}.  Results are memoised per (name, seed), for the 64 most
    recently generated pairs. *)

(** ["s27"] followed by the benchmark names in the paper's table order. *)
val names : string list

val mem : string -> bool

(** [get ?seed name] — raises [Invalid_argument] for unknown names. *)
val get : ?seed:int -> string -> Asc_netlist.Circuit.t

(** Length budget for the directed sequence T0 of this circuit. *)
val t0_budget : string -> int
