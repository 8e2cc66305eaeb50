(** Single stuck-at faults on gate outputs (stems) and gate input pins
    (fanout branches; a DFF's pin 0 is its D line). *)

type t = { gate : int; pin : int; stuck : bool }

val output : int -> bool -> t
val input : int -> int -> bool -> t

val equal : t -> t -> bool

(** ["signal/sa0"] or ["signal.in2/sa1"]. *)
val to_string : Asc_netlist.Circuit.t -> t -> string

(** The override injecting the fault into the given lanes. *)
val to_override : t -> lanes:int -> Asc_sim.Override.t

(** The full (uncollapsed) stuck-at universe, deterministic order:
    for each gate, output sa0/sa1 then each input pin sa0/sa1. *)
val universe : Asc_netlist.Circuit.t -> t array
