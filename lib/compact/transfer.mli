(** Static compaction with transfer sequences, after [7]: when plain
    combining fails on a pair, search for a short transfer sequence [T_x]
    such that [(SI_i, T_i . T_x . T_j)] preserves coverage — trading
    [L(T_x)] functional cycles for one scan operation ([N_SV] cycles).

    After a plain {!Combine.run} pass, each pair simulates 12 transfer
    candidates of length at most [max 1 (N_SV / 4)] and gives the 2
    closest a full coverage check. *)

type result = {
  tests : Asc_scan.Scan_test.t array;
  combinations : int;  (** Plain combinations accepted. *)
  transfers : int;  (** Transfer-enabled combinations accepted. *)
  transfer_cycles : int;  (** Functional cycles spent on transfers. *)
}

(** [max_pairs] (default 400) bounds the pairs attempted with
    transfers. *)
val run :
  ?max_pairs:int ->
  Asc_netlist.Circuit.t ->
  Asc_scan.Scan_test.t array ->
  faults:Asc_fault.Fault.t array ->
  targets:Asc_util.Bitvec.t ->
  rng:Asc_util.Rng.t ->
  result
