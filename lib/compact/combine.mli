(** Static test compaction by combining tests — the procedure of [4].

    Repeatedly replaces a pair [tau_i, tau_j] with [(SI_i, T_i . T_j)] when
    the test set's coverage of [targets] is preserved, removing one scan
    operation per accepted combination. *)

type result = {
  tests : Asc_scan.Scan_test.t array;
  combinations : int;  (** Accepted combinations. *)
  attempts : int;
      (** Candidate pairs tried, including those a remembered failure
          answers without simulation. *)
}

type config = { max_sweeps : int; max_attempts : int }

val default_config : config

val run :
  ?pool:Asc_util.Domain_pool.t ->
  ?budget:Asc_util.Budget.t ->
  ?tel:Asc_util.Telemetry.t ->
  ?config:config ->
  Asc_netlist.Circuit.t ->
  Asc_scan.Scan_test.t array ->
  faults:Asc_fault.Fault.t array ->
  targets:Asc_util.Bitvec.t ->
  result
