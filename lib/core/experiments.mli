(** Per-circuit experiment orchestration: everything Tables 1–5 need for
    one benchmark circuit. *)

type circuit_run = {
  name : string;
  prepared : Pipeline.prepared;
  prepare_seconds : float;
      (** Wall-clock spent in {!Pipeline.prepare} (fault collapse + ATPG). *)
  directed : Pipeline.result;  (** Proposed, directed T0 ([10]–[12] columns). *)
  random : Pipeline.result;  (** Proposed, random T0 ("rand" columns). *)
  static_baseline : Baseline_static.result;  (** The [4] columns. *)
  dynamic_baseline : Asc_compact.Dynamic_baseline.result option;
      (** The [2,3] column (optional; slowest baseline). *)
}

(** Clock cycles of a dynamic-baseline test set. *)
val dynamic_cycles :
  Asc_compact.Dynamic_baseline.result -> Asc_netlist.Circuit.t -> int

(** [config_for ~seed ~t0 name] is the configuration of a job on the
    circuit called [name]: T0 flag ["directed"] takes
    {!Asc_circuits.Registry.t0_budget}[ name] (50 for a name the profile
    table does not know, such as an inline or imported netlist's),
    ["random"] a 1,000-vector random sequence; any other flag is an
    [Error] naming it. *)
val config_for :
  seed:int -> t0:string -> string -> (Pipeline.config, string) result

val run_circuit :
  ?pool:Asc_util.Domain_pool.t ->
  ?tel:Asc_util.Telemetry.t ->
  ?seed:int ->
  ?with_dynamic:bool ->
  string ->
  circuit_run
