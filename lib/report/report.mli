(** Regeneration of the paper's Tables 1–5 (plus the at-speed extension
    table) from per-circuit experiment runs. *)

type run = Asc_core.Experiments.circuit_run

val table1 : run list -> Asc_util.Table.t
val table2 : run list -> Asc_util.Table.t

(** Totals exclude s35932, matching the paper's footnote. *)
val table3 : run list -> Asc_util.Table.t

val table4 : run list -> Asc_util.Table.t
val table5 : run list -> Asc_util.Table.t

(** Extension: transition-fault coverage of the final test sets,
    simulated on [pool] with [tel]'s spans and counters
    ({!Asc_tfault.Tfault.coverage}). *)
val table_at_speed :
  ?pool:Asc_util.Domain_pool.t ->
  ?tel:Asc_util.Telemetry.t ->
  run list ->
  Asc_util.Table.t

val all_tables :
  ?pool:Asc_util.Domain_pool.t ->
  ?tel:Asc_util.Telemetry.t ->
  ?with_at_speed:bool ->
  run list ->
  Asc_util.Table.t list

val render_all :
  ?pool:Asc_util.Domain_pool.t ->
  ?tel:Asc_util.Telemetry.t ->
  ?with_at_speed:bool ->
  run list ->
  string
