(** Dynamic compaction baseline in the spirit of [2], [3]: after each
    scan-in, keep applying functional vectors (constrained PODEM from the
    captured state) while they detect new faults; scan out when extension
    stops paying.  An approximation — see DESIGN.md — used for Table 3's
    [2,3] column. *)

type result = {
  tests : Asc_scan.Scan_test.t array;
  detected : Asc_util.Bitvec.t;
  unresolved : Asc_util.Bitvec.t;
      (** Targets PODEM could not classify or detect; disjoint from
          [detected]. *)
}

val run :
  Asc_netlist.Circuit.t ->
  faults:Asc_fault.Fault.t array ->
  targets:Asc_util.Bitvec.t ->
  rng:Asc_util.Rng.t ->
  result
