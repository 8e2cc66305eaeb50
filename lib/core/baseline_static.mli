(** The baseline of [4]: C as length-one scan tests, statically compacted
    by combining (the paper's "[4] init" / "[4] comp" columns).

    The set C itself comes from the shared {!Pipeline.prepare} — build the
    [prepared] record with the same [pool] to parallelise its ATPG too. *)

type result = {
  initial_tests : Asc_scan.Scan_test.t array;
  final_tests : Asc_scan.Scan_test.t array;
  cycles_initial : int;
  cycles_final : int;
  combinations : int;
}

val run : ?pool:Asc_util.Domain_pool.t -> Pipeline.prepared -> result
