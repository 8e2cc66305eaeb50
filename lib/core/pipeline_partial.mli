(** The proposed procedure extended to partial scan — the paper's stated
    extension, realised.

    Same four phases with partial-scan semantics: unscanned flip-flops are
    X at test start, the scan-out observes scanned flip-flops only, and a
    scan operation costs [N_scanned] cycles.  Complete full-scan coverage
    is generally unreachable; the result reports the partial-scan
    detectable coverage.

    The loops are bounded: at most 4 Phase 1+2 rounds, omission trials
    in halving chunks from 16 vectors under a budget of 120, and at most
    2,000 combining attempts. *)

type result = {
  chain : Asc_scan.Partial.chain;
  tau_seq : Asc_scan.Scan_test.t;
  f_seq : Asc_util.Bitvec.t;
  added : Asc_scan.Scan_test.t array;
  final_tests : Asc_scan.Scan_test.t array;
  final_detected : Asc_util.Bitvec.t;
  cycles_initial : int;
  cycles_final : int;
}

(** [config] (default {!Pipeline.default_config}) gives the seed and the
    T0 source; its scan-out policy is not used (the scan-out time is the
    earliest valid one). *)
val run :
  ?config:Pipeline.config -> Pipeline.prepared -> chain:Asc_scan.Partial.chain -> result
