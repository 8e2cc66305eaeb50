(** Directed sequential test-sequence generation — the PROPTEST-style
    substitute for the paper's T0 sources ([10], [12]).

    Grows the sequence by candidate segments evaluated with incremental
    3-valued fault co-simulation from an unknown initial state, keeping
    segments that detect new faults. *)

(** Longest candidate segment (segments start at 8 vectors and double
    when no candidate helps). *)
val max_seg_len : int

type result = {
  seq : bool array array;
  detected : Asc_util.Bitvec.t;
      (** Faults the full sequence detects without scan (unknown initial
          state). *)
}

(** [max_length] (default 1000) caps the sequence length.  [pool]
    parallelises the per-candidate fault co-simulation across domains;
    the generated sequence is identical for any domain count.  [budget]
    (wall-clock, distinct from the length cap) degrades gracefully: once
    fired, growth stops and the sequence committed so far is returned.
    [tel] records a ["tgen:seq"] span plus candidate/commit counters; it
    never affects the sequence. *)
val generate :
  ?pool:Asc_util.Domain_pool.t ->
  ?budget:Asc_util.Budget.t ->
  ?tel:Asc_util.Telemetry.t ->
  ?max_length:int ->
  Asc_netlist.Circuit.t ->
  faults:Asc_fault.Fault.t array ->
  rng:Asc_util.Rng.t ->
  result
