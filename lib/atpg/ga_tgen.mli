(** Genetic sequence generation in the spirit of STRATEGATE [10]:
    population of candidate segments, temporal crossover, bit mutation;
    fitness = new fault detections, tie-broken by newly visited fault-free
    states (the state-traversal pressure).  Slower per committed vector
    than {!Seq_tgen}, better at deep sequential detections. *)

type result = {
  seq : bool array array;
  detected : Asc_util.Bitvec.t;
      (** No-scan (unknown initial state) detections of the sequence. *)
}

(** [max_length] (default 1000) caps the sequence length; each segment
    evolves for [generations] (default 4) generations.  [pool]
    parallelises the per-individual fault co-simulation across domains;
    the generated sequence is identical for any domain count.  [budget]
    (wall-clock) degrades gracefully: once fired, evolution stops and the
    committed prefix is returned.  [tel] records a ["tgen:ga"] span plus
    candidate/commit counters; it never affects the sequence. *)
val generate :
  ?pool:Asc_util.Domain_pool.t ->
  ?budget:Asc_util.Budget.t ->
  ?tel:Asc_util.Telemetry.t ->
  ?max_length:int ->
  ?generations:int ->
  Asc_netlist.Circuit.t ->
  faults:Asc_fault.Fault.t array ->
  rng:Asc_util.Rng.t ->
  result
