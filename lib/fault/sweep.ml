(* The one chunked sweep behind every fault-simulation entry point: the
   chunking (Domain_pool.split into chunk_count pieces), each chunk's
   private engine, the per-item budget poll and stop rule, and the
   per-chunk work accounting live here and nowhere else.  A chunk's
   engine is made inside its task and never leaves it; everything else
   a step reads (circuit, faults, good rows) is shared read-only, and
   every item writes only its own slot. *)

open Asc_util

type work = { mutable lanes : int; mutable cycles : int; mutable hits : int }

let run ?pool ?budget ?tel ?stop ~engine ~evaluated ~init n step =
  let results = Array.make n init in
  let ranges = Domain_pool.split ~n ~pieces:(Domain_pool.chunk_count pool n) in
  let stopped = Atomic.make false in
  Domain_pool.run_opt pool (Array.length ranges) (fun ci ->
      let first, count = ranges.(ci) in
      let k = engine ci in
      let w = { lanes = 0; cycles = 0; hits = 0 } in
      let polls = ref 0 in
      let i = ref first in
      while !i < first + count && not (Atomic.get stopped) do
        (match budget with
        | Some b ->
            Budget.check b;
            incr polls
        | None -> ());
        let r = step k w !i in
        results.(!i) <- r;
        (match stop with Some s when s r -> Atomic.set stopped true | _ -> ());
        incr i
      done;
      Telemetry.add tel Telemetry.Faults_simulated w.lanes;
      Telemetry.add tel Telemetry.Faulty_cycles w.cycles;
      Telemetry.add tel Telemetry.Fault_detections w.hits;
      Telemetry.add tel Telemetry.Budget_polls !polls;
      Telemetry.add tel Telemetry.Cone_gates_evaluated (evaluated k));
  results
