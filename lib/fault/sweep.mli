(** The one chunked sweep behind every fault-simulation entry point.

    A sweep runs a step over the indexed items [0, n) — fault groups,
    pattern groups or single faults.  The items are cut into
    {!Asc_util.Domain_pool.chunk_count} contiguous chunks, one pool task
    each; a chunk runs its items in index order on a private engine,
    polling the budget before each.  Every item writes its own result
    slot, and the caller folds the slots in index order on the
    submitting domain, so results are bit-identical for any domain
    count. *)

(** The work a chunk's steps report, added to the telemetry counters at
    chunk end: [lanes] to [faults_simulated], [cycles] to
    [faulty_cycles], [hits] to [fault_detections]. *)
type work = { mutable lanes : int; mutable cycles : int; mutable hits : int }

(** [run ?pool ?budget ?tel ?stop ~engine ~evaluated ~init n step] calls
    [step k w i] for every item [i], with [k = engine ci] the engine of
    [i]'s chunk [ci] (made inside the chunk's task) and [w] the chunk's
    work, and returns the results by item; an item never run keeps
    [init].

    A given [budget] is polled before every item
    ({!Asc_util.Budget.Exhausted} once fired), and each poll is counted
    in [budget_polls]; without one, nothing is polled or counted.
    Once a result satisfies [stop], no chunk starts another item: at one
    domain every later item keeps [init]; across domains, a chunk
    already running may finish its current item first.  At chunk end
    [tel] gets the chunk's work, its polls and [evaluated k] (added to
    [cone_gates_evaluated]). *)
val run :
  ?pool:Asc_util.Domain_pool.t ->
  ?budget:Asc_util.Budget.t ->
  ?tel:Asc_util.Telemetry.t ->
  ?stop:('r -> bool) ->
  engine:(int -> 'k) ->
  evaluated:('k -> int) ->
  init:'r ->
  int ->
  ('k -> work -> int -> 'r) ->
  'r array
