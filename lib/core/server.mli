(** The [asc serve] daemon: a single-threaded select loop that accepts
    {!Protocol} requests over a stream socket and drains the
    {!Scheduler}'s queue between socket services (docs/SERVING.md).

    One loop iteration services every readable connection (accepting new
    ones, buffering frames, answering [ping] / [metrics] / [shutdown] and
    enqueuing [submit]s), then dispatches {e one} queued job to
    completion.  Jobs therefore never interleave — each gets the whole
    shared pool — while the socket stays responsive between jobs at job
    granularity.

    Failure contract: a malformed frame gets an error response and the
    connection stays open; an over-long frame (no newline within
    {!Wire.max_frame} bytes) gets an error response and the connection
    is closed; a write failure (client gone) closes the connection and
    the job's result is dropped.  A chaos [Kill] at any armed point
    propagates out of {!serve} like a crash — deliberately: the soak
    test restarts the server and expects checkpointed jobs to resume. *)

type config = {
  listen : Wire.addr;
  state_dir : string option;  (** Enables per-job checkpoint/resume. *)
}

(** [serve ?pool ?tel ?chaos ?on_ready ?workers ?job_retries ?make_pool
    config] runs until a client sends [shutdown].  A shutdown with work
    outstanding enters {e drain mode}: queued and in-flight jobs finish
    first (new submissions are rejected with ["server is draining for
    shutdown"]), then the shutdown response reports how many jobs were
    drained.

    [workers = 0] (default) serves in-process: one job at a time on the
    calling domain with [pool].  [workers > 0] forks a {!Supervisor}
    fleet: the parent must {e not} own a pool (domains do not survive
    fork) — pass [make_pool] instead, which runs in each worker after
    fork.  [job_retries] bounds dispatch attempts per job before a
    worker-crashing job fails with [worker_crash].  When every worker
    slot exhausts its restart budget the server degrades to in-process
    (single-domain, still bit-identical) execution.

    {b Admission control} (docs/SERVING.md "Fleet") — [max_pending] /
    [max_pending_per_source] bound the global and per-source queue
    depths; a submission over either cap is refused with a typed
    [overloaded] reject carrying a [retry_after_ms] backpressure hint
    instead of growing the queue without bound.  Queued jobs whose
    submit-side [timeout] expires before dispatch are {e shed}: answered
    with a [partial] ([reason="deadline"], [stage="queue"]) response
    without occupying a dispatch slot.  The caps surface as gauges
    ([max_pending], [max_pending_per_source]; 0 = unbounded) next to the
    [jobs_shed] / [jobs_rejected_overload] counters.

    [hb_stale] overrides the supervised-mode heartbeat staleness
    threshold in seconds (default 30; the [ASC_HB_STALE] knob exists so
    tests can shrink it) — see {!Supervisor.create}.

    [pool] must carry no budget — job deadlines are per-submission.
    [tel] feeds the [metrics] op; counters are accumulated across
    {!Asc_util.Telemetry.drain} calls — including each worker's drains,
    shipped with its results — so they are cumulative since server
    start.  [on_ready] fires once the socket is bound and listening.

    {b Observability} (docs/OBSERVABILITY.md "Serving metrics") — all of
    it optional, and none of it consulted by any scheduling decision, so
    served results are byte-identical with these on or off.  [log]
    receives structured lifecycle events for every job and worker (see
    {!Asc_util.Log}).  [trace_file] writes one stitched Chrome trace at
    exit: the parent's spans plus, in supervised mode, one process
    track per worker pid (workers ship their span buffers with each
    result, re-based onto the parent's timeline).  [prom_file] keeps a
    Prometheus text-exposition file current (rewritten write-then-rename
    after each delivery batch and at shutdown); a sink failure warns
    once and disables the file, never the server. *)
val serve :
  ?pool:Asc_util.Domain_pool.t ->
  ?tel:Asc_util.Telemetry.t ->
  ?chaos:Asc_util.Chaos.t ->
  ?log:Asc_util.Log.t ->
  ?trace_file:string ->
  ?prom_file:string ->
  ?on_ready:(unit -> unit) ->
  ?workers:int ->
  ?job_retries:int ->
  ?make_pool:(tel:Asc_util.Telemetry.t -> Asc_util.Domain_pool.t option) ->
  ?max_pending:int ->
  ?max_pending_per_source:int ->
  ?hb_stale:float ->
  config ->
  unit
