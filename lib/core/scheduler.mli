(** Job scheduling for the serving layer (docs/SERVING.md).

    A scheduler owns the run-side state of [asc serve]: per-source FIFO
    queues multiplexed round-robin over one shared {!Asc_util.Domain_pool},
    a content-addressed cache of completed results, and per-job
    checkpoint/resume through a state directory.

    {b Fair sharing.}  The pool must never be driven from two domains at
    once, so the scheduler time-multiplexes it at job granularity: each
    {!run_next} dispatches exactly one job, which gets the whole pool to
    itself.  Fairness across clients comes from the dispatch order — one
    job per source in rotation — not from slicing the pool.  Because every
    job runs with the full pool and the pipeline is bit-identical for any
    domain count, a served job reproduces the one-shot [asc run] result
    exactly.

    {b Budgets.}  Each job gets a private {!Asc_util.Budget} created at
    dispatch from its spec's timeout; the shared pool carries {e no}
    budget.  A deadline therefore unwinds only its own job — the pool
    survives and the next dispatch is unaffected.

    {b Caching.}  Submissions are keyed by a content hash of the canonical
    netlist text plus every result-affecting option.  Only [Complete]
    results enter the cache; a [Partial] or failed job is recomputed on
    resubmission (resuming from its checkpoint when one survives). *)

type spec = {
  sp_circuit : string option;  (** Registry name (see [asc list]). *)
  sp_netlist : string option;  (** Inline [.bench] text (exclusive with [sp_circuit]). *)
  sp_seed : int;
  sp_t0 : string;  (** ["directed"] or ["random"]. *)
  sp_timeout : float option;  (** Per-job wall-clock budget, seconds. *)
}

val default_spec : spec

type job = {
  j_id : int;  (** Dense, scheduler-local; echoed in protocol responses. *)
  j_key : string;  (** Content hash; also the checkpoint file stem. *)
  j_source : int;  (** Submitting connection, for round-robin fairness. *)
  j_circuit : Asc_netlist.Circuit.t;
  j_name : string;
  j_config : Pipeline.config;
  j_timeout : float option;
  j_spec : spec;
      (** The original submission, kept so a supervisor can ship the job
          to a worker process verbatim (re-resolving the {e spec}, not
          the canonical netlist, preserves registry-vs-inline budgets). *)
  mutable j_attempts : int;
      (** Dispatch attempts so far — the supervisor's retry budget. *)
  j_submitted : float;  (** [Unix.gettimeofday] at submission. *)
  mutable j_dispatched : float;
      (** Stamped by {!pick}.  With [j_submitted] and the delivery time,
          the server derives the queue-wait / execute / end-to-end
          latency histograms — pure observability, never consulted by
          scheduling decisions. *)
}

type status =
  | Complete
  | Partial of { reason : string; stage : string }
      (** The job's budget fired; the result fields hold the best test set
          found (maps to the CLI's exit-3 contract). *)
  | Failed of string  (** The job raised; no result fields are meaningful. *)

type result = {
  r_status : status;
  r_tests : int;
  r_cycles : int;
  r_detected : int;
  r_targets : int;
  r_iterations : int;
  r_tset : string option;
      (** The test set in {!Asc_scan.Tset_io} format — byte-identical to
          what [asc save-tests] writes for the same inputs. *)
  r_resumed : bool;  (** The run resumed from a checkpoint in the state dir. *)
}

type submit_outcome =
  | Accepted of job  (** Queued; a later {!run_next} will execute it. *)
  | Cached of result  (** Answered from the result cache. *)
  | Rejected of string  (** Spec invalid (bad circuit, bad netlist, bad t0). *)
  | Overloaded of { retry_after_ms : int }
      (** Refused at admission: a queue cap ([max_pending] /
          [max_pending_per_source]) was hit.  [retry_after_ms] is a
          backpressure hint proportional to the backlog (100 ms per
          queued job, capped at 5 s).  Resolution errors and cache hits
          are never overload-rejected — caps apply only to work that
          would occupy the queue. *)

(** A result with the given status and every other field zero/absent. *)
val empty_result : status -> result

type t

(** [create ?pool ?tel ?chaos ?state_dir ()] — the pool is shared by every
    job and must have been created {e without} a budget (job budgets are
    per-dispatch).  [state_dir], when given, enables per-job
    checkpointing: job [k] writes [state_dir/job-<k>.ckpt] (rotated,
    [keep = 2]) at every snapshot boundary, and a resubmission of [k]
    resumes from the newest valid copy.  The directory is created if
    missing.  [chaos] arms the [serve.dispatch] point plus the checkpoint
    I/O points of every job.  The result cache is backed by
    {!Result_cache} files under [state_dir] too, so completed results
    survive restarts.  Only a scheduler that answers submits writes
    them ({!run_next}, or the supervised parent through {!cache_store}):
    supervised workers run {!execute} and own only their per-key job
    checkpoints.

    [log], when given, receives structured lifecycle events
    ([job.submitted] / [job.cache_hit] / [job.rejected] / [job.shed] /
    [job.dispatched]) — see {!Asc_util.Log}.

    [max_pending] / [max_pending_per_source] bound the global and
    per-source queue depths: a submission that would exceed either is
    answered {!Overloaded} instead of queued (admission control —
    docs/SERVING.md "Fleet").  [None] (the default) means unbounded,
    preserving the pre-cap behaviour; both must be [>= 1]. *)
val create :
  ?pool:Asc_util.Domain_pool.t ->
  ?tel:Asc_util.Telemetry.t ->
  ?chaos:Asc_util.Chaos.t ->
  ?log:Asc_util.Log.t ->
  ?state_dir:string ->
  ?max_pending:int ->
  ?max_pending_per_source:int ->
  unit ->
  t

(** The content hash a spec would be cached under.  Raises nothing: specs
    that fail to resolve have no key and [key_of_spec] returns [Error]
    with the same message {!submit} would reject with. *)
val key_of_spec : spec -> (string, string) Stdlib.result

(** [submit t ~source spec] resolves and enqueues a job.  Resolution
    (registry lookup or netlist parse, option validation) happens here, so
    a bad spec is rejected synchronously and never occupies the queue.
    Bumps [Jobs_submitted] for every accepted or cached submission, and
    [Result_cache_hits] / [Result_cache_misses] accordingly; a hit served
    from the on-disk store additionally bumps
    [Result_cache_persisted_hits]. *)
val submit : t -> source:int -> spec -> submit_outcome

(** Jobs queued and not yet dispatched — the redo queue plus every
    per-source FIFO, computed from the queues themselves so the count
    cannot drift. *)
val pending : t -> int

(** {1 Supervisor interface}

    A supervised server splits dispatch from execution: the parent
    {!pick}s jobs and ships their specs to worker processes, workers
    {!job_of_spec} + {!execute} them, and the parent folds results back
    with {!cache_store}.  In-process serving keeps using {!run_next},
    which composes the same pieces. *)

(** Pop the next job — requeued in-flight jobs first, then round-robin
    source order.  [None] when nothing is queued.

    Deadline-aware shedding: a queued job whose submit-side [timeout]
    has already elapsed is dropped instead of dispatched — it could only
    have produced an immediate budget-exhausted partial — and parked on
    the shed queue with a [Partial {reason="deadline"; stage="queue"}]
    result (bumping [Jobs_shed] and [Jobs_partial]); picking continues
    with the next live job.  Drain the drops with {!take_shed}. *)
val pick : t -> job option

(** Deadline-shed (job, result) pairs awaiting delivery, oldest first;
    the queue is emptied.  The server calls this every loop turn so shed
    submitters still receive their partial responses. *)
val take_shed : t -> (job * result) list

(** Put a dispatched job back at the head of the line (its worker
    crashed).  The caller owns the retry budget ([j_attempts]). *)
val requeue : t -> job -> unit

(** Resolve a spec into a runnable job {e without} queueing it or bumping
    the submission counters — the worker side of the control channel,
    where the parent already accounted for the submission.  [id] is the
    parent's job id, echoed so results match up. *)
val job_of_spec : id:int -> source:int -> spec -> (job, string) Stdlib.result

(** Run one job to its outcome on the calling domain (blocking) — the
    execution half of {!run_next}, with identical telemetry, checkpoint
    and chaos behaviour.  It does not cache the result: the process
    that answers the submit does ({!run_next}, {!cache_store}).  Whether
    it returns or raises, the job leaves the shared good-trace cache
    empty ({!Asc_fault.Seq_fsim.clear_trace_cache}). *)
val execute : t -> job -> result

(** Record a finished job's result: [Complete] results (which always
    carry a test set) enter the cache — and its persistent store, when
    enabled; anything else is a no-op.  The supervised parent calls this
    with worker-produced results. *)
val cache_store : t -> key:string -> result -> unit

(** [run_next t] dispatches the next job in round-robin source order and
    runs it to its outcome on the calling domain (blocking).  [None] when
    no job is queued.  Completion bumps [Jobs_completed] / [Jobs_partial]
    / [Jobs_failed]; a checkpoint resume bumps [Jobs_resumed].  A chaos
    [Kill] propagates (the server dies like a crash); every other
    exception is captured as [Failed].  After a [Complete] outcome the
    job's checkpoints are deleted and the result is cached. *)
val run_next : t -> (job * result) option
