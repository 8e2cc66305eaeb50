(** Fixed pool of worker domains with a chunked work queue.

    Callers split independent work into indexed tasks; tasks are claimed
    from a shared atomic counter, so uneven task costs rebalance across
    domains.  Task results must be written to disjoint, task-indexed slots
    — the pool then guarantees the submitter reads them after a
    happens-before edge, and the submitter merges them in index order, so
    results are deterministic regardless of scheduling.

    A pool of size 1 spawns no domains and runs everything inline; nested
    [run] calls from inside a task also degrade to inline execution rather
    than deadlock.

    Fail-fast: once a task raises, or the pool's budget fires, remaining
    unclaimed tasks are {e skipped} (their result slots keep the caller's
    initial values) and the exception is re-raised on the submitter as soon
    as in-flight tasks finish. *)

type t

(** [create ?budget ?domains ()] spawns a pool of [domains] total
    participants (including the submitting domain), so [domains - 1]
    worker domains.  Default: [default_domains ()].

    [budget] (default {!Budget.unlimited}) is polled between tasks by every
    participant; once it fires, {!run} skips the remaining tasks and raises
    {!Budget.Exhausted} on the submitter.  The budget belongs to the
    pool's creator — tasks only ever observe it through this polling.

    [tel] records a {!Telemetry.pool_task_name} span (and a [Pool_tasks]
    count) around every task claimed on a parallel job, on the claiming
    domain's track — the raw material for per-domain utilization.  Inline
    execution (size-1 pools, nested runs) records no task spans: its work
    is attributed to whatever span encloses the submitter.

    [chaos] arms the {!Chaos.pool_poll} and {!Chaos.pool_task} injection
    points, hit once per claimed task (parallel and inline paths alike).
    An injected exception behaves exactly like a task failure: captured,
    remaining tasks skipped, re-raised on the submitter. *)
val create :
  ?budget:Budget.t -> ?tel:Telemetry.t -> ?chaos:Chaos.t -> ?domains:int -> unit -> t

(** Pool size (total participating domains; 1 means fully sequential). *)
val size : t -> int

(** The default pool size: the [ASC_DOMAINS] environment variable when set
    to a positive integer, otherwise [Domain.recommended_domain_count ()]
    (which is 1 on single-core hosts). *)
val default_domains : unit -> int

(** [run t n f] executes [f 0 .. f (n-1)] across the pool and returns when
    the job has drained.  The first task exception (if any) is re-raised on
    the submitting domain; tasks not yet claimed when it was captured are
    skipped.  Raises {!Budget.Exhausted} without claiming any task if the
    pool budget has already fired.  Must not be called concurrently from
    two domains. *)
val run : t -> int -> (int -> unit) -> unit

(** [run_opt pool n f]: [run] through [Some pool], plain sequential loop on
    [None]. *)
val run_opt : t option -> int -> (int -> unit) -> unit

(** Stop and join the worker domains.  Idempotent; subsequent [run] calls
    execute sequentially. *)
val shutdown : t -> unit

(** [split ~n ~pieces] cuts [0, n) into at most [pieces] contiguous
    [(start, len)] ranges of near-equal length. *)
val split : n:int -> pieces:int -> (int * int) array

(** Task count to split [n] independent items into over [pool]: four
    chunks per participating domain, counting [None] as one domain, and
    capped at [n] (at least 1).  So a sweep without a pool still runs in
    up to four chunks, one after another. *)
val chunk_count : t option -> int -> int
