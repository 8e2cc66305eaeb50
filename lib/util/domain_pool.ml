(* Fixed pool of worker domains with a chunked work queue.

   The fault simulators split their group arrays into contiguous chunks and
   run one chunk per task; tasks are claimed by index from a shared atomic
   counter, so load-imbalanced chunks (early-exit detection makes group
   cost uneven) are absorbed by whichever domain frees up first.  Results
   are indexed by chunk, so callers merge them deterministically regardless
   of execution order.

   Ownership rule: a task must not touch mutable state shared with another
   task — simulation tasks each create their own engine and write only
   their own result slot.  The pool provides the happens-before edges: task
   closures published to workers through the job mutex, task results read
   back by the submitter only after the atomic completion count reaches the
   task total.

   A pool of size 1 spawns no domains and runs everything inline on the
   caller; [default_domains] also collapses to 1 when
   [Domain.recommended_domain_count () = 1].  The [ASC_DOMAINS] environment
   variable overrides the default size (min 1).

   Fail-fast: once a task has raised, or the pool's [budget] has fired,
   remaining unclaimed task indices are skipped — their result slots keep
   whatever the caller initialised them to — and [run] re-raises on the
   submitter as soon as the job drains.  A fired budget surfaces as
   [Budget.Exhausted]. *)

(* One parallel-for invocation. *)
type job = {
  next : int Atomic.t; (* next task index to claim *)
  total : int;
  f : int -> unit;
  completed : int Atomic.t;
  failed : (exn * Printexc.raw_backtrace) option Atomic.t;
}

type t = {
  size : int; (* domains participating, including the submitter *)
  budget : Budget.t; (* polled between tasks; fired => skip + Exhausted *)
  tel : Telemetry.t option; (* task claim/run spans, one track per domain *)
  chaos : Chaos.t option; (* injection points: pool.poll, pool.task *)
  mutable workers : unit Domain.t array;
  mutex : Mutex.t;
  wake : Condition.t; (* job arrival (workers) and job completion (submitter) *)
  mutable job : job option;
  mutable generation : int; (* bumped per job so workers recognise new work *)
  mutable stopped : bool;
  in_task : bool Atomic.t; (* re-entrancy guard: nested runs go sequential *)
}

let env_override () =
  match Sys.getenv_opt "ASC_DOMAINS" with
  | None -> None
  | Some s -> ( match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | _ -> None)

let default_domains () =
  match env_override () with
  | Some n -> n
  | None -> max 1 (Domain.recommended_domain_count ())

(* Claim task indices until the job is drained; the last finisher wakes the
   submitter.  Any exception is kept (first writer wins) and re-raised on
   the submitting domain.  Once [failed] holds an exception — from a task
   or from the pool budget firing — remaining claimed indices are *skipped*
   (their result slots keep the caller's initial value): a poisoned or
   cancelled 1000-task job drains in the time of the tasks already in
   flight, not of all 1000. *)
let drain pool job =
  let continue_ = ref true in
  while !continue_ do
    let i = Atomic.fetch_and_add job.next 1 in
    if i >= job.total then continue_ := false
    else begin
      (if Atomic.get job.failed <> None then ()
       else begin
         Telemetry.incr pool.tel Telemetry.Budget_polls;
         match Budget.status pool.budget with
         | Some reason ->
             ignore
               (Atomic.compare_and_set job.failed None
                  (Some (Budget.Exhausted reason, Printexc.get_callstack 0)))
         | None -> (
             (* Chaos hits stay inside the try: an injected exception is a
                task failure (captured, re-raised on the submitter), never
                a dead worker domain. *)
             try
               Chaos.hit pool.chaos Chaos.pool_poll;
               Telemetry.incr pool.tel Telemetry.Pool_tasks;
               Chaos.hit pool.chaos Chaos.pool_task;
               Telemetry.span pool.tel
                 ~args:[ ("task", string_of_int i) ]
                 Telemetry.pool_task_name
                 (fun () -> job.f i)
             with e ->
               let bt = Printexc.get_raw_backtrace () in
               ignore (Atomic.compare_and_set job.failed None (Some (e, bt))))
       end);
      if Atomic.fetch_and_add job.completed 1 = job.total - 1 then begin
        Mutex.lock pool.mutex;
        Condition.broadcast pool.wake;
        Mutex.unlock pool.mutex
      end
    end
  done

let rec worker_loop pool seen_generation =
  Mutex.lock pool.mutex;
  while (not pool.stopped) && pool.generation = seen_generation do
    Condition.wait pool.wake pool.mutex
  done;
  if pool.stopped then Mutex.unlock pool.mutex
  else begin
    let generation = pool.generation in
    let job = match pool.job with Some j -> j | None -> assert false in
    Mutex.unlock pool.mutex;
    drain pool job;
    worker_loop pool generation
  end

let create ?(budget = Budget.unlimited) ?tel ?chaos ?domains () =
  let size =
    match domains with Some n -> max 1 n | None -> default_domains ()
  in
  let pool =
    {
      size;
      budget;
      tel;
      chaos;
      workers = [||];
      mutex = Mutex.create ();
      wake = Condition.create ();
      job = None;
      generation = 0;
      stopped = false;
      in_task = Atomic.make false;
    }
  in
  if size > 1 then
    pool.workers <- Array.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool 0));
  pool

let size t = t.size

let shutdown t =
  if not t.stopped then begin
    Mutex.lock t.mutex;
    t.stopped <- true;
    Condition.broadcast t.wake;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

let run_sequential n f =
  for i = 0 to n - 1 do
    f i
  done

let run t n f =
  if n > 0 then begin
    Budget.check t.budget;
    if t.size = 1 || t.stopped || n = 1 || not (Atomic.compare_and_set t.in_task false true)
    then
      (* Inline fallback keeps the same cancellation contract as the
         parallel path: poll between tasks, same injection points. *)
      for i = 0 to n - 1 do
        Chaos.hit t.chaos Chaos.pool_poll;
        Budget.check t.budget;
        Chaos.hit t.chaos Chaos.pool_task;
        f i
      done
    else begin
      let job =
        {
          next = Atomic.make 0;
          total = n;
          f;
          completed = Atomic.make 0;
          failed = Atomic.make None;
        }
      in
      Mutex.lock t.mutex;
      t.job <- Some job;
      t.generation <- t.generation + 1;
      Condition.broadcast t.wake;
      Mutex.unlock t.mutex;
      (* The submitter participates instead of blocking. *)
      drain t job;
      Mutex.lock t.mutex;
      while Atomic.get job.completed < n do
        Condition.wait t.wake t.mutex
      done;
      (* [t.job] deliberately keeps the drained job: a late-waking worker
         re-reads it, finds the counter exhausted, and goes back to sleep.
         Clearing it here would race that worker into an invalid state. *)
      Mutex.unlock t.mutex;
      Atomic.set t.in_task false;
      match Atomic.get job.failed with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end
  end

let run_opt pool n f =
  match pool with Some p -> run p n f | None -> run_sequential n f

(* [split n pieces] cuts [0, n) into at most [pieces] contiguous
   [(start, len)] ranges of near-equal length (empty ranges elided). *)
let split ~n ~pieces =
  if n <= 0 then [||]
  else begin
    let pieces = max 1 (min pieces n) in
    let base = n / pieces and extra = n mod pieces in
    Array.init pieces (fun i ->
        let len = base + if i < extra then 1 else 0 in
        let start = (i * base) + min i extra in
        (start, len))
  end

(* Chunk count for splitting [n] independent work items over [pool]:
   oversubscribe so uneven chunks rebalance through the shared counter. *)
let chunk_count pool n = max 1 (min n (4 * match pool with Some p -> p.size | None -> 1))
