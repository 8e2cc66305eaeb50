(* Supervised multi-worker job execution for [asc serve --workers N].

   The parent (the server's select loop) never runs jobs: it forks N
   worker processes, ships queued jobs to idle workers over pipe-based
   control channels, and folds results back.  Each worker runs the
   existing single-threaded job loop — resolve, execute with the whole
   (worker-private) domain pool, checkpoint — so a job still runs on
   exactly one process with a deterministic pool and reproduces the
   one-shot result bit for bit.

   Process tree and channels, both carrying protocol v1 lines
   (docs/SERVING.md):

     asc serve (parent: accept/select loop, scheduler queues,
       |        persistent result cache — the single writer)
       +-- worker 0   <- job pipe    (parent -> worker: one submit per job)
       |              -> event pipe  (worker -> parent: submit responses,
       |                              pongs as idle heartbeats)
       +-- worker 1   ...
       +-- worker N-1

   Failure semantics (docs/SERVING.md "Process model & failure
   semantics"):
   - A worker crash (chaos kill, OOM, segfault) closes its event pipe;
     the parent sees EOF, reaps the child, requeues the in-flight job
     and schedules a respawn with exponential backoff.
   - Requeues are bounded by a per-job retry budget ([job_retries]
     dispatch attempts): a poison job that crashes every worker it
     touches fails cleanly with a typed [Failed "worker_crash"] result
     instead of crash-looping the fleet.
   - A slot that exhausts its restart budget is retired; when every
     slot is retired the caller degrades to in-process execution.
   - Idle workers pong about once a second; an idle worker silent
     past the staleness threshold is killed and restarted.  Busy
     workers are single-threaded and deliberately do not heartbeat —
     crash detection for them is pipe EOF, a hang is normally bounded
     by the job's own budget deadline, and a busy worker that overruns
     that deadline by more than the staleness threshold (it stopped
     polling entirely: SIGSTOP, livelock below the poll sites) is
     killed the same way an idle-stale one is.

   Chaos points: [worker.fork] fires in the parent before each fork (a
   [Fail] rule models a failed spawn and exercises backoff);
   [supervisor.dispatch] fires in the parent at each dispatch, and a
   [Kill] rule there is translated into SIGKILL of the chosen worker
   after the job is on the wire — a deterministic, parent-side-counted
   stand-in for "the worker crashed mid-job"; [worker.heartbeat] fires
   in a worker before each idle heartbeat ([Kill] crashes an idle
   worker).  Workers inherit the parent's armed chaos handle across
   fork, so in-worker points (pool, checkpoint I/O) re-count from the
   fork-time state in every respawned worker. *)

module J = Asc_util.Json
module Chaos = Asc_util.Chaos
module Telemetry = Asc_util.Telemetry
module Log = Asc_util.Log
module Rng = Asc_util.Rng
module Backoff = Asc_util.Backoff

type worker = {
  w_slot : int;
  mutable w_pid : int;
  mutable w_to : Unix.file_descr;  (* parent -> worker job channel *)
  mutable w_from : Unix.file_descr;  (* worker -> parent event channel *)
  mutable w_rd : Wire.reader;  (* fresh per spawn *)
  mutable w_busy : Scheduler.job option;
  mutable w_alive : bool;
  mutable w_retired : bool;
  mutable w_restarts : int;
  mutable w_restart_at : float;  (* earliest respawn time when dead *)
  mutable w_last_hb : float;
}

(* One finished job as the parent collects it: the worker's counter drain
   folds into the fleet table, and — only when trace stitching is on —
   the worker's spans, as trace events already on the parent's
   timeline. *)
type outcome = {
  o_job : Scheduler.job;
  o_result : Scheduler.result;
  o_counters : (string * int) list;
  o_trace : J.t list;
}

type t = {
  tel : Telemetry.t option;
  chaos : Chaos.t option;
  log : Log.t option;
  trace : bool; (* workers ship their spans with each result *)
  state_dir : string option;
  job_retries : int;
  restart_limit : int;
  backoff_base : float;
  hb_stale : float;
  make_pool : (tel:Telemetry.t -> Asc_util.Domain_pool.t option) option;
  on_child_fork : (unit -> unit) option;
  workers : worker array;
  results : outcome Queue.t;
  rng : Rng.t;  (* respawn-jitter stream; parent-side only *)
  mutable stopping : bool;
}

(* Respawn delays take full jitter — uniform in [0, base * 2^restarts],
   capped at 5 s — so N slots killed by the same event (a chaos schedule,
   an OOM sweep) do not respawn in lockstep and stampede the machine.
   The stream is seeded from the parent pid: deterministic within one
   supervisor, decorrelated across a fleet of servers. *)
let backoff t restarts = Backoff.full_jitter ~cap:5.0 ~rng:t.rng ~base:t.backoff_base restarts

(* --- Worker process ------------------------------------------------------ *)

(* The worker's whole life: read submit requests off [from_parent], run
   them with a worker-private pool, answer each up [to_parent] with its
   submit response plus this worker's telemetry drain under ["counters"]
   (and, when the parent stitches a trace, its spans as trace events
   under ["trace"]), and pong on idle ticks.  EOF from the parent is an
   orderly shutdown; a chaos [Kill] exits 137 like the CLI's kill
   contract; a dead parent pipe exits 0.  Exits use [Unix._exit] so the
   child never flushes channel buffers it inherited from the parent. *)
let worker_main t ~from_parent ~to_parent =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let tel = Telemetry.create () in
  let pool = Option.bind t.make_pool (fun f -> f ~tel) in
  let sched =
    Scheduler.create ?pool ~tel ?chaos:t.chaos ?state_dir:t.state_dir ()
  in
  let send json =
    match Wire.write_line to_parent json with
    | () -> true
    | exception (Unix.Unix_error _ | Sys_error _) -> false
  in
  (* The worker's telemetry origin minus the parent's: both known exactly
     here, so re-based span timestamps lose no precision on the wire. *)
  let shift =
    match t.tel with
    | Some parent_tel -> Telemetry.origin tel -. Telemetry.origin parent_tel
    | None -> 0.0
  in
  let pid = Unix.getpid () in
  let respond ~id result =
    let snap = Telemetry.drain tel in
    let counters =
      List.filter_map
        (fun (k, v) -> if v = 0 then None else Some (k, J.Int v))
        snap.Telemetry.counters
    in
    (* Span buffers ship only when the parent stitches a trace; otherwise
       they are folded away with the drain. *)
    let trace =
      if t.trace && snap.Telemetry.tracks <> [] then
        Telemetry.trace_events ~shift ~pid ~name:"asc worker"
          snap.Telemetry.tracks
      else []
    in
    let response =
      Protocol.submit_response ~id ~cached:false ~want_tset:true result
    in
    send
      (J.Obj
         (Option.value ~default:[] (J.as_obj response)
         @ (("counters", J.Obj counters)
           :: if trace = [] then [] else [ ("trace", J.List trace) ])))
  in
  (* A frame the worker cannot run still draws a failed response that
     carries its id, so the parent's slot never waits forever. *)
  let run_line line =
    let json = J.parse line in
    let id =
      match json with
      | Ok j -> Option.bind (J.member "id" j) J.as_int
      | Error _ -> None
    in
    let failed message = Scheduler.empty_result (Scheduler.Failed message) in
    let result =
      match (Result.bind json Protocol.request_of_json, id) with
      | Ok (Protocol.Submit { spec; _ }), Some id -> (
          match Scheduler.job_of_spec ~id ~source:0 spec with
          | Error message -> failed message
          | Ok job -> Scheduler.execute sched job)
      | Ok _, _ -> failed "a worker runs only submits that carry an id"
      | Error message, _ -> failed message
    in
    respond ~id result
  in
  let rd = Wire.reader () in
  let rec loop () =
    match Unix.select [ from_parent ] [] [] 1.0 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | [], _, _ ->
        (* Idle tick: the heartbeat is a pong.  A chaos [Fail] here models
           a dropped heartbeat (skip the tick); [Kill] crashes the
           worker. *)
        let ok =
          match Chaos.hit t.chaos Chaos.worker_heartbeat with
          | () -> send Protocol.ping_response
          | exception Sys_error _ -> true
        in
        if ok then loop () else Unix._exit 0
    | _ ->
        (* The job channel ended (the parent closed it): shut down. *)
        if not (Wire.read rd from_parent) then Unix._exit 0;
        Wire.drain rd (fun line -> run_line line || Unix._exit 0);
        loop ()
  in
  match loop () with
  | () -> Unix._exit 0
  | exception Chaos.Killed _ -> Unix._exit 137
  | exception _ -> Unix._exit 70

(* --- Parent: spawn / reap / restart ------------------------------------- *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Fork one worker into [w]'s slot.  Raises [Sys_error] when the chaos
   [worker.fork] point injects a spawn failure (the caller backs off and
   retries).  The child closes every inherited parent-side fd — sibling
   pipes via this module, server sockets via [on_child_fork] — so a
   sibling's EOF-based crash detection cannot be masked by a stray
   duplicate descriptor. *)
let spawn t w =
  Chaos.hit t.chaos Chaos.worker_fork;
  let job_r, job_w = Unix.pipe ~cloexec:false () in
  let ev_r, ev_w = Unix.pipe ~cloexec:false () in
  match Unix.fork () with
  | 0 ->
      close_quietly job_w;
      close_quietly ev_r;
      Array.iter
        (fun s ->
          if s.w_alive && s.w_slot <> w.w_slot then begin
            close_quietly s.w_to;
            close_quietly s.w_from
          end)
        t.workers;
      Option.iter (fun f -> f ()) t.on_child_fork;
      worker_main t ~from_parent:job_r ~to_parent:ev_w
  | pid ->
      close_quietly job_r;
      close_quietly ev_w;
      w.w_pid <- pid;
      w.w_to <- job_w;
      w.w_from <- ev_r;
      w.w_rd <- Wire.reader ();
      w.w_alive <- true;
      w.w_busy <- None;
      w.w_last_hb <- Unix.gettimeofday ();
      Log.emit t.log
        (if w.w_restarts = 0 then "worker.start" else "worker.restart")
        ~fields:
          [
            ("slot", J.Int w.w_slot);
            ("pid", J.Int pid);
            ("restarts", J.Int w.w_restarts);
          ]

(* A job whose worker died goes back on the queue — unless it has used
   its retry budget: then it is a poison job (every attempt took a worker
   down) and fails with the typed reason instead of crash-looping. *)
let requeue_or_fail t ~sched job =
  if job.Scheduler.j_attempts >= t.job_retries then begin
    Telemetry.incr t.tel Telemetry.Jobs_failed;
    Queue.push
      {
        o_job = job;
        o_result = Scheduler.empty_result (Scheduler.Failed "worker_crash");
        o_counters = [];
        o_trace = [];
      }
      t.results
  end
  else begin
    Telemetry.incr t.tel Telemetry.Jobs_requeued;
    Log.emit t.log "job.requeued" ~level:Log.Warn ~job:job.Scheduler.j_key
      ~fields:
        [
          ("id", J.Int job.Scheduler.j_id);
          ("attempts", J.Int job.Scheduler.j_attempts);
        ];
    Scheduler.requeue sched job
  end

(* A worker died (pipe EOF, or we killed it for a stale heartbeat): reap
   it, requeue or fail its in-flight job against the retry budget, and
   schedule the slot's respawn with exponential backoff. *)
let handle_death t ~sched w =
  if w.w_alive then begin
    w.w_alive <- false;
    close_quietly w.w_to;
    close_quietly w.w_from;
    (try ignore (Unix.waitpid [] w.w_pid) with Unix.Unix_error _ -> ());
    if not t.stopping then begin
      Telemetry.incr t.tel Telemetry.Worker_crashes;
      Log.emit t.log "worker.crash" ~level:Log.Warn
        ~fields:[ ("slot", J.Int w.w_slot); ("pid", J.Int w.w_pid) ];
      Option.iter
        (fun job ->
          w.w_busy <- None;
          requeue_or_fail t ~sched job)
        w.w_busy;
      w.w_restart_at <- Unix.gettimeofday () +. backoff t w.w_restarts
    end
  end

(* Respawn dead slots whose backoff expired; retire slots out of restart
   budget; kill idle workers whose heartbeat went stale. *)
let pump t ~sched =
  let now = Unix.gettimeofday () in
  Array.iter
    (fun w ->
      if (not w.w_alive) && (not w.w_retired) && now >= w.w_restart_at then begin
        if w.w_restarts >= t.restart_limit then begin
          w.w_retired <- true;
          Log.emit t.log "worker.retired" ~level:Log.Warn
            ~fields:
              [ ("slot", J.Int w.w_slot); ("restarts", J.Int w.w_restarts) ]
        end
        else begin
          w.w_restarts <- w.w_restarts + 1;
          match spawn t w with
          | () -> Telemetry.incr t.tel Telemetry.Worker_restarts
          | exception Sys_error _ -> w.w_restart_at <- now +. backoff t w.w_restarts
        end
      end;
      if w.w_alive && w.w_busy = None && now -. w.w_last_hb > t.hb_stale then begin
        (* An idle worker that stopped heartbeating is wedged: replace
           it. *)
        (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
        handle_death t ~sched w
      end;
      (match w.w_busy with
      | Some job
        when w.w_alive
             && (match job.Scheduler.j_timeout with
                | Some tm ->
                    now -. job.Scheduler.j_dispatched > tm +. t.hb_stale
                | None -> false) ->
          (* A busy worker polls its own budget, so a deadline overrun
             longer than the staleness threshold means the process is
             wedged (SIGSTOPped, livelocked below the poll sites), not
             slow: kill it so the requeue/shed machinery can answer the
             submitter.  Jobs without a timeout keep the old contract —
             crash detection by pipe EOF only. *)
          (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
          handle_death t ~sched w
      | _ -> ()))
    t.workers

(* --- Parent: event channel and dispatch --------------------------------- *)

(* A submit response to the busy job finishes it; a pong (the idle
   heartbeat) only proves liveness, and a stale or duplicate response is
   dropped. *)
let handle_message t w json =
  w.w_last_hb <- Unix.gettimeofday ();
  match w.w_busy with
  | Some job
    when J.member "op" json = Some (J.Str "submit")
         && J.member "id" json = Some (J.Int job.Scheduler.j_id) ->
      w.w_busy <- None;
      let members key f =
        Option.value ~default:[] (Option.bind (J.member key json) f)
      in
      Queue.push
        {
          o_job = job;
          o_result =
            (match Protocol.result_of_response json with
            | Ok result -> result
            | Error message -> Scheduler.empty_result (Scheduler.Failed message));
          o_counters =
            List.filter_map
              (fun (k, v) -> Option.map (fun n -> (k, n)) (J.as_int v))
              (members "counters" J.as_obj);
          o_trace = members "trace" J.as_list;
        }
        t.results
  | _ -> ()

let handle_readable t ~sched fd =
  match
    Array.fold_left
      (fun acc w -> if w.w_alive && w.w_from == fd then Some w else acc)
      None t.workers
  with
  | None -> ()
  | Some w ->
      if Wire.read w.w_rd w.w_from then
        Wire.drain w.w_rd (fun line ->
            Result.iter (handle_message t w) (J.parse line);
            w.w_alive)
      else handle_death t ~sched w

let idle_worker t =
  Array.fold_left
    (fun acc w ->
      match acc with
      | Some _ -> acc
      | None -> if w.w_alive && w.w_busy = None then Some w else None)
    None t.workers

(* Hand queued jobs to idle workers, one job per worker.  The
   [supervisor.dispatch] chaos point fires per dispatch in the parent —
   occurrence counting stays deterministic — and a [Kill] rule there
   SIGKILLs the chosen worker right after the job is on the wire,
   modelling a crash mid-job (the requeue/restart machinery takes over
   via pipe EOF). *)
let dispatch t ~sched =
  let rec go () =
    match idle_worker t with
    | None -> ()
    | Some w -> (
        match Scheduler.pick sched with
        | None -> ()
        | Some job -> (
            job.Scheduler.j_attempts <- job.Scheduler.j_attempts + 1;
            let kill_after =
              match Chaos.hit t.chaos Chaos.supervisor_dispatch with
              | () -> false
              | exception Chaos.Killed _ -> true
              | exception Sys_error _ -> false (* transient: dispatch anyway *)
            in
            let submit =
              Protocol.Submit
                {
                  spec = job.Scheduler.j_spec;
                  want_tset = true;
                  client_id = Some job.Scheduler.j_id;
                }
            in
            match Wire.write_line w.w_to (Protocol.request_to_json submit) with
            | () ->
                w.w_busy <- Some job;
                Log.emit t.log "job.dispatched" ~job:job.Scheduler.j_key
                  ~fields:
                    [
                      ("id", J.Int job.Scheduler.j_id);
                      ("worker", J.Int w.w_slot);
                      ("pid", J.Int w.w_pid);
                    ];
                if kill_after then
                  (try Unix.kill w.w_pid Sys.sigkill
                   with Unix.Unix_error _ -> ());
                go ()
            | exception (Unix.Unix_error _ | Sys_error _) ->
                (* The worker died between selection and send: requeue
                   against the budget and let pump respawn the slot. *)
                handle_death t ~sched w;
                requeue_or_fail t ~sched job;
                go ()))
  in
  go ()

(* --- Lifecycle and queries ---------------------------------------------- *)

let create ?tel ?chaos ?log ?(trace = false) ?state_dir ?(job_retries = 3)
    ?(restart_limit = 5) ?(backoff_base = 0.05) ?(hb_stale = 30.0) ?make_pool
    ?on_child_fork ~workers () =
  if workers < 1 then invalid_arg "Supervisor.create: workers must be >= 1";
  if job_retries < 1 then invalid_arg "Supervisor.create: job_retries must be >= 1";
  let t =
    {
      tel;
      chaos;
      log;
      trace;
      state_dir;
      job_retries;
      restart_limit;
      backoff_base;
      hb_stale;
      make_pool;
      on_child_fork;
      workers =
        Array.init workers (fun slot ->
            {
              w_slot = slot;
              w_pid = -1;
              w_to = Unix.stdin;
              w_from = Unix.stdin;
              w_rd = Wire.reader ();
              w_busy = None;
              w_alive = false;
              w_retired = false;
              w_restarts = 0;
              w_restart_at = 0.0;
              w_last_hb = 0.0;
            });
      results = Queue.create ();
      rng = Rng.of_name ~seed:(Unix.getpid ()) "supervisor/backoff";
      stopping = false;
    }
  in
  Array.iter
    (fun w ->
      match spawn t w with
      | () -> ()
      | exception Sys_error _ ->
          (* Initial spawn failed (chaos worker.fork): leave the slot
             dead; pump retries it on the restart budget. *)
          w.w_restart_at <- Unix.gettimeofday () +. backoff t 0)
    t.workers;
  t

let fds t =
  Array.fold_left
    (fun acc w -> if w.w_alive then w.w_from :: acc else acc)
    [] t.workers

let take_results t =
  let out = ref [] in
  while not (Queue.is_empty t.results) do
    out := Queue.pop t.results :: !out
  done;
  List.rev !out

let busy_count t =
  Array.fold_left
    (fun acc w -> if w.w_alive && w.w_busy <> None then acc + 1 else acc)
    0 t.workers

let live_count t =
  Array.fold_left (fun acc w -> acc + if w.w_alive then 1 else 0) 0 t.workers

let all_retired t = Array.for_all (fun w -> w.w_retired) t.workers

let stop t =
  t.stopping <- true;
  Array.iter
    (fun w ->
      if w.w_alive then begin
        w.w_alive <- false;
        (* Closing the job channel is the shutdown signal: the worker
           sees EOF on its next loop turn and exits 0. *)
        close_quietly w.w_to;
        close_quietly w.w_from;
        (try ignore (Unix.waitpid [] w.w_pid) with Unix.Unix_error _ -> ())
      end)
    t.workers
