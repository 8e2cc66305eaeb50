(* Supervised multi-worker job execution for [asc serve --workers N].

   The parent (the server's select loop) never runs jobs: it forks N
   worker processes, ships queued jobs to idle workers over pipe-based
   control channels, and folds results back.  Each worker runs the
   existing single-threaded job loop — resolve, execute with the whole
   (worker-private) domain pool, checkpoint — so a job still runs on
   exactly one process with a deterministic pool and reproduces the
   one-shot result bit for bit.

   Process tree and channels:

     asc serve (parent: accept/select loop, scheduler queues,
       |        persistent result cache — the single writer)
       +-- worker 0   <- job pipe    (parent -> worker, one JSON line/job)
       |              -> event pipe  (worker -> parent: heartbeats, results)
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
   - Idle workers heartbeat about once a second; an idle worker silent
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
   the worker's span tracks, already re-based onto the parent's
   telemetry timeline, tagged with the worker process that ran them. *)
type outcome = {
  o_job : Scheduler.job;
  o_result : Scheduler.result;
  o_counters : (string * int) list;
  o_worker_pid : int; (* -1 when no worker produced the result *)
  o_worker_slot : int;
  o_tracks : Telemetry.track list;
}

type t = {
  tel : Telemetry.t option;
  chaos : Chaos.t option;
  log : Log.t option;
  trace : bool; (* ship worker span buffers with each result *)
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

(* --- Wire codec (one JSON object per line on each pipe) ----------------- *)

let job_message (job : Scheduler.job) =
  J.Obj
    ([
       ("op", J.Str "job");
       ("id", J.Int job.Scheduler.j_id);
       ("source", J.Int job.Scheduler.j_source);
     ]
    @ Protocol.spec_to_members job.Scheduler.j_spec)

let hb_message = J.Obj [ ("op", J.Str "hb") ]

(* Worker span tracks on the wire: compact per-event objects
   ([{"b":name,"t":ts,"a":{...}}] / [{"e":name,"t":ts}]) under one
   ["spans"] member, with ["dt"] — the worker origin minus the parent
   origin, computed worker-side where both origins are known exactly —
   letting the parent re-base every relative timestamp onto its own
   timeline without shipping absolute epoch floats (which would lose
   sub-millisecond precision to the JSON float format). *)
let spans_to_json ~dt (tracks : Telemetry.track list) =
  let event_json = function
    | Telemetry.Begin { name; ts; args } ->
        J.Obj
          ([ ("b", J.Str name); ("t", J.Float ts) ]
          @
          if args = [] then []
          else [ ("a", J.Obj (List.map (fun (k, v) -> (k, J.Str v)) args)) ])
    | Telemetry.End { name; ts } ->
        J.Obj [ ("e", J.Str name); ("t", J.Float ts) ]
  in
  J.Obj
    [
      ("dt", J.Float dt);
      ( "tracks",
        J.List
          (List.map
             (fun (tr : Telemetry.track) ->
               J.Obj
                 [
                   ("dom", J.Int tr.Telemetry.dom);
                   ("events", J.List (List.map event_json tr.Telemetry.events));
                 ])
             tracks) );
    ]

let spans_of_message json =
  match J.member "spans" json with
  | None -> []
  | Some spans -> (
      let dt =
        Option.value ~default:0.0
          (Option.bind (J.member "dt" spans) J.as_float)
      in
      let event_of = function
        | J.Obj _ as e -> (
            let ts =
              Option.value ~default:0.0 (Option.bind (J.member "t" e) J.as_float)
              +. dt
            in
            match J.member "b" e with
            | Some (J.Str name) ->
                let args =
                  match J.member "a" e with
                  | Some (J.Obj members) ->
                      List.filter_map
                        (fun (k, v) ->
                          Option.map (fun s -> (k, s)) (J.as_str v))
                        members
                  | _ -> []
                in
                Some (Telemetry.Begin { name; ts; args })
            | _ -> (
                match J.member "e" e with
                | Some (J.Str name) -> Some (Telemetry.End { name; ts })
                | _ -> None))
        | _ -> None
      in
      match J.member "tracks" spans with
      | Some (J.List tracks) ->
          List.filter_map
            (function
              | J.Obj _ as tr -> (
                  match (J.member "dom" tr, J.member "events" tr) with
                  | Some (J.Int dom), Some (J.List events) ->
                      Some
                        {
                          Telemetry.dom;
                          events = List.filter_map event_of events;
                        }
                  | _ -> None)
              | _ -> None)
            tracks
      | _ -> [])

let result_message ?spans ~id (r : Scheduler.result) counters =
  let opt_str = function None -> J.Null | Some s -> J.Str s in
  let reason, stage, error =
    match r.Scheduler.r_status with
    | Scheduler.Complete -> (None, None, None)
    | Scheduler.Partial { reason; stage } -> (Some reason, Some stage, None)
    | Scheduler.Failed message -> (None, None, Some message)
  in
  J.Obj
    ([
       ("op", J.Str "result");
       ("id", J.Int id);
       ("status", J.Str (Protocol.status_string r.Scheduler.r_status));
       ("reason", opt_str reason);
       ("stage", opt_str stage);
       ("error", opt_str error);
       ("tests", J.Int r.Scheduler.r_tests);
       ("cycles", J.Int r.Scheduler.r_cycles);
       ("detected", J.Int r.Scheduler.r_detected);
       ("targets", J.Int r.Scheduler.r_targets);
       ("iterations", J.Int r.Scheduler.r_iterations);
       ("resumed", J.Bool r.Scheduler.r_resumed);
       ("tset", opt_str r.Scheduler.r_tset);
       ("counters", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) counters));
     ]
    @ match spans with None -> [] | Some s -> [ ("spans", s) ])

let member_int json key =
  Option.bind (J.member key json) J.as_int

let member_str json key =
  match J.member key json with
  | Some (J.Str s) -> Some s
  | _ -> None

let result_of_message json =
  let i key = Option.value ~default:0 (member_int json key) in
  let status =
    match member_str json "status" with
    | Some "complete" -> Scheduler.Complete
    | Some "partial" ->
        Scheduler.Partial
          {
            reason = Option.value ~default:"" (member_str json "reason");
            stage = Option.value ~default:"" (member_str json "stage");
          }
    | Some "failed" | _ ->
        Scheduler.Failed
          (Option.value ~default:"worker protocol error"
             (member_str json "error"))
  in
  {
    Scheduler.r_status = status;
    r_tests = i "tests";
    r_cycles = i "cycles";
    r_detected = i "detected";
    r_targets = i "targets";
    r_iterations = i "iterations";
    r_tset = member_str json "tset";
    r_resumed =
      (match Option.bind (J.member "resumed" json) J.as_bool with
      | Some b -> b
      | None -> false);
  }

let counters_of_message json =
  match Option.bind (J.member "counters" json) J.as_obj with
  | None -> []
  | Some members ->
      List.filter_map
        (fun (k, v) -> Option.map (fun n -> (k, n)) (J.as_int v))
        members

(* --- Worker process ------------------------------------------------------ *)

(* The worker's whole life: read job lines off [from_parent], run them
   with a worker-private pool, ship each result (with this worker's
   telemetry drain) up [to_parent], and heartbeat on idle ticks.  EOF
   from the parent is an orderly shutdown; a chaos [Kill] exits 137 like
   the CLI's kill contract; a dead parent pipe exits 0.  Exits use
   [Unix._exit] so the child never flushes channel buffers it inherited
   from the parent. *)
let worker_main t ~from_parent ~to_parent =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let tel = Telemetry.create () in
  let pool = Option.bind t.make_pool (fun f -> f ~tel) in
  let sched =
    Scheduler.create ?pool ~tel ?chaos:t.chaos ?state_dir:t.state_dir
      ~persist_results:false ()
  in
  let send json =
    match Wire.write_line to_parent json with
    | () -> true
    | exception (Unix.Unix_error _ | Sys_error _) -> false
  in
  (* The worker's telemetry origin minus the parent's: both known exactly
     here, so re-based span timestamps lose no precision on the wire. *)
  let dt =
    match t.tel with
    | Some parent_tel -> Telemetry.origin tel -. Telemetry.origin parent_tel
    | None -> 0.0
  in
  let drain () =
    let snap = Telemetry.drain tel in
    let counters =
      List.filter (fun (_, v) -> v <> 0) snap.Telemetry.counters
    in
    let spans =
      (* Span buffers are preserved only when the parent stitches traces;
         otherwise they are folded away with the drain as before. *)
      if t.trace && snap.Telemetry.tracks <> [] then
        Some (spans_to_json ~dt snap.Telemetry.tracks)
      else None
    in
    (counters, spans)
  in
  let run_line line =
    match J.parse line with
    | Error _ -> true (* unparseable control frame: drop, stay alive *)
    | Ok json -> (
        let id = Option.value ~default:0 (member_int json "id") in
        let source = Option.value ~default:0 (member_int json "source") in
        let result =
          match Protocol.spec_of_json json with
          | Error message -> Scheduler.empty_result (Scheduler.Failed message)
          | Ok spec -> (
              match Scheduler.job_of_spec ~id ~source spec with
              | Error message ->
                  Scheduler.empty_result (Scheduler.Failed message)
              | Ok job -> Scheduler.execute sched job)
        in
        let counters, spans = drain () in
        send (result_message ?spans ~id result counters))
  in
  let rd = Wire.reader () in
  let rec loop () =
    match Unix.select [ from_parent ] [] [] 1.0 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | [], _, _ ->
        (* Idle tick: heartbeat.  A chaos [Fail] here models a dropped
           heartbeat (skip the tick); [Kill] crashes the worker. *)
        let ok =
          match Chaos.hit t.chaos Chaos.worker_heartbeat with
          | () -> send hb_message
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
        o_worker_pid = -1;
        o_worker_slot = -1;
        o_tracks = [];
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

let handle_message t w json =
  w.w_last_hb <- Unix.gettimeofday ();
  match member_str json "op" with
  | Some "hb" -> ()
  | Some "result" -> (
      match w.w_busy with
      | Some job
        when Some job.Scheduler.j_id = member_int json "id" ->
          w.w_busy <- None;
          Queue.push
            {
              o_job = job;
              o_result = result_of_message json;
              o_counters = counters_of_message json;
              o_worker_pid = w.w_pid;
              o_worker_slot = w.w_slot;
              o_tracks = (if t.trace then spans_of_message json else []);
            }
            t.results
      | _ -> () (* stale or duplicate result: drop *))
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
            match Wire.write_line w.w_to (job_message job) with
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

let worker_pids t =
  Array.fold_left
    (fun acc w -> if w.w_alive then (w.w_slot, w.w_pid) :: acc else acc)
    [] t.workers
  |> List.rev

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
