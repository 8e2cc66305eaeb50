(* Job scheduling for the serving layer: per-source round-robin queues
   over one shared pool, a content-addressed result cache, and per-job
   checkpoint/resume (docs/SERVING.md). *)

module Bv = Asc_util.Bitvec
module Budget = Asc_util.Budget
module Chaos = Asc_util.Chaos
module Crc = Asc_util.Crc
module Telemetry = Asc_util.Telemetry
module Log = Asc_util.Log
module Json = Asc_util.Json
module Circuit = Asc_netlist.Circuit
module Bench_io = Asc_netlist.Bench_io
module Tset_io = Asc_scan.Tset_io

type spec = {
  sp_circuit : string option;
  sp_netlist : string option;
  sp_seed : int;
  sp_t0 : string;
  sp_timeout : float option;
}

let default_spec =
  { sp_circuit = None; sp_netlist = None; sp_seed = 1; sp_t0 = "directed";
    sp_timeout = None }

type job = {
  j_id : int;
  j_key : string;
  j_source : int;
  j_circuit : Circuit.t;
  j_name : string;
  j_config : Pipeline.config;
  j_timeout : float option;
  j_spec : spec;
  mutable j_attempts : int;
  j_submitted : float; (* Unix.gettimeofday at submission *)
  mutable j_dispatched : float; (* stamped by [pick]; feeds the latency histograms *)
}

type status =
  | Complete
  | Partial of { reason : string; stage : string }
  | Failed of string

type result = {
  r_status : status;
  r_tests : int;
  r_cycles : int;
  r_detected : int;
  r_targets : int;
  r_iterations : int;
  r_tset : string option;
  r_resumed : bool;
}

type submit_outcome =
  | Accepted of job
  | Cached of result
  | Rejected of string
  | Overloaded of { retry_after_ms : int }

(* --- Spec resolution --------------------------------------------------- *)

(* The canonical content of a job: everything that can change the result,
   with the netlist in its canonical rendering so two spellings of the
   same circuit share a cache line.  The key doubles the 32-bit CRC with
   a salted second pass; the checkpoint layer re-validates identity on
   resume, so a key collision can mis-hit only the result cache. *)
let canonical circuit config =
  String.concat "\n"
    [
      "asc-job/1";
      "seed " ^ string_of_int config.Pipeline.seed;
      "t0 " ^ Pipeline.t0_fingerprint config.Pipeline.t0_source;
      Bench_io.to_string circuit;
    ]

let key_of_canonical canon =
  Crc.to_hex (Crc.crc32 canon) ^ Crc.to_hex (Crc.crc32 ("asc\x00" ^ canon))

type resolved = {
  rv_circuit : Circuit.t;
  rv_name : string;
  rv_config : Pipeline.config;
  rv_key : string;
}

let resolve spec =
  let with_circuit circuit name =
    Experiments.config_for ~seed:spec.sp_seed ~t0:spec.sp_t0 name
    |> Result.map (fun config ->
           {
             rv_circuit = circuit;
             rv_name = name;
             rv_config = config;
             rv_key = key_of_canonical (canonical circuit config);
           })
  in
  match (spec.sp_circuit, spec.sp_netlist) with
  | Some _, Some _ ->
      Error "give either a circuit name or an inline netlist, not both"
  | None, None -> Error "a submission needs a circuit name or an inline netlist"
  | Some name, None ->
      if not (Asc_circuits.Registry.mem name) then
        Error (Printf.sprintf "unknown circuit %S" name)
      else
        with_circuit (Asc_circuits.Registry.get ~seed:spec.sp_seed name) name
  | None, Some text -> (
      try
        (* Named [inline], an inline netlist configures like any circuit
           the profile table does not know. *)
        let circuit = Bench_io.parse_string ~name:"inline" text in
        with_circuit circuit (Circuit.name circuit)
      with
      | Bench_io.Parse_error { line; message } ->
          Error (Printf.sprintf "netlist parse error at line %d: %s" line message)
      | Circuit.Structural_error message ->
          Error (Printf.sprintf "netlist structural error: %s" message))

let key_of_spec spec =
  match resolve spec with Ok rv -> Ok rv.rv_key | Error _ as e -> e

(* --- Scheduler state --------------------------------------------------- *)

type t = {
  pool : Asc_util.Domain_pool.t option;
  tel : Telemetry.t option;
  chaos : Chaos.t option;
  log : Log.t option;
  state_dir : string option;
  cache : Result_cache.t;
  queues : (int, job Queue.t) Hashtbl.t;
  redo : job Queue.t;  (* requeued in-flight jobs, served before fresh work *)
  mutable rotation : int list;  (* sources with queued work, service order *)
  mutable next_id : int;
  max_pending : int option;  (* global admission cap; None = unbounded *)
  max_pending_per_source : int option;
  sheds : (job * result) Queue.t;
      (* deadline-expired jobs dropped by [pick], awaiting delivery *)
}

let create ?pool ?tel ?chaos ?log ?state_dir ?max_pending
    ?max_pending_per_source () =
  Option.iter Asc_util.Sealed.mkdir_p state_dir;
  let positive name = function
    | Some n when n < 1 ->
        invalid_arg (Printf.sprintf "Scheduler.create: %s must be >= 1" name)
    | cap -> cap
  in
  {
    pool;
    tel;
    chaos;
    log;
    state_dir;
    cache = Result_cache.create ?dir:state_dir ();
    queues = Hashtbl.create 8;
    redo = Queue.create ();
    rotation = [];
    next_id = 0;
    max_pending = positive "max_pending" max_pending;
    max_pending_per_source =
      positive "max_pending_per_source" max_pending_per_source;
    sheds = Queue.create ();
  }

(* Queue depth, computed from the queues themselves — the redo queue plus
   every per-source FIFO — so it cannot drift from the structures it
   describes. *)
let pending t =
  Hashtbl.fold
    (fun _ q acc -> acc + Queue.length q)
    t.queues
    (Queue.length t.redo)

(* Only Complete results (which always carry a test set) enter the
   cache; Partial and Failed outcomes are recomputed on resubmission. *)
let cache_store t ~key result =
  match (result.r_status, result.r_tset) with
  | Complete, Some tset ->
      Result_cache.store t.cache
        {
          Result_cache.e_key = key;
          e_tests = result.r_tests;
          e_cycles = result.r_cycles;
          e_detected = result.r_detected;
          e_targets = result.r_targets;
          e_iterations = result.r_iterations;
          e_tset = tset;
        }
  | _ -> ()

let result_of_entry (e : Result_cache.entry) =
  {
    r_status = Complete;
    r_tests = e.Result_cache.e_tests;
    r_cycles = e.Result_cache.e_cycles;
    r_detected = e.Result_cache.e_detected;
    r_targets = e.Result_cache.e_targets;
    r_iterations = e.Result_cache.e_iterations;
    r_tset = Some e.Result_cache.e_tset;
    r_resumed = false;
  }

(* Resolve a spec into a runnable job without touching the queue or the
   submission counters — the worker side of the supervised control
   channel, where the parent already accounted for the submission. *)
let job_of_spec ~id ~source spec =
  match resolve spec with
  | Error _ as e -> e
  | Ok rv ->
      let now = Unix.gettimeofday () in
      Ok
        {
          j_id = id;
          j_key = rv.rv_key;
          j_source = source;
          j_circuit = rv.rv_circuit;
          j_name = rv.rv_name;
          j_config = rv.rv_config;
          j_timeout = spec.sp_timeout;
          j_spec = spec;
          j_attempts = 0;
          j_submitted = now;
          j_dispatched = now;
        }

(* Admission control: a submission that would push a queue past its cap
   is refused with a backpressure hint proportional to the backlog —
   100 ms per queued job, capped at 5 s — so a polite client's retry
   schedule stretches with the queue it is waiting on.  Caps are checked
   only for work that would actually occupy the queue: resolution errors
   and cache hits are never overload-rejected. *)
let retry_after_ms t = min 5000 (100 * (pending t + 1))

let admission t ~source =
  let over cap depth =
    match cap with Some c -> depth >= c | None -> false
  in
  let source_depth =
    match Hashtbl.find_opt t.queues source with
    | Some q -> Queue.length q
    | None -> 0
  in
  if over t.max_pending (pending t)
     || over t.max_pending_per_source source_depth
  then Some (retry_after_ms t)
  else None

let submit t ~source spec =
  match resolve spec with
  | Error message ->
      Telemetry.incr t.tel Telemetry.Jobs_failed;
      Log.emit t.log "job.rejected" ~level:Log.Warn
        ~fields:[ ("source", Json.Int source); ("reason", Json.Str message) ];
      Rejected message
  | Ok rv -> (
      match Result_cache.find t.cache rv.rv_key with
      | Some (entry, from_disk) ->
          Telemetry.incr t.tel Telemetry.Jobs_submitted;
          Telemetry.incr t.tel Telemetry.Result_cache_hits;
          if from_disk then
            Telemetry.incr t.tel Telemetry.Result_cache_persisted_hits;
          Log.emit t.log "job.cache_hit" ~job:rv.rv_key
            ~fields:
              [
                ("source", Json.Int source);
                ("store", Json.Str (if from_disk then "disk" else "memory"));
              ];
          Cached (result_of_entry entry)
      | None -> (
      match admission t ~source with
      | Some retry_after_ms ->
          Telemetry.incr t.tel Telemetry.Jobs_rejected_overload;
          Log.emit t.log "job.rejected" ~level:Log.Warn ~job:rv.rv_key
            ~fields:
              [
                ("source", Json.Int source);
                ("reason", Json.Str "overloaded");
                ("retry_after_ms", Json.Int retry_after_ms);
              ];
          Overloaded { retry_after_ms }
      | None ->
          Telemetry.incr t.tel Telemetry.Jobs_submitted;
          Telemetry.incr t.tel Telemetry.Result_cache_misses;
          let job =
            {
              j_id = t.next_id;
              j_key = rv.rv_key;
              j_source = source;
              j_circuit = rv.rv_circuit;
              j_name = rv.rv_name;
              j_config = rv.rv_config;
              j_timeout = spec.sp_timeout;
              j_spec = spec;
              j_attempts = 0;
              j_submitted = Unix.gettimeofday ();
              j_dispatched = 0.0;
            }
          in
          t.next_id <- t.next_id + 1;
          let q =
            match Hashtbl.find_opt t.queues source with
            | Some q -> q
            | None ->
                let q = Queue.create () in
                Hashtbl.replace t.queues source q;
                q
          in
          Queue.push job q;
          if not (List.mem source t.rotation) then
            t.rotation <- t.rotation @ [ source ];
          Log.emit t.log "job.submitted" ~job:job.j_key
            ~fields:
              [
                ("id", Json.Int job.j_id);
                ("source", Json.Int source);
                ("circuit", Json.Str job.j_name);
              ];
          Accepted job))

let empty_result status =
  { r_status = status; r_tests = 0; r_cycles = 0; r_detected = 0; r_targets = 0;
    r_iterations = 0; r_tset = None; r_resumed = false }

(* Pop one job: requeued in-flight jobs first (they already waited their
   turn), then round-robin source order — serve the head source, then
   rotate it to the tail (or retire it if its queue drained).

   Deadline-aware shedding happens here, at the single point every
   queued job must pass through: a job whose submit-side [timeout] has
   already elapsed while it waited is doomed — its budget would fire on
   the first poll — so executing it wastes a whole dispatch slot.  It is
   dropped instead (bumping [Jobs_shed]) with a [Partial] result
   ([reason="deadline"], [stage="queue"]) parked on the shed queue for
   the server to deliver, and picking continues with the next job. *)
let pick t =
  let now = Unix.gettimeofday () in
  let expired job =
    match job.j_timeout with
    | Some tm -> now -. job.j_submitted >= tm
    | None -> false
  in
  let shed job =
    Telemetry.incr t.tel Telemetry.Jobs_shed;
    Telemetry.incr t.tel Telemetry.Jobs_partial;
    Log.emit t.log "job.shed" ~level:Log.Warn ~job:job.j_key
      ~fields:[ ("id", Json.Int job.j_id); ("source", Json.Int job.j_source) ];
    Queue.push
      (job, empty_result (Partial { reason = "deadline"; stage = "queue" }))
      t.sheds
  in
  let stamp job =
    job.j_dispatched <- Unix.gettimeofday ();
    job
  in
  let rec next () =
    if not (Queue.is_empty t.redo) then check (Queue.pop t.redo)
    else
      match t.rotation with
      | [] -> None
      | source :: rest -> (
          match Hashtbl.find_opt t.queues source with
          | None ->
              t.rotation <- rest;
              None
          | Some q ->
              let job = Queue.pop q in
              t.rotation <-
                (if Queue.is_empty q then rest else rest @ [ source ]);
              check job)
  and check job = if expired job then (shed job; next ()) else Some (stamp job)
  in
  next ()

(* Shed (job, result) pairs awaiting delivery, oldest first.  The server
   drains this after every dispatch so a shed job's submitter still gets
   its (partial) answer. *)
let take_shed t =
  let rec drain acc =
    match Queue.take_opt t.sheds with
    | None -> List.rev acc
    | Some pair -> drain (pair :: acc)
  in
  drain []

(* Put a dispatched job back at the head of the line (a worker crashed
   under it).  The caller owns the retry budget. *)
let requeue t job = Queue.push job t.redo

(* --- Job execution ----------------------------------------------------- *)

let ckpt_path t job =
  Option.map
    (fun dir -> Filename.concat dir ("job-" ^ job.j_key ^ ".ckpt"))
    t.state_dir

(* Best-effort removal of a completed job's snapshot and rotated copies. *)
let cleanup_checkpoints path =
  for i = 0 to 4 do
    let f = if i = 0 then path else path ^ "." ^ string_of_int i in
    if Sys.file_exists f then (try Sys.remove f with Sys_error _ -> ())
  done

(* A job's good-machine traces could only be hit again by the same spec,
   and the result cache answers that spec: drop them when the job ends,
   so a long-lived worker carries no stale traces. *)
let execute t job =
  Fun.protect ~finally:Asc_fault.Seq_fsim.clear_trace_cache @@ fun () ->
  let budget = Budget.create ?timeout:job.j_timeout () in
  let config = job.j_config in
  let resumed = ref false in
  try
    Telemetry.span t.tel "serve:job"
      ~args:[ ("circuit", job.j_name); ("key", job.j_key) ]
    @@ fun () ->
    let prepared =
      Pipeline.prepare ?pool:t.pool ~budget ?tel:t.tel ~config job.j_circuit
    in
    let ckpt = ckpt_path t job in
    let resume =
      match ckpt with
      | None -> None
      | Some path -> (
          (* A leftover snapshot from an interrupted (or killed) earlier
             attempt at this same job key resumes it; anything unreadable
             or foreign starts the job from scratch. *)
          try
            let l = Checkpoint.load_latest_valid ?tel:t.tel ?chaos:t.chaos path in
            Checkpoint.validate prepared ~config l.Checkpoint.snapshot;
            resumed := true;
            Telemetry.incr t.tel Telemetry.Jobs_resumed;
            Some l.Checkpoint.snapshot
          with Sys_error _ | Checkpoint.Corrupt _ | Checkpoint.Incompatible _ ->
            None)
    in
    let on_checkpoint =
      Option.map
        (fun path snap ->
          Checkpoint.write_file ?tel:t.tel ?chaos:t.chaos ~keep:2 path snap)
        ckpt
    in
    match
      Pipeline.run_bounded ?pool:t.pool ~budget ?tel:t.tel ~config ?resume
        ?on_checkpoint prepared
    with
    | Pipeline.Complete r ->
        Option.iter cleanup_checkpoints ckpt;
        let result =
          {
            r_status = Complete;
            r_tests = Array.length r.Pipeline.final_tests;
            r_cycles = r.Pipeline.cycles_final;
            r_detected = Bv.count r.Pipeline.final_detected;
            r_targets = Bv.count prepared.Pipeline.targets;
            r_iterations = List.length r.Pipeline.iterations;
            r_tset = Some (Tset_io.to_string job.j_circuit r.Pipeline.final_tests);
            r_resumed = !resumed;
          }
        in
        Telemetry.incr t.tel Telemetry.Jobs_completed;
        result
    | Pipeline.Partial p ->
        Telemetry.incr t.tel Telemetry.Jobs_partial;
        {
          r_status =
            Partial
              {
                reason = Budget.reason_to_string p.Pipeline.p_reason;
                stage = Pipeline.stage_to_string p.Pipeline.p_stage;
              };
          r_tests = Array.length p.Pipeline.p_tests;
          r_cycles = p.Pipeline.p_cycles;
          r_detected = Bv.count p.Pipeline.p_detected;
          r_targets = Bv.count prepared.Pipeline.targets;
          r_iterations = List.length p.Pipeline.p_iterations;
          r_tset = Some (Tset_io.to_string job.j_circuit p.Pipeline.p_tests);
          r_resumed = !resumed;
        }
  with
  | Chaos.Killed _ as e -> raise e
  | Budget.Exhausted reason ->
      (* The budget fired inside [prepare], before any snapshot existed:
         report Partial with nothing usable, mirroring the CLI. *)
      Telemetry.incr t.tel Telemetry.Jobs_partial;
      {
        (empty_result
           (Partial
              { reason = Budget.reason_to_string reason; stage = "prepare" }))
        with r_resumed = !resumed;
      }
  | e ->
      Telemetry.incr t.tel Telemetry.Jobs_failed;
      empty_result (Failed (Printexc.to_string e))

let run_next t =
  match pick t with
  | None -> None
  | Some job ->
      Chaos.hit t.chaos Chaos.serve_dispatch;
      Log.emit t.log "job.dispatched" ~job:job.j_key
        ~fields:
          [ ("id", Json.Int job.j_id); ("worker", Json.Str "in-process") ];
      let result = execute t job in
      cache_store t ~key:job.j_key result;
      Some (job, result)
