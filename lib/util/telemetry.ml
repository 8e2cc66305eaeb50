(* Telemetry: span tracing, engine counters, per-domain utilization.

   A handle is threaded through the pipeline exactly like [?pool] and
   [?budget]: created by the top-level driver, passed downward as
   [?tel : t option], never created by library code.  Every operation on
   the disabled handle ([None]) is a single branch on the option — no
   lock, no clock read, no allocation — so instrumented kernels cost
   nothing when telemetry is off, and the instrumentation itself never
   influences results (it only reads the clock and appends to buffers).

   Thread safety follows the pool's ownership rule: each domain writes
   only its own buffer (discovered through domain-local storage and
   registered under the handle's mutex on first use), and [drain] — called
   by the driver when no job is in flight — merges the per-domain buffers
   into one immutable snapshot.

   Spans are named begin/end brackets with optional string arguments,
   recorded per domain at the executing domain's clock; [write_trace]
   exports them in the Chrome trace-event JSON format (one track per
   domain), which Perfetto and chrome://tracing load directly.  Counters
   are plain monotonic integers, merged across domains on drain.

   Granularity guidance for instrumentation sites: bump counters at fault-
   group or chunk granularity (not per simulated cycle) and open spans at
   phase/chunk granularity — the clock reads are the dominant cost. *)

(* --- Counters ----------------------------------------------------------- *)

type counter =
  | Faults_simulated  (** fault lanes swept by a fault-simulation kernel *)
  | Good_cycles  (** fault-free engine evaluations (one per time unit) *)
  | Faulty_cycles  (** faulty-machine engine evaluations (group x cycle) *)
  | Fault_detections  (** detections observed (fault, test) pairs *)
  | Podem_decisions
  | Podem_backtracks
  | Podem_aborts
  | Podem_redundant
  | Podem_tests
  | Budget_polls
  | Checkpoint_writes
  | Checkpoint_write_failures  (** failed checkpoint write attempts *)
  | Checkpoint_recoveries  (** loads that fell back to a rotated copy *)
  | Chaos_injections  (** faults injected by an armed Chaos handle *)
  | Pool_tasks  (** pool tasks claimed (parallel jobs only) *)
  | Tgen_candidates  (** candidate segments scored by a T0 generator *)
  | Tgen_commits  (** candidate segments committed *)
  | Trace_cache_hits  (** good-machine trace cache hits *)
  | Trace_cache_misses  (** good-machine trace cache misses (trace computed) *)
  | Cone_gates_evaluated  (** gates evaluated by the levelized cone kernel *)
  | Jobs_submitted  (** jobs accepted by the serving scheduler *)
  | Jobs_completed  (** served jobs that ran to a Complete result *)
  | Jobs_partial  (** served jobs returned Partial (deadline/cancel) *)
  | Jobs_failed  (** served jobs rejected or failed during execution *)
  | Jobs_resumed  (** served jobs that resumed from a checkpoint *)
  | Result_cache_hits  (** served submissions answered from the result cache *)
  | Result_cache_misses  (** served submissions that had to compute *)
  | Worker_restarts  (** worker processes restarted by the supervisor *)
  | Jobs_requeued  (** in-flight jobs requeued after a worker crash *)
  | Worker_crashes  (** worker exits the supervisor classed as crashes *)
  | Result_cache_persisted_hits
      (** result-cache hits served from the on-disk store *)
  | Log_write_failures
      (** event-log lines dropped because the sink could not be written *)
  | Jobs_shed  (** queued jobs dropped because their deadline already expired *)
  | Jobs_rejected_overload
      (** submissions refused at admission because a queue cap was hit *)
  | Router_failovers  (** router submits re-hashed to the next live shard *)
  | Router_markdowns  (** backends the router marked down after a failure *)
  | Router_markups  (** marked-down backends the router restored to service *)

let counter_index = function
  | Faults_simulated -> 0
  | Good_cycles -> 1
  | Faulty_cycles -> 2
  | Fault_detections -> 3
  | Podem_decisions -> 4
  | Podem_backtracks -> 5
  | Podem_aborts -> 6
  | Podem_redundant -> 7
  | Podem_tests -> 8
  | Budget_polls -> 9
  | Checkpoint_writes -> 10
  | Checkpoint_write_failures -> 11
  | Checkpoint_recoveries -> 12
  | Chaos_injections -> 13
  | Pool_tasks -> 14
  | Tgen_candidates -> 15
  | Tgen_commits -> 16
  | Trace_cache_hits -> 17
  | Trace_cache_misses -> 18
  | Cone_gates_evaluated -> 19
  | Jobs_submitted -> 20
  | Jobs_completed -> 21
  | Jobs_partial -> 22
  | Jobs_failed -> 23
  | Jobs_resumed -> 24
  | Result_cache_hits -> 25
  | Result_cache_misses -> 26
  | Worker_restarts -> 27
  | Jobs_requeued -> 28
  | Worker_crashes -> 29
  | Result_cache_persisted_hits -> 30
  | Log_write_failures -> 31
  | Jobs_shed -> 32
  | Jobs_rejected_overload -> 33
  | Router_failovers -> 34
  | Router_markdowns -> 35
  | Router_markups -> 36

let counter_name = function
  | Faults_simulated -> "faults_simulated"
  | Good_cycles -> "good_cycles"
  | Faulty_cycles -> "faulty_cycles"
  | Fault_detections -> "fault_detections"
  | Podem_decisions -> "podem_decisions"
  | Podem_backtracks -> "podem_backtracks"
  | Podem_aborts -> "podem_aborts"
  | Podem_redundant -> "podem_redundant"
  | Podem_tests -> "podem_tests"
  | Budget_polls -> "budget_polls"
  | Checkpoint_writes -> "checkpoint_writes"
  | Checkpoint_write_failures -> "checkpoint_write_failures"
  | Checkpoint_recoveries -> "checkpoint_recoveries"
  | Chaos_injections -> "chaos_injections"
  | Pool_tasks -> "pool_tasks"
  | Tgen_candidates -> "tgen_candidates"
  | Tgen_commits -> "tgen_commits"
  | Trace_cache_hits -> "trace_cache_hits"
  | Trace_cache_misses -> "trace_cache_misses"
  | Cone_gates_evaluated -> "cone_gates_evaluated"
  | Jobs_submitted -> "jobs_submitted"
  | Jobs_completed -> "jobs_completed"
  | Jobs_partial -> "jobs_partial"
  | Jobs_failed -> "jobs_failed"
  | Jobs_resumed -> "jobs_resumed"
  | Result_cache_hits -> "result_cache_hits"
  | Result_cache_misses -> "result_cache_misses"
  | Worker_restarts -> "worker_restarts"
  | Jobs_requeued -> "jobs_requeued"
  | Worker_crashes -> "worker_crashes"
  | Result_cache_persisted_hits -> "result_cache_persisted_hits"
  | Log_write_failures -> "log_write_failures"
  | Jobs_shed -> "jobs_shed"
  | Jobs_rejected_overload -> "jobs_rejected_overload"
  | Router_failovers -> "router_failovers"
  | Router_markdowns -> "router_markdowns"
  | Router_markups -> "router_markups"

let all_counters =
  [
    Faults_simulated; Good_cycles; Faulty_cycles; Fault_detections;
    Podem_decisions; Podem_backtracks; Podem_aborts; Podem_redundant;
    Podem_tests; Budget_polls; Checkpoint_writes; Checkpoint_write_failures;
    Checkpoint_recoveries; Chaos_injections; Pool_tasks;
    Tgen_candidates; Tgen_commits;
    Trace_cache_hits; Trace_cache_misses; Cone_gates_evaluated;
    Jobs_submitted; Jobs_completed; Jobs_partial; Jobs_failed; Jobs_resumed;
    Result_cache_hits; Result_cache_misses;
    Worker_restarts; Jobs_requeued; Worker_crashes; Result_cache_persisted_hits;
    Log_write_failures;
    Jobs_shed; Jobs_rejected_overload;
    Router_failovers; Router_markdowns; Router_markups;
  ]

let n_counters = List.length all_counters

(* --- Handle and per-domain buffers -------------------------------------- *)

type event =
  | Begin of { name : string; ts : float; args : (string * string) list }
  | End of { name : string; ts : float }

type buffer = {
  dom : int;
  counts : int array; (* indexed by counter_index *)
  mutable events : event list; (* newest first *)
}

type t = {
  uid : int; (* key into each domain's handle->buffer table *)
  origin : float; (* Unix.gettimeofday at creation; event ts are relative *)
  mutex : Mutex.t; (* guards [buffers] registration and drain *)
  mutable buffers : buffer list;
}

let next_uid = Atomic.make 0

(* Domain-local registry: handle uid -> this domain's buffer.  Buffers are
   registered with the handle on first use, so drain sees every domain
   that ever recorded into the handle. *)
let dls : (int, buffer) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4)

let create () =
  {
    uid = Atomic.fetch_and_add next_uid 1;
    origin = Unix.gettimeofday ();
    mutex = Mutex.create ();
    buffers = [];
  }

let buffer t =
  let tbl = Domain.DLS.get dls in
  match Hashtbl.find_opt tbl t.uid with
  | Some b -> b
  | None ->
      let b =
        {
          dom = (Domain.self () :> int);
          counts = Array.make n_counters 0;
          events = [];
        }
      in
      Hashtbl.add tbl t.uid b;
      Mutex.lock t.mutex;
      t.buffers <- b :: t.buffers;
      Mutex.unlock t.mutex;
      b

let now t = Unix.gettimeofday () -. t.origin

let origin t = t.origin

let add tel c n =
  match tel with
  | None -> ()
  | Some t ->
      let b = buffer t in
      let i = counter_index c in
      b.counts.(i) <- b.counts.(i) + n

let incr tel c = add tel c 1

let span tel ?(args = []) name f =
  match tel with
  | None -> f ()
  | Some t ->
      let b = buffer t in
      b.events <- Begin { name; ts = now t; args } :: b.events;
      Fun.protect
        ~finally:(fun () -> b.events <- End { name; ts = now t } :: b.events)
        f

(* The span name Domain_pool gives its task spans; pool_loads keys on it. *)
let pool_task_name = "pool:task"

(* --- Drained snapshots --------------------------------------------------- *)

type track = { dom : int; events : event list (* chronological *) }

type snapshot = {
  duration : float; (* seconds from handle creation to the drain *)
  counters : (string * int) list; (* full catalogue, merged across domains *)
  tracks : track list; (* sorted by domain id *)
}

let drain t =
  let duration = now t in
  Mutex.lock t.mutex;
  let buffers = t.buffers in
  Mutex.unlock t.mutex;
  let totals = Array.make n_counters 0 in
  let tracks =
    List.filter_map
      (fun b ->
        Array.iteri (fun i n -> totals.(i) <- totals.(i) + n) b.counts;
        Array.fill b.counts 0 n_counters 0;
        let events = List.rev b.events in
        b.events <- [];
        if events = [] then None else Some { dom = b.dom; events })
      buffers
  in
  {
    duration;
    counters =
      List.map (fun c -> (counter_name c, totals.(counter_index c))) all_counters;
    tracks = List.sort (fun a b -> compare a.dom b.dom) tracks;
  }

let counter_value snapshot name =
  match List.assoc_opt name snapshot.counters with Some n -> n | None -> 0

(* --- Derived metrics ----------------------------------------------------- *)

type span_record = {
  s_name : string;
  s_dom : int;
  s_begin : float;
  s_end : float;
  s_depth : int; (* nesting depth within its track, 0 = outermost *)
  s_args : (string * string) list;
  s_shadowed : bool; (* an enclosing span on this track has the same name *)
}

(* Pair begin/end events per track with a stack walk.  Unbalanced events
   (an End with an empty stack, or Begins left open at drain time) are
   dropped rather than guessed at. *)
let spans snapshot =
  List.concat_map
    (fun tr ->
      let stack = ref [] in
      let out = ref [] in
      List.iter
        (function
          | Begin { name; ts; args } ->
              let shadowed =
                List.exists (fun (n, _, _, _) -> n = name) !stack
              in
              stack := (name, ts, args, shadowed) :: !stack
          | End { name = _; ts } -> (
              match !stack with
              | [] -> ()
              | (name, t0, args, shadowed) :: rest ->
                  stack := rest;
                  out :=
                    {
                      s_name = name;
                      s_dom = tr.dom;
                      s_begin = t0;
                      s_end = ts;
                      s_depth = List.length rest;
                      s_args = args;
                      s_shadowed = shadowed;
                    }
                    :: !out))
        tr.events;
      List.rev !out)
    snapshot.tracks

(* Every track's begin/end events bracket properly and close by the end of
   the snapshot (spans are closure-scoped, so this only fails if a kernel
   leaked an exception past [Fun.protect]'s re-raise into a raw buffer). *)
let balanced snapshot =
  List.for_all
    (fun tr ->
      let depth = ref 0 in
      let ok = ref true in
      List.iter
        (function
          | Begin _ -> Stdlib.incr depth
          | End _ ->
              Stdlib.decr depth;
              if !depth < 0 then ok := false)
        tr.events;
      !ok && !depth = 0)
    snapshot.tracks

type span_total = { t_name : string; t_seconds : float; t_count : int }

(* Wall seconds and occurrence count per span name.  Spans shadowed by a
   same-named ancestor are excluded, so recursion cannot double-count. *)
let span_totals snapshot =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun s ->
      if not s.s_shadowed then begin
        if not (Hashtbl.mem tbl s.s_name) then order := s.s_name :: !order;
        let tot, n =
          match Hashtbl.find_opt tbl s.s_name with
          | Some x -> x
          | None -> (0.0, 0)
        in
        Hashtbl.replace tbl s.s_name (tot +. (s.s_end -. s.s_begin), n + 1)
      end)
    (spans snapshot);
  List.rev_map
    (fun name ->
      let seconds, count = Hashtbl.find tbl name in
      { t_name = name; t_seconds = seconds; t_count = count })
    !order

let span_seconds snapshot name =
  match List.find_opt (fun t -> t.t_name = name) (span_totals snapshot) with
  | Some t -> t.t_seconds
  | None -> 0.0

type load = {
  l_dom : int;
  l_tasks : int; (* pool tasks claimed by this domain *)
  l_busy : float; (* seconds inside task spans *)
  l_util : float; (* l_busy / parallel-window duration *)
}

(* Per-domain utilization over the parallel window — the interval from the
   first task claim to the last task completion across all domains.  A run
   with no pool (or no parallel job) has no task spans and an empty load
   list. *)
let pool_loads snapshot =
  let tasks =
    List.filter
      (fun s -> s.s_name = pool_task_name && not s.s_shadowed)
      (spans snapshot)
  in
  match tasks with
  | [] -> []
  | first :: _ ->
      let w0 =
        List.fold_left (fun acc s -> min acc s.s_begin) first.s_begin tasks
      in
      let w1 =
        List.fold_left (fun acc s -> max acc s.s_end) first.s_end tasks
      in
      let window = Float.max (w1 -. w0) epsilon_float in
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun s ->
          let n, busy =
            match Hashtbl.find_opt tbl s.s_dom with
            | Some x -> x
            | None -> (0, 0.0)
          in
          Hashtbl.replace tbl s.s_dom (n + 1, busy +. (s.s_end -. s.s_begin)))
        tasks;
      Hashtbl.fold
        (fun dom (n, busy) acc ->
          { l_dom = dom; l_tasks = n; l_busy = busy; l_util = busy /. window }
          :: acc)
        tbl []
      |> List.sort (fun a b -> compare a.l_dom b.l_dom)

(* Imbalance ratio: busiest domain over mean busy seconds.  1.0 is perfect
   balance; 2.0 means the busiest domain carried twice the average.  Empty
   or all-idle load lists report 1.0 (nothing to balance). *)
let imbalance loads =
  match loads with
  | [] -> 1.0
  | _ ->
      let busy = List.map (fun l -> l.l_busy) loads in
      let mean =
        List.fold_left ( +. ) 0.0 busy /. float_of_int (List.length busy)
      in
      if mean <= 0.0 then 1.0
      else List.fold_left Float.max 0.0 busy /. mean

(* --- Chrome trace-event export ------------------------------------------ *)

(* µs, the trace-event time unit. *)
let us ts = ts *. 1e6

(* One process's trace events: its name, one named thread per domain
   track, then every span event with its timestamp moved by [shift]
   seconds (a worker process adds its origin minus the supervisor's, so
   its events land on the supervisor's timeline). *)
let trace_events ?(shift = 0.0) ~pid ~name tracks =
  let process_meta =
    Json.Obj
      [
        ("name", Json.Str "process_name");
        ("ph", Json.Str "M");
        ("pid", Json.Int pid);
        ("args", Json.Obj [ ("name", Json.Str name) ]);
      ]
  in
  let meta =
    List.map
      (fun tr ->
        Json.Obj
          [
            ("name", Json.Str "thread_name");
            ("ph", Json.Str "M");
            ("pid", Json.Int pid);
            ("tid", Json.Int tr.dom);
            ("args", Json.Obj [ ("name", Json.Str (Printf.sprintf "domain %d" tr.dom)) ]);
          ])
      tracks
  in
  let events =
    List.concat_map
      (fun tr ->
        List.map
          (function
            | Begin { name; ts; args } ->
                Json.Obj
                  ([
                     ("name", Json.Str name);
                     ("cat", Json.Str "asc");
                     ("ph", Json.Str "B");
                     ("ts", Json.Float (us (ts +. shift)));
                     ("pid", Json.Int pid);
                     ("tid", Json.Int tr.dom);
                   ]
                  @
                  if args = [] then []
                  else
                    [
                      ( "args",
                        Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) args)
                      );
                    ])
            | End { name; ts } ->
                Json.Obj
                  [
                    ("name", Json.Str name);
                    ("cat", Json.Str "asc");
                    ("ph", Json.Str "E");
                    ("ts", Json.Float (us (ts +. shift)));
                    ("pid", Json.Int pid);
                    ("tid", Json.Int tr.dom);
                  ])
          tr.events)
      tracks
  in
  (process_meta :: meta) @ events

(* One trace document over any number of processes, each rendered by
   [trace_events] on a shared timeline, followed by [events] that other
   processes rendered themselves.  A process that rendered its events in
   several batches named itself and its threads in each: those metadata
   events are kept once. *)
let stitched_trace_json ?(events = []) processes =
  let named = Hashtbl.create 16 in
  let first event =
    let meta = Json.member "ph" event = Some (Json.Str "M") in
    let seen = meta && Hashtbl.mem named event in
    if meta then Hashtbl.replace named event ();
    not seen
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (List.filter first
             (List.concat_map
                (fun (pid, name, tracks) -> trace_events ~pid ~name tracks)
                processes
             @ events)) );
      ("displayTimeUnit", Json.Str "ms");
    ]

let trace_json snapshot = stitched_trace_json [ (1, "asc", snapshot.tracks) ]

let write_trace path snapshot = Json.write_file ~compact:true path (trace_json snapshot)

(* --- Metrics summary (the CLI's --json "metrics" object) ---------------- *)

let phase_names = [ "prepare"; "t0-generation"; "phase1+2"; "phase3"; "phase4" ]

let metrics_json snapshot =
  let totals = span_totals snapshot in
  let phase name =
    match List.find_opt (fun t -> t.t_name = name) totals with
    | Some t -> Some (name, Json.Float t.t_seconds)
    | None -> None
  in
  let loads = pool_loads snapshot in
  Json.Obj
    [
      ("wall_seconds", Json.Float snapshot.duration);
      ("phases", Json.Obj (List.filter_map phase phase_names));
      ( "iterations_seconds",
        match List.find_opt (fun t -> t.t_name = "phase1+2") totals with
        | Some t ->
            Json.Obj
              [ ("seconds", Json.Float t.t_seconds); ("count", Json.Int t.t_count) ]
        | None -> Json.Null );
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) snapshot.counters) );
      ( "domains",
        Json.List
          (List.map
             (fun l ->
               Json.Obj
                 [
                   ("domain", Json.Int l.l_dom);
                   ("tasks", Json.Int l.l_tasks);
                   ("busy_seconds", Json.Float l.l_busy);
                   ("utilization", Json.Float l.l_util);
                 ])
             loads) );
      ("imbalance", Json.Float (imbalance loads));
    ]
