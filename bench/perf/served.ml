(* Served workloads: closed-loop traffic through the real binaries,
   [asc route] in front of [asc serve --workers W --domains 1], over the
   line protocol.  Load comes from this process alone: one select loop
   over W connections, each sending its next submit only after the
   previous reply arrived. *)

module J = Asc_util.Json
module Tel = Asc_util.Telemetry
module Pipeline = Asc_core.Pipeline
module Stats = Asc_util.Stats
open Workload

(* --- connections --------------------------------------------------------- *)

type conn = { fd : Unix.file_descr; acc : Buffer.t }

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> { fd; acc = Buffer.create 4096 }
  | exception e ->
      Unix.close fd;
      raise e

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write c.fd b off (Bytes.length b - off))
  in
  go 0

let chunk = Bytes.create 65536

(* Read what is available and return the complete lines it finished. *)
let read_lines c =
  let n =
    try Unix.read c.fd chunk 0 (Bytes.length chunk)
    with Unix.Unix_error (Unix.EINTR, _, _) -> -1
  in
  if n = 0 then failwith "server closed the connection";
  if n < 0 then []
  else begin
    Buffer.add_subbytes c.acc chunk 0 n;
    let text = Buffer.contents c.acc in
    match String.rindex_opt text '\n' with
    | None -> []
    | Some last ->
        Buffer.clear c.acc;
        Buffer.add_substring c.acc text (last + 1) (String.length text - last - 1);
        String.split_on_char '\n' (String.sub text 0 last)
  end

let rec read_line c =
  match read_lines c with
  | [] -> read_line c
  | [ line ] -> line
  | _ -> failwith "more than one response to one request"

let request c line =
  send c line;
  read_line c

let request_once path line =
  let c = connect path in
  Fun.protect ~finally:(fun () -> close c) (fun () -> request c line)

let op name = J.to_string ~compact:true (J.Obj [ ("op", J.Str name) ])

let submit_line (circuit, seed) =
  J.to_string ~compact:true
    (J.Obj
       [
         ("op", J.Str "submit");
         ("circuit", J.Str circuit);
         ("seed", J.Int seed);
         ("t0", J.Str "directed");
         ("tset", J.Bool true);
       ])

(* --- the stack ----------------------------------------------------------- *)

type stack = {
  dir : string;
  server : int;
  router : int;
  backend : string;  (** The server's socket. *)
  front : string;  (** The router's socket. *)
  outputs : Unix.file_descr list;  (** Read ends of the two processes' stdout. *)
}

(* The router's own view of its fleet: whether every backend is up. *)
let fleet_up front =
  let j = J.of_string (request_once front (op "metrics")) in
  let gauges = Option.value ~default:[] (Option.bind (J.member "gauges" j) J.as_obj) in
  let gauge k = Option.bind (List.assoc_opt k gauges) J.as_float in
  match (gauge "backends_up", gauge "backends_total") with
  | Some up, Some total -> up >= total
  | _ -> false

(* Socket paths stay relative and short: a Unix socket path is limited
   to about 100 bytes, and the checkout may live anywhere.  Each program
   prints a line once it listens; the stack is up when the router then
   reports its backend up — until its first health probe returns, the
   router rejects submits. *)
let start ~asc ~dir ~workers ~trace_file =
  Proc.mkdir_p dir;
  let log = Filename.concat dir "stack.log" in
  let backend = Filename.concat dir "s.sock" and front = Filename.concat dir "f.sock" in
  let server, server_out =
    Proc.spawn ~log asc
      ([ "serve"; "--socket"; backend; "--workers"; string_of_int workers ]
      @ [ "--domains"; "1"; "--state-dir"; Filename.concat dir "state" ]
      @ match trace_file with Some f -> [ "--trace"; f ] | None -> [])
  in
  Proc.await_line ~what:"asc serve" server_out;
  let router, router_out =
    Proc.spawn ~log asc [ "route"; "--socket"; front; "--backend"; backend ]
  in
  Proc.await_line ~what:"asc route" router_out;
  let deadline = Proc.now () +. 60.0 in
  while not (fleet_up front) do
    if Proc.now () > deadline then failwith "asc route found no live backend in 60 s";
    Unix.sleepf 0.0001
  done;
  { dir; server; router; backend; front; outputs = [ server_out; router_out ] }

let stop st =
  (try ignore (request_once st.front (op "shutdown")) with _ -> ());
  Proc.reap st.router;
  (try ignore (request_once st.backend (op "shutdown")) with _ -> ());
  Proc.reap st.server;
  List.iter Unix.close st.outputs;
  Proc.remove_tree st.dir

let fleet st = st.router :: st.server :: Proc.children st.server

(* --- traffic ------------------------------------------------------------- *)

type spec = string * int
type op = { spec : spec; cold : bool }

(* What one response must be: a complete job whose N_cyc matches the
   formula over its test set, cached exactly when it was a resubmit. *)
let check_response ~cold line =
  match J.parse line with
  | Error e -> Error ("unparseable response: " ^ e)
  | Ok j -> (
      let str k = Option.bind (J.member k j) J.as_str in
      let int k = Option.bind (J.member k j) J.as_int in
      match (J.member "ok" j, str "status", str "tset") with
      | Some (J.Bool true), Some "complete", Some tset -> (
          match Asc_scan.Tset_io.of_string tset with
          | exception Asc_scan.Tset_io.Format_error { message; _ } ->
              Error ("bad test set: " ^ message)
          | _, tests ->
              if J.member "cached" j <> Some (J.Bool (not cold)) then
                Error
                  (if cold then "a first submission was a cache hit"
                   else "a resubmission recomputed")
              else if int "tests" <> Some (Array.length tests) then
                Error "test count differs from the test set"
              else if int "cycles" <> Some (Oneshot.n_cyc_of_tests tests) then
                Error "N_cyc differs from the formula over the test set"
              else Ok tset)
      | _ ->
          let head = if String.length line > 200 then String.sub line 0 200 else line in
          Error ("not complete: " ^ head))

type traffic_state = {
  mutable ops : int;
  mutable failures : int;
  mutable problems : string list;
  mutable latencies : float list;  (** Seconds, every op. *)
  mutable hit_latencies : float list;
  mutable miss_latencies : float list;
  cold_tsets : (spec, string) Hashtbl.t;  (** Test set of the cold response, per spec. *)
  hit_lines : (spec, string) Hashtbl.t;  (** A checked cache-hit response, per spec. *)
  mutable completed : spec list;  (** Specs this stack completed, newest first. *)
  mutable n_completed : int;
}

let new_state () =
  {
    ops = 0;
    failures = 0;
    problems = [];
    latencies = [];
    hit_latencies = [];
    miss_latencies = [];
    cold_tsets = Hashtbl.create 1024;
    hit_lines = Hashtbl.create 64;
    completed = [];
    n_completed = 0;
  }

let problem st msg =
  st.failures <- st.failures + 1;
  if List.length st.problems < 20 then st.problems <- msg :: st.problems

let on_response st op latency line =
  st.ops <- st.ops + 1;
  st.latencies <- latency :: st.latencies;
  let name = Printf.sprintf "%s seed %d" (fst op.spec) (snd op.spec) in
  if op.cold then begin
    st.miss_latencies <- latency :: st.miss_latencies;
    match check_response ~cold:true line with
    | Ok tset ->
        Hashtbl.replace st.cold_tsets op.spec tset;
        st.completed <- op.spec :: st.completed;
        st.n_completed <- st.n_completed + 1
    | Error e -> problem st (name ^ ": " ^ e)
  end
  else begin
    st.hit_latencies <- latency :: st.hit_latencies;
    (* A hit answer repeats byte for byte, so the first one per spec is
       checked in full and the rest are compared with it. *)
    if Hashtbl.find_opt st.hit_lines op.spec <> Some line then
      match check_response ~cold:false line with
      | Ok tset when Some tset = Hashtbl.find_opt st.cold_tsets op.spec ->
          Hashtbl.replace st.hit_lines op.spec line
      | Ok _ -> problem st (name ^ ": cache hit differs from the cold response")
      | Error e -> problem st (name ^ ": " ^ e)
  end

(* Closed loop over [conns]: each connection sends the next op when its
   previous reply has arrived, until [seconds] have passed; then the ops
   in flight finish.  Returns the loop's wall time. *)
let drive st conns ~seconds ~next =
  let start = Proc.now () in
  let inflight = Hashtbl.create 4 in
  let send_next c =
    if Proc.now () -. start < seconds then
      match next () with
      | Some op ->
          send c (submit_line op.spec);
          Hashtbl.replace inflight c.fd (c, op, Proc.now ())
      | None -> ()
  in
  List.iter send_next conns;
  let last = ref (Proc.now ()) in
  while Hashtbl.length inflight > 0 do
    let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) inflight [] in
    let ready =
      match Unix.select fds [] [] 5.0 with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    if ready = [] && Proc.now () -. !last > 60.0 then failwith "no response in 60 s";
    List.iter
      (fun fd ->
        let c, op, sent = Hashtbl.find inflight fd in
        match read_lines c with
        | [] -> ()
        | [ line ] ->
            last := Proc.now ();
            Hashtbl.remove inflight fd;
            on_response st op (!last -. sent) line;
            send_next c
        | _ -> failwith "more than one response to one request")
      ready
  done;
  Proc.now () -. start

(* The op stream of a run (see [Workload.traffic]), drawn from the
   workload seed. *)
let op_stream (s : served) ~seed ~warm st =
  let rng = Asc_util.Rng.of_name ~seed "perf/traffic" in
  let queue = Queue.create () in
  let cycle = ref 0 in
  let next () =
    match s.traffic with
    | Cached _ ->
        Some { spec = warm.(Asc_util.Rng.int rng (Array.length warm)); cold = false }
    | Mixed { cycle = mix; hits_per_cycle } -> (
        if Queue.is_empty queue then begin
          let order =
            List.concat_map
              (fun (c, n) -> List.init n (fun j -> (c, spec_seed ~n ~k:!cycle j)))
              mix
            |> Array.of_list
          in
          Asc_util.Rng.shuffle rng order;
          Array.iter (fun spec -> Queue.add (Some spec) queue) order;
          for _ = 1 to hits_per_cycle do
            Queue.add None queue
          done;
          incr cycle
        end;
        match Queue.pop queue with
        | Some spec -> Some { spec; cold = true }
        | None ->
            let i = Asc_util.Rng.int rng st.n_completed in
            Some { spec = List.nth st.completed i; cold = false })
  in
  next

(* The specs set-up warms.  Besides giving resubmits something to hit
   from the first op on, warming makes set-up long enough to time: a bare
   stack starts in about 2 ms, which drifts by a third with the host's
   load over seconds. *)
let warm_specs (s : served) =
  match s.traffic with
  | Mixed { cycle; _ } -> Array.of_list (List.map (fun (c, _) -> (c, 1)) cycle)
  | Cached { circuits; seeds_per_circuit } ->
      List.init seeds_per_circuit (fun i -> List.map (fun c -> (c, i + 1)) circuits)
      |> List.concat |> Array.of_list

(* Set-up: start the stack, then complete the warm specs through it. *)
let set_up (s : served) ~asc ~dir ~workers ~trace_file st =
  (* Resubmits must name specs this stack completed. *)
  st.completed <- [];
  st.n_completed <- 0;
  let stack = start ~asc ~dir ~workers ~trace_file in
  let warm = warm_specs s in
  let conns = List.init workers (fun _ -> connect stack.front) in
  let pending = ref (Array.to_list warm) in
  let next () =
    match !pending with
    | spec :: rest ->
        pending := rest;
        Some { spec; cold = true }
    | [] -> None
  in
  ignore (drive st conns ~seconds:infinity ~next);
  List.iter close conns;
  (stack, warm)

(* --- server-side measurements ------------------------------------------- *)

(* One answer to the protocol [metrics] op: cumulative counters, latency
   histograms as (count, sum in seconds), and the server's uptime. *)
type snapshot = {
  counters : (string * int) list;
  hist : string -> float * float;
  uptime : float;
}

let fetch_metrics path =
  let j = J.of_string (request_once path (op "metrics")) in
  let obj k = Option.value ~default:[] (Option.bind (J.member k j) J.as_obj) in
  let counters =
    List.map (fun (k, v) -> (k, Option.value ~default:0 (J.as_int v))) (obj "counters")
  in
  let hist name =
    match List.assoc_opt name (obj "histograms") with
    | Some h ->
        let f k = Option.value ~default:0.0 (Option.bind (J.member k h) J.as_float) in
        (f "count", f "sum")
    | None -> (0.0, 0.0)
  in
  let uptime = Option.bind (List.assoc_opt "uptime_seconds" (obj "gauges")) J.as_float in
  { counters; hist; uptime = Option.value ~default:0.0 uptime }

let delta a b name =
  let get s = Option.value ~default:0 (List.assoc_opt name s.counters) in
  get b - get a

(* Mean of a server latency histogram over the ops between [a] and [b],
   in ms, from the exact sum and count. *)
let hist_mean_ms a b name =
  let c0, s0 = a.hist name and c1, s1 = b.hist name in
  Stat.ratio ((s1 -. s0) *. 1000.0) (c1 -. c0)

(* The server's stitched trace, rebuilt as a telemetry snapshot: one track
   per (process, domain).  Returns whether every track brackets properly,
   and the snapshot with only the top-level spans that began at or after
   [after] (seconds on the trace's clock). *)
let trace_snapshot ~after ~counters path =
  let doc = J.of_string (In_channel.with_open_bin path In_channel.input_all) in
  let events =
    Option.value ~default:[] (Option.bind (J.member "traceEvents" doc) J.as_list)
  in
  let tracks = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun e ->
      let str k = Option.bind (J.member k e) J.as_str in
      let int k = Option.value ~default:0 (Option.bind (J.member k e) J.as_int) in
      let ts = Option.bind (J.member "ts" e) J.as_float in
      let ev =
        match (str "ph", str "name", Option.map (fun us -> us /. 1e6) ts) with
        | Some "B", Some name, Some ts -> Some (Tel.Begin { name; ts; args = [] })
        | Some "E", Some name, Some ts -> Some (Tel.End { name; ts })
        | _ -> None
      in
      let key = (int "pid", int "tid") in
      Option.iter
        (fun ev ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt tracks key) in
          if prev = [] then order := key :: !order;
          Hashtbl.replace tracks key (ev :: prev))
        ev)
    events;
  let window evs =
    let depth = ref 0 and keep = ref false in
    List.filter
      (fun ev ->
        (match ev with
        | Tel.Begin { ts; _ } ->
            if !depth = 0 then keep := ts >= after;
            incr depth
        | Tel.End _ -> decr depth);
        !keep)
      evs
  in
  let all =
    List.mapi
      (fun dom key -> { Tel.dom; events = List.rev (Hashtbl.find tracks key) })
      (List.rev !order)
  in
  let snap = { Tel.duration = 0.0; counters; tracks = all } in
  let recent = List.map (fun tr -> { tr with Tel.events = window tr.Tel.events }) all in
  (Tel.balanced snap, { snap with tracks = recent })

(* Median round trip of [n] requests [line_of i] on one connection, ms. *)
let median_rtt_ms path ~n line_of =
  let c = connect path in
  Fun.protect
    ~finally:(fun () -> close c)
    (fun () ->
      Stats.median_f
        (List.init n (fun i ->
             let t = Proc.now () in
             ignore (request c (line_of i));
             (Proc.now () -. t) *. 1000.0)))

(* --- one-shot reference -------------------------------------------------- *)

(* Test sets of [specs] computed in-process, the way [asc run] would;
   runs in a forked child so the bench process stays free of domains. *)
let reference ~domains specs () =
  let pool = Asc_util.Domain_pool.create ~domains () in
  let texts =
    List.map
      (fun (circuit, seed) ->
        let c = Asc_circuits.Registry.get ~seed circuit in
        let config = Workload.config ~seed circuit Directed in
        let prepared = Pipeline.prepare ~pool ~config c in
        match Pipeline.run_bounded ~pool ~config prepared with
        | Pipeline.Complete r ->
            J.Str (Asc_scan.Tset_io.to_string c r.Pipeline.final_tests)
        | Pipeline.Partial _ -> J.Null)
      specs
  in
  Asc_util.Domain_pool.shutdown pool;
  J.List texts

(* The served test sets that must equal a one-shot run. *)
let check_reference st ~domains specs =
  match Proc.in_child (reference ~domains specs) with
  | Error e -> problem st ("one-shot reference: " ^ e)
  | Ok j ->
      let texts = Option.value ~default:[] (J.as_list j) in
      if List.length texts <> List.length specs then
        problem st "one-shot reference: short output"
      else
        List.iter2
          (fun ((c, seed) as spec) text ->
            if Hashtbl.find_opt st.cold_tsets spec <> J.as_str text then
              problem st (Printf.sprintf "%s seed %d: served and one-shot differ" c seed))
          specs texts

(* --- the workload ------------------------------------------------------ *)

let to_ms = List.map (fun s -> s *. 1000.0)

(* The timed loop over [workers] fresh connections to the router; returns
   its wall time and the operations it completed. *)
let loop (s : served) st stack ~seed ~warm ~workers ~seconds =
  let conns = List.init workers (fun _ -> connect stack.front) in
  let ops0 = st.ops in
  st.latencies <- [];
  st.hit_latencies <- [];
  st.miss_latencies <- [];
  let wall =
    Fun.protect
      ~finally:(fun () -> List.iter close conns)
      (fun () -> drive st conns ~seconds ~next:(op_stream s ~seed ~warm st))
  in
  (wall, st.ops - ops0)

let untraced (s : served) st ~asc ~dir ~seed ~domains ~workers ~seconds =
  (* Set up five times and keep the last stack: set-up time is reported
     as a median, so work moved into set-up shows. *)
  let setups = ref [] and kept = ref None in
  for k = 0 to 4 do
    Option.iter (fun (stack, _) -> stop stack) !kept;
    let t = Proc.now () in
    let up = set_up s ~asc ~dir:(dir k) ~workers ~trace_file:None st in
    setups := (Proc.now () -. t) :: !setups;
    kept := Some up
  done;
  let stack, warm = Option.get !kept in
  let pids = fleet stack in
  let cpu () = List.fold_left (fun acc p -> acc +. Proc.cpu_seconds p) 0.0 pids in
  let cpu0 = cpu () in
  let wall, ops = loop s st stack ~seed ~warm ~workers ~seconds in
  let cpu = cpu () -. cpu0 in
  let rss = List.fold_left (fun acc p -> acc +. Proc.peak_rss_mb p) 0.0 pids in
  stop stack;
  (* The first spec of each circuit, and every warm spec. *)
  let first_cold =
    match s.traffic with
    | Cached _ -> []
    | Mixed { cycle; _ } -> List.map (fun (c, n) -> (c, spec_seed ~n ~k:0 0)) cycle
  in
  check_reference st ~domains (first_cold @ Array.to_list warm);
  let lat = to_ms st.latencies in
  (* The latency of the submits that computed a job or, when every submit
     was a cache hit (serve-cached), of all of them.  The median of a mix
     of both classes sits on the edge between their modes and jumps from
     run to run; the traced run reports each class's median. *)
  let job_lat = if st.miss_latencies = [] then lat else to_ms st.miss_latencies in
  [
    ("setup_s", of_samples !setups);
    ("latency_p50_ms", of_samples job_lat);
    ("jobs_per_s", scalar ~n:ops (float_of_int ops /. wall));
    ("cpu_ms_per_job", scalar ~n:ops (cpu *. 1000.0 /. float_of_int ops));
    ("peak_rss_mb", scalar ~n:(List.length pids) rss);
  ]
  @
  match Stat.tail ~p:99.0 lat with
  | Some v -> [ ("latency_p99_ms", scalar ~n:(List.length lat) v) ]
  | None -> []

(* Half the loop on an untraced stack, half on a traced one with the same
   op stream: the ratio of their throughputs is the tracing overhead.  The
   layer metrics come from the traced half. *)
let traced (s : served) st ~asc ~dir ~name ~seed ~domains ~workers ~seconds ~trace_dir =
  let half = seconds /. 2.0 in
  let plain, warm = set_up s ~asc ~dir:(dir 0) ~workers ~trace_file:None st in
  let plain_wall, plain_ops = loop s st plain ~seed ~warm ~workers ~seconds:half in
  stop plain;
  let trace_file = Filename.concat trace_dir (name ^ ".json") in
  let stack, warm =
    set_up s ~asc ~dir:(dir 1) ~workers ~trace_file:(Some trace_file) st
  in
  let before = fetch_metrics stack.backend and rbefore = fetch_metrics stack.front in
  let wall, ops = loop s st stack ~seed ~warm ~workers ~seconds:half in
  let after = fetch_metrics stack.backend and rafter = fetch_metrics stack.front in
  let client_ms = to_ms st.latencies in
  let hits = to_ms st.hit_latencies and misses = to_ms st.miss_latencies in
  let ping = median_rtt_ms stack.backend ~n:1000 (fun _ -> op "ping") in
  let hit i = submit_line warm.(i mod Array.length warm) in
  let direct = median_rtt_ms stack.backend ~n:1000 hit in
  let routed = median_rtt_ms stack.front ~n:1000 hit in
  stop stack;
  let d = delta before after in
  let counters = List.map (fun (k, _) -> (k, d k)) after.counters in
  let balanced, snap = trace_snapshot ~after:before.uptime ~counters trace_file in
  if not balanced then problem st "unbalanced server trace";
  let e2e_ms =
    (snd (after.hist "job_e2e_seconds") -. snd (before.hist "job_e2e_seconds")) *. 1000.0
  in
  let cache_hits = float_of_int (d "result_cache_hits") in
  let cache_misses = float_of_int (d "result_cache_misses") in
  let probe =
    let t0_length = Asc_circuits.Registry.t0_budget s.probe_circuit in
    let circuit = s.probe_circuit in
    match Proc.in_child (Oneshot.probes ~circuit ~seed ~domains ~t0_length) with
    | Ok j -> Oneshot.floats_of j
    | Error e ->
        problem st ("probes: " ^ e);
        []
  in
  let median_or_zero xs = if xs = [] then 0.0 else Stats.median_f xs in
  let rate wall ops = float_of_int ops /. wall in
  let count name = float_of_int (d name) in
  let mean_ms name = hist_mean_ms before after name in
  let overhead_ms = Stats.sum_f client_ms -. e2e_ms in
  List.map
    (fun (k, v) -> (k, scalar ~n:ops v))
    (Oneshot.job_layers ~jobs:(d "jobs_completed") snap
    @ probe
    @ [
        ("protocol.ping_ms", ping);
        ("router.hop_ms", routed -. direct);
        ("scheduler.queue_wait_mean_ms", mean_ms "job_queue_wait_seconds");
        ("server.execute_mean_ms", mean_ms "job_execute_seconds");
        ("server.e2e_mean_ms", mean_ms "job_e2e_seconds");
        ("serving.overhead_mean_ms", Stat.ratio overhead_ms (float_of_int ops));
        ("result_cache.hits", cache_hits);
        ("result_cache.misses", cache_misses);
        ("result_cache.hit_ratio", Stat.ratio cache_hits (cache_hits +. cache_misses));
        ("result_cache.hit_p50_ms", median_or_zero hits);
        ("result_cache.miss_p50_ms", median_or_zero misses);
        ("supervisor.worker_crashes", count "worker_crashes");
        ("supervisor.jobs_requeued", count "jobs_requeued");
        ("router.failovers", float_of_int (delta rbefore rafter "router_failovers"));
        ("scheduler.rejected_overload", count "jobs_rejected_overload");
        ( "telemetry.overhead_frac",
          Stat.ratio (rate plain_wall plain_ops) (rate wall ops) -. 1.0 );
      ])

let run (s : served) ~asc ~name ~seed ~domains ~workers ~seconds ~trace ~trace_dir =
  let st = new_state () in
  let dir k = Printf.sprintf "_perf/%d.%d" (Unix.getpid ()) k in
  let metrics =
    if trace then traced s st ~asc ~dir ~name ~seed ~domains ~workers ~seconds ~trace_dir
    else untraced s st ~asc ~dir ~seed ~domains ~workers ~seconds
  in
  { attempted = st.ops; failed = st.failures; problems = List.rev st.problems; metrics }
