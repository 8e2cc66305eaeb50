(* The [asc route] shard router: a protocol-v1 front that fans submits
   across N backend [asc serve] instances (docs/SERVING.md "Fleet:
   routing, sharding and overload").

   Topology:

     clients --- asc route --- shard 0  (asc serve, own cache/state)
                     |  \----- shard 1
                     |   \---- ...
                   (rendezvous hash on the job's content key)

   Routing is by rendezvous (highest-random-weight) hashing of the
   canonical content key — {!Scheduler.key_of_spec}, the same key the
   result cache uses — against each backend's name: every router
   instance agrees on the placement without coordination, and a
   backend's death only re-homes the keys it owned.  Hashing the
   {e content} key (not the client) gives cache locality for free: a
   resubmission of the same job lands on the shard whose result cache
   already holds it.

   Failure semantics: any error on a backend connection — host lookup,
   connect, write, read, EOF — marks the backend {e down} (Router_markdowns),
   fails its in-flight submits over to the next live shard
   (Router_failovers, bounded by a per-request retry budget; safe
   because submission is idempotent under the content-key result
   cache), and starts re-probing it with full-jitter exponential
   backoff; a probe answered by a [ping] pong marks it back {e up}
   (Router_markups).  With no live backend a submit is rejected with a
   typed [no_backend] error rather than queued — the router holds no
   work a dead fleet can't finish.

   The router's chaos points mirror the server's: [router.backend_write]
   (each forwarded request), [router.backend_read] (each backend
   response frame), [router.backend_health] (each health probe) — a
   [Fail] is handled exactly like the corresponding backend failure; a
   [Kill] propagates out of {!run} like a crash.  The client side —
   connections, framing, drain mode — is a {!Wire} front.

   [ping] is answered locally (the router is alive, that's the
   question).  [metrics] aggregates: it polls every live backend over a
   fresh connection, sums [pending] and the counters, merges the
   latency histograms (same bounds by construction), and adds the
   router's own counters plus [backends_up]/[backends_total] gauges.
   [shutdown] drains the router only: in-flight submits finish, new
   ones are rejected, backends stay up (shut shards down directly). *)

module J = Asc_util.Json
module Chaos = Asc_util.Chaos
module Telemetry = Asc_util.Telemetry
module Histogram = Asc_util.Histogram
module Log = Asc_util.Log
module Crc = Asc_util.Crc
module Rng = Asc_util.Rng
module Backoff = Asc_util.Backoff

type config = {
  listen : Wire.addr;
  backends : (string * Wire.addr) list;  (* display name, address *)
  request_retries : int;  (* failover attempts per submit past the first *)
}

let default_request_retries = 3

(* Health cadence: ping live backends about once a second; a probe of a
   down backend that goes unanswered this long has failed. *)
let ping_interval = 1.0
let probe_timeout = 2.0
let probe_backoff_base = 0.1

(* One submit the router has accepted and not yet answered.  [e_rid] is
   the router-assigned correlation id on the backend wire; the client's
   own ["id"] member (if any) is restored on the way back. *)
type entry = {
  e_rid : int;
  e_cid : int;  (* client connection *)
  e_client_id : int option;
  e_key : string;  (* content key — the rendezvous hash input *)
  e_spec : Scheduler.spec;
  e_want_tset : bool;
  mutable e_attempts : int;
  mutable e_tried : string list;  (* backend names tried this cycle *)
}

type backend_state =
  | Down  (* awaiting its next probe *)
  | Probing of float  (* probe sent at t; pong pending *)
  | Up

type backend = {
  b_name : string;
  b_addr : Wire.addr;
  mutable b_state : backend_state;
  mutable b_fd : Unix.file_descr option;
  mutable b_rd : Wire.reader;  (* fresh per connection *)
  b_inflight : (int, entry) Hashtbl.t;  (* router id -> entry *)
  mutable b_fails : int;  (* consecutive failed probes, for backoff *)
  mutable b_next_probe : float;
  mutable b_last_ping : float;
  mutable b_ever_up : bool;  (* first connect is a start, not a mark-up *)
}

type state = {
  cfg : config;
  front : Wire.front;  (* client connections and drain-mode shutdown *)
  tel : Telemetry.t option;
  chaos : Chaos.t option;
  log : Log.t option;
  rng : Rng.t;  (* probe-backoff jitter *)
  started : float;
  backends : backend array;
  cumulative : (string, int) Hashtbl.t;
  mutable next_rid : int;
}

(* --- Rendezvous hashing -------------------------------------------------- *)

(* Highest-random-weight: every router ranks (key, backend) pairs the
   same way, so placement needs no shared state; removing a backend
   re-homes only the keys it won.  CRC-32 is plenty here — the hash
   spreads load, it doesn't defend against an adversary. *)
let weight ~key name = Crc.crc32 (key ^ "\x00" ^ name)

let choose state ~key ~tried =
  Array.fold_left
    (fun best b ->
      if b.b_state <> Up || List.mem b.b_name tried then best
      else
        let w = weight ~key b.b_name in
        match best with
        | Some (bw, _) when bw >= w -> best
        | _ -> Some (w, b))
    None state.backends
  |> Option.map snd

(* --- Backend lifecycle --------------------------------------------------- *)

let write_backend b json =
  match b.b_fd with
  | None -> raise (Sys_error "backend not connected")
  | Some fd -> Wire.write_line fd json

let submit_request entry =
  Protocol.request_to_json
    (Protocol.Submit
       {
         spec = entry.e_spec;
         want_tset = entry.e_want_tset;
         client_id = Some entry.e_rid;
       })

(* Forward one submit to one backend; raises on any write failure. *)
let forward state b entry =
  Chaos.hit state.chaos Chaos.router_backend_write;
  write_backend b (submit_request entry);
  Hashtbl.replace b.b_inflight entry.e_rid entry

let reject state entry ~reason message =
  Wire.reply state.front entry.e_cid
    (Protocol.error_response ~reason ?id:entry.e_client_id message)

(* Dispatch an accepted submit to the shard the content key hashes to,
   failing over to the next live shard on a write error, within the
   request's retry budget.  [e_tried] prevents hammering one half-dead
   backend in a tight loop; once every live backend has been tried the
   cycle resets (a marked-down backend may have come back). *)
let rec dispatch state entry =
  if entry.e_attempts > state.cfg.request_retries then
    reject state entry ~reason:"no_backend"
      (Printf.sprintf "no backend completed the job after %d attempts"
         entry.e_attempts)
  else
    match choose state ~key:entry.e_key ~tried:entry.e_tried with
    | None when entry.e_tried <> [] ->
        entry.e_tried <- [];
        dispatch state entry
    | None ->
        reject state entry ~reason:"no_backend" "no live backend"
    | Some b -> (
        entry.e_attempts <- entry.e_attempts + 1;
        entry.e_tried <- b.b_name :: entry.e_tried;
        match forward state b entry with
        | () -> ()
        | exception (Chaos.Killed _ as e) -> raise e
        | exception (Unix.Unix_error _ | Sys_error _) ->
            mark_down state b;
            Telemetry.incr state.tel Telemetry.Router_failovers;
            dispatch state entry)

(* A backend failed: close it, schedule its next probe with full-jitter
   backoff, and fail every in-flight submit it owned over to the next
   live shard (idempotent: results are keyed by content hash, so a job
   whose first attempt completed server-side is a cache hit on the
   retry). *)
and mark_down state b =
  let was_up = b.b_state = Up in
  b.b_state <- Down;
  Option.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    b.b_fd;
  b.b_fd <- None;
  b.b_fails <- b.b_fails + 1;
  b.b_next_probe <-
    Unix.gettimeofday ()
    +. Backoff.full_jitter ~rng:state.rng ~base:probe_backoff_base b.b_fails;
  if was_up then begin
    Telemetry.incr state.tel Telemetry.Router_markdowns;
    Log.emit state.log "router.backend_down" ~level:Log.Warn
      ~fields:
        [
          ("backend", J.Str b.b_name);
          ("inflight", J.Int (Hashtbl.length b.b_inflight));
        ]
  end;
  let orphans = Hashtbl.fold (fun _ e acc -> e :: acc) b.b_inflight [] in
  Hashtbl.reset b.b_inflight;
  List.iter
    (fun e ->
      Telemetry.incr state.tel Telemetry.Router_failovers;
      Log.emit state.log "router.failover" ~job:e.e_key
        ~fields:
          [ ("backend", J.Str b.b_name); ("attempts", J.Int e.e_attempts) ];
      dispatch state e)
    orphans

let mark_up state b fd =
  b.b_fd <- Some fd;
  b.b_state <- Up;
  b.b_fails <- 0;
  b.b_last_ping <- Unix.gettimeofday ();
  if b.b_ever_up then begin
    Telemetry.incr state.tel Telemetry.Router_markups;
    Log.emit state.log "router.backend_up"
      ~fields:[ ("backend", J.Str b.b_name) ]
  end
  else
    Log.emit state.log "router.backend_start"
      ~fields:[ ("backend", J.Str b.b_name) ];
  b.b_ever_up <- true

(* Probe a down backend: connect and send a ping.  The pong (read off
   the new connection like any backend frame) completes the mark-up;
   silence past [probe_timeout] or any error — a failed host lookup
   included — counts as a failed probe and pushes the next one out on
   the backoff schedule. *)
let probe state b =
  match
    Chaos.hit state.chaos Chaos.router_backend_health;
    let fd = Wire.connect b.b_addr in
    b.b_fd <- Some fd;
    b.b_rd <- Wire.reader ();
    write_backend b (Protocol.request_to_json Protocol.Ping)
  with
  | () -> b.b_state <- Probing (Unix.gettimeofday ())
  | exception (Chaos.Killed _ as e) -> raise e
  | exception (Unix.Unix_error _ | Sys_error _) ->
      Option.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        b.b_fd;
      b.b_fd <- None;
      b.b_fails <- b.b_fails + 1;
      b.b_next_probe <-
        Unix.gettimeofday ()
        +. Backoff.full_jitter ~rng:state.rng ~base:probe_backoff_base
             b.b_fails

(* Once per loop turn: send periodic pings on live backends, launch due
   probes, time out silent ones. *)
let health_tick state =
  let now = Unix.gettimeofday () in
  Array.iter
    (fun b ->
      match b.b_state with
      | Up when now -. b.b_last_ping >= ping_interval -> (
          b.b_last_ping <- now;
          match
            Chaos.hit state.chaos Chaos.router_backend_health;
            write_backend b (Protocol.request_to_json Protocol.Ping)
          with
          | () -> ()
          | exception (Chaos.Killed _ as e) -> raise e
          | exception (Unix.Unix_error _ | Sys_error _) -> mark_down state b)
      | Down when now >= b.b_next_probe -> probe state b
      | Probing sent when now -. sent > probe_timeout ->
          Option.iter
            (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
            b.b_fd;
          b.b_fd <- None;
          b.b_state <- Down;
          b.b_fails <- b.b_fails + 1;
          b.b_next_probe <-
            now
            +. Backoff.full_jitter ~rng:state.rng ~base:probe_backoff_base
                 b.b_fails
      | _ -> ())
    state.backends

(* --- Backend responses --------------------------------------------------- *)

(* A submit (or typed reject) answered by a backend: restore the
   client's view of the ["id"] member — their own correlation id when
   the request carried one, [null] otherwise (the backend's job id is a
   shard-local detail no client can interpret fleet-wide). *)
let relay state b json =
  match Option.bind (J.member "id" json) J.as_int with
  | None -> () (* an anonymous backend error frame; nothing to match *)
  | Some rid -> (
      match Hashtbl.find_opt b.b_inflight rid with
      | None -> () (* stale: the submit already failed over elsewhere *)
      | Some entry ->
          Hashtbl.remove b.b_inflight rid;
          Wire.delivered state.front;
          let rewritten =
            match J.as_obj json with
            | None -> json
            | Some members ->
                J.Obj
                  (List.map
                     (fun (k, v) ->
                       if k = "id" then
                         ( k,
                           match entry.e_client_id with
                           | Some i -> J.Int i
                           | None -> J.Null )
                       else (k, v))
                     members)
          in
          Wire.reply state.front entry.e_cid rewritten)

let handle_backend_frame state b line =
  match J.parse line with
  | Error _ -> () (* a torn backend frame; EOF will follow if it died *)
  | Ok json -> (
      match Option.bind (J.member "op" json) J.as_str with
      | Some "ping" -> (
          match b.b_state with
          | Probing _ -> mark_up state b (Option.get b.b_fd)
          | _ -> () (* periodic pong: the read itself proves liveness *))
      | _ -> relay state b json)

let read_backend state b fd =
  match
    Chaos.hit state.chaos Chaos.router_backend_read;
    Wire.read b.b_rd fd
  with
  | true ->
      Wire.drain b.b_rd (fun line ->
          handle_backend_frame state b line;
          b.b_fd <> None)
  | false | (exception Sys_error _) -> mark_down state b

(* --- Metrics aggregation ------------------------------------------------- *)

let fold_counters state counters =
  List.iter
    (fun (k, v) ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt state.cumulative k) in
      Hashtbl.replace state.cumulative k (prev + v))
    counters

let accumulate state =
  Option.iter
    (fun tel ->
      let snap = Telemetry.drain tel in
      fold_counters state snap.Telemetry.counters)
    state.tel

let aggregate_metrics state =
  accumulate state;
  let pending = ref 0 in
  let counters : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let gauge_sums : (string, float) Hashtbl.t = Hashtbl.create 16 in
  let hists : (string, Histogram.t) Hashtbl.t = Hashtbl.create 8 in
  let up = ref 0 in
  Array.iter
    (fun b ->
      if b.b_state = Up then
        (* A fresh connection, so aggregation never interleaves with
           submit traffic on the persistent channels.  An unresponsive
           backend is skipped, not marked down — the health probes own
           that verdict. *)
        match
          Wire.request ~timeout:probe_timeout b.b_addr
            (Protocol.request_to_json Protocol.Metrics)
        with
        | None -> ()
        | Some json ->
            incr up;
            (match Option.bind (J.member "pending" json) J.as_int with
            | Some n -> pending := !pending + n
            | None -> ());
            (match Option.bind (J.member "counters" json) J.as_obj with
            | Some members ->
                List.iter
                  (fun (k, v) ->
                    match J.as_int v with
                    | Some n ->
                        let prev =
                          Option.value ~default:0 (Hashtbl.find_opt counters k)
                        in
                        Hashtbl.replace counters k (prev + n)
                    | None -> ())
                  members
            | None -> ());
            (match Option.bind (J.member "gauges" json) J.as_obj with
            | Some members ->
                List.iter
                  (fun (k, v) ->
                    (* Uptime and cap gauges are per-process facts that
                       don't sum meaningfully across shards. *)
                    if k = "queue_depth" || k = "live_workers" then
                      match J.as_float v with
                      | Some f ->
                          let prev =
                            Option.value ~default:0.0
                              (Hashtbl.find_opt gauge_sums k)
                          in
                          Hashtbl.replace gauge_sums k (prev +. f)
                      | None -> ())
                  members
            | None -> ());
            (match Option.bind (J.member "histograms" json) J.as_obj with
            | Some members ->
                List.iter
                  (fun (k, v) ->
                    match Histogram.of_json v with
                    | Error _ -> ()
                    | Ok h -> (
                        match Hashtbl.find_opt hists k with
                        | Some prev ->
                            Hashtbl.replace hists k (Histogram.merge prev h)
                        | None -> Hashtbl.replace hists k h))
                  members
            | None -> ()))
    state.backends;
  (* The router's own counters (failovers, markdowns, markups) ride the
     same catalogue, so `asc client metrics` against a router shows the
     fleet totals plus routing health in one table. *)
  List.iter
    (fun c ->
      let name = Telemetry.counter_name c in
      match Hashtbl.find_opt state.cumulative name with
      | Some n when n > 0 ->
          let prev = Option.value ~default:0 (Hashtbl.find_opt counters name) in
          Hashtbl.replace counters name (prev + n)
      | _ -> ())
    Telemetry.all_counters;
  let counters =
    List.map
      (fun c ->
        let name = Telemetry.counter_name c in
        (name, Option.value ~default:0 (Hashtbl.find_opt counters name)))
      Telemetry.all_counters
  in
  let gauges =
    [
      ( "queue_depth",
        Option.value ~default:0.0 (Hashtbl.find_opt gauge_sums "queue_depth") );
      ( "live_workers",
        Option.value ~default:0.0 (Hashtbl.find_opt gauge_sums "live_workers") );
      ("uptime_seconds", Unix.gettimeofday () -. state.started);
      ("backends_up", float_of_int !up);
      ("backends_total", float_of_int (Array.length state.backends));
    ]
  in
  let histograms = Hashtbl.fold (fun k h acc -> (k, h) :: acc) hists [] in
  Protocol.metrics_response ~gauges ~histograms ~pending:!pending ~counters ()

(* --- Requests ------------------------------------------------------------ *)

let inflight_total state =
  Array.fold_left
    (fun acc b -> acc + Hashtbl.length b.b_inflight)
    0 state.backends

let handle_request state cid = function
  | Protocol.Ping -> Wire.reply state.front cid Protocol.ping_response
  | Protocol.Metrics -> Wire.reply state.front cid (aggregate_metrics state)
  | Protocol.Shutdown ->
      Wire.shutdown state.front cid ~idle:(inflight_total state = 0)
  | Protocol.Submit { spec; want_tset; client_id } -> (
      if Wire.draining state.front then
        Wire.reply state.front cid
          (Protocol.error_response ~reason:"draining" ?id:client_id
             "router is draining for shutdown")
      else
        match Scheduler.key_of_spec spec with
        | Error message ->
            (* Resolve errors locally — no point burning a shard round
               trip on a spec every backend would reject identically. *)
            Wire.reply state.front cid
              (Protocol.error_response ?id:client_id message)
        | Ok key ->
            let entry =
              {
                e_rid = state.next_rid;
                e_cid = cid;
                e_client_id = client_id;
                e_key = key;
                e_spec = spec;
                e_want_tset = want_tset;
                e_attempts = 0;
                e_tried = [];
              }
            in
            state.next_rid <- state.next_rid + 1;
            dispatch state entry)

let handle_client_frame state cid line =
  match Protocol.request_of_string line with
  | Error message -> Wire.reply state.front cid (Protocol.error_response message)
  | Ok request -> handle_request state cid request

let run ?tel ?chaos ?log ?on_ready (cfg : config) =
  if cfg.backends = [] then invalid_arg "Router.run: no backends";
  (* The router's front hits no serve.* chaos points: its own are the
     router.backend_* ones. *)
  let front = Wire.front cfg.listen in
  let state =
    {
      cfg;
      front;
      tel;
      chaos;
      log;
      rng = Rng.of_name ~seed:(Unix.getpid ()) "router/backoff";
      started = Unix.gettimeofday ();
      backends =
        Array.of_list
          (List.map
             (fun (name, addr) ->
               {
                 b_name = name;
                 b_addr = addr;
                 b_state = Down;
                 b_fd = None;
                 b_rd = Wire.reader ();
                 b_inflight = Hashtbl.create 16;
                 b_fails = 0;
                 b_next_probe = 0.0;  (* probe immediately *)
                 b_last_ping = 0.0;
                 b_ever_up = false;
               })
             cfg.backends);
      cumulative = Hashtbl.create 64;
      next_rid = 0;
    }
  in
  Log.emit log "router.start"
    ~fields:
      [
        ("backends", J.Int (Array.length state.backends));
        ("listen", J.Str (Wire.addr_to_string cfg.listen));
      ];
  (* Bring the fleet up before announcing readiness, so an immediate
     first submit doesn't race the initial probes. *)
  health_tick state;
  Option.iter (fun f -> f ()) on_ready;
  Fun.protect
    ~finally:(fun () ->
      Log.emit log "router.shutdown"
        ~fields:[ ("drained", J.Int (Wire.drained front)) ];
      Array.iter
        (fun b ->
          Option.iter
            (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
            b.b_fd)
        state.backends;
      Wire.close front)
    (fun () ->
      while Wire.running front do
        let backend_fds =
          Array.fold_left
            (fun acc b ->
              match b.b_fd with Some fd -> fd :: acc | None -> acc)
            [] state.backends
        in
        let readable =
          match Unix.select (Wire.fds front @ backend_fds) [] [] 0.2 with
          | r, _, _ -> r
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
        in
        List.iter
          (fun fd ->
            if
              Wire.running front
              && not (Wire.service front fd (handle_client_frame state))
            then
              Array.iter
                (fun b ->
                  match b.b_fd with
                  | Some bfd when bfd == fd -> read_backend state b bfd
                  | _ -> ())
                state.backends)
          readable;
        if Wire.running front then begin
          health_tick state;
          Wire.finish_drain front ~idle:(inflight_total state = 0)
        end
      done)
