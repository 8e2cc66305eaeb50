(* Line-delimited JSON request/response codecs for the serving layer
   (docs/SERVING.md). *)

module J = Asc_util.Json
module Histogram = Asc_util.Histogram

let version = 1

type request =
  | Ping
  | Metrics
  | Shutdown
  | Submit of {
      spec : Scheduler.spec;
      want_tset : bool;
      client_id : int option;
    }

(* Typed member access: absent is fine (gives the default), present with
   the wrong type is a decode error. *)
let field json key as_type ~default =
  match J.member key json with
  | None | Some J.Null -> Ok default
  | Some v -> (
      match as_type v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "bad %S member" key))

let ( let* ) r f = match r with Ok x -> f x | Error _ as e -> e

(* An optional member: absent or null is [None]. *)
let opt json key as_type =
  field json key (fun v -> Option.map Option.some (as_type v)) ~default:None

let submit_of_json json =
  let d = Scheduler.default_spec in
  let* sp_circuit = opt json "circuit" J.as_str in
  let* sp_netlist = opt json "netlist" J.as_str in
  let* sp_seed = field json "seed" J.as_int ~default:d.Scheduler.sp_seed in
  let* sp_t0 = field json "t0" J.as_str ~default:d.Scheduler.sp_t0 in
  let* sp_timeout = opt json "timeout" J.as_float in
  let* want_tset = field json "tset" J.as_bool ~default:false in
  let* client_id = opt json "id" J.as_int in
  let spec =
    { Scheduler.sp_circuit; sp_netlist; sp_seed; sp_t0; sp_timeout }
  in
  Ok (Submit { spec; want_tset; client_id })

let request_of_json json =
  match J.member "op" json with
  | None -> Error "missing \"op\" member"
  | Some op -> (
      match J.as_str op with
      | None -> Error "\"op\" must be a string"
      | Some "ping" -> Ok Ping
      | Some "metrics" -> Ok Metrics
      | Some "shutdown" -> Ok Shutdown
      | Some "submit" -> submit_of_json json
      | Some other -> Error (Printf.sprintf "unknown op %S" other))

let request_of_string line =
  match J.parse line with
  | Error e -> Error e
  | Ok json -> request_of_json json

let request_to_json = function
  | Ping -> J.Obj [ ("op", J.Str "ping") ]
  | Metrics -> J.Obj [ ("op", J.Str "metrics") ]
  | Shutdown -> J.Obj [ ("op", J.Str "shutdown") ]
  | Submit { spec; want_tset; client_id } ->
      let opt k f = function None -> [] | Some x -> [ (k, f x) ] in
      J.Obj
        ([ ("op", J.Str "submit") ]
        @ opt "circuit" (fun s -> J.Str s) spec.Scheduler.sp_circuit
        @ opt "netlist" (fun s -> J.Str s) spec.Scheduler.sp_netlist
        @ [ ("seed", J.Int spec.Scheduler.sp_seed); ("t0", J.Str spec.Scheduler.sp_t0) ]
        @ opt "timeout" (fun t -> J.Float t) spec.Scheduler.sp_timeout
        @ (if want_tset then [ ("tset", J.Bool true) ] else [])
        @ opt "id" (fun i -> J.Int i) client_id)

(* --- Responses --------------------------------------------------------- *)

let ping_response =
  J.Obj [ ("ok", J.Bool true); ("op", J.Str "ping"); ("protocol", J.Int version) ]

let shutdown_response ~drained =
  J.Obj
    [ ("ok", J.Bool true); ("op", J.Str "shutdown"); ("drained", J.Int drained) ]

(* Revision of the metrics payload, not the wire protocol: version 2
   added the sorted [gauges]/[histograms] sections.  Version-1 clients
   ignore unknown members, so the extension is purely additive. *)
let metrics_version = 2

let sort_by_key l = List.sort (fun (a, _) (b, _) -> compare a b) l

let metrics_response ?(gauges = []) ?(histograms = []) ~pending ~counters () =
  J.Obj
    [
      ("ok", J.Bool true);
      ("op", J.Str "metrics");
      ("pending", J.Int pending);
      ( "counters",
        J.Obj (sort_by_key (List.map (fun (k, v) -> (k, J.Int v)) counters)) );
      ("metrics_version", J.Int metrics_version);
      ( "gauges",
        J.Obj (sort_by_key (List.map (fun (k, v) -> (k, J.Float v)) gauges)) );
      ( "histograms",
        J.Obj
          (sort_by_key
             (List.map (fun (k, h) -> (k, Histogram.to_json h)) histograms)) );
    ]

(* Optional members are emitted only when supplied, so pre-existing
   reject responses — which the conformance transcripts pin byte-for-
   byte — are unchanged: a bare [error_response msg] still renders as
   {"ok":false,"error":MSG}. *)
let error_response ?reason ?retry_after_ms ?id message =
  J.Obj
    ([ ("ok", J.Bool false); ("error", J.Str message) ]
    @ (match reason with None -> [] | Some r -> [ ("reason", J.Str r) ])
    @ (match retry_after_ms with
      | None -> []
      | Some ms -> [ ("retry_after_ms", J.Int ms) ])
    @ match id with None -> [] | Some i -> [ ("id", J.Int i) ])

let status_string = function
  | Scheduler.Complete -> "complete"
  | Scheduler.Partial _ -> "partial"
  | Scheduler.Failed _ -> "failed"

let submit_response ~id ~cached ~want_tset (r : Scheduler.result) =
  let opt_str = function None -> J.Null | Some s -> J.Str s in
  let reason, stage, error =
    match r.Scheduler.r_status with
    | Scheduler.Complete -> (None, None, None)
    | Scheduler.Partial { reason; stage } -> (Some reason, Some stage, None)
    | Scheduler.Failed message -> (None, None, Some message)
  in
  J.Obj
    ([
       ("ok", J.Bool (error = None));
       ("op", J.Str "submit");
       ("id", match id with None -> J.Null | Some i -> J.Int i);
       ("status", J.Str (status_string r.Scheduler.r_status));
       ("reason", opt_str reason);
       ("stage", opt_str stage);
       ("cached", J.Bool cached);
       ("resumed", J.Bool r.Scheduler.r_resumed);
       ("tests", J.Int r.Scheduler.r_tests);
       ("cycles", J.Int r.Scheduler.r_cycles);
       ("detected", J.Int r.Scheduler.r_detected);
       ("targets", J.Int r.Scheduler.r_targets);
       ("iterations", J.Int r.Scheduler.r_iterations);
     ]
    @ (match error with None -> [] | Some e -> [ ("error", J.Str e) ])
    @
    match (want_tset, r.Scheduler.r_tset) with
    | true, Some tset -> [ ("tset", J.Str tset) ]
    | _ -> [])

let result_of_response json =
  let int key = field json key J.as_int ~default:0 in
  let text = Option.value ~default:"" in
  let* status = opt json "status" J.as_str in
  let* reason = opt json "reason" J.as_str in
  let* stage = opt json "stage" J.as_str in
  let* error = opt json "error" J.as_str in
  let* r_status =
    match status with
    | Some "complete" -> Ok Scheduler.Complete
    | Some "partial" ->
        Ok (Scheduler.Partial { reason = text reason; stage = text stage })
    | Some "failed" -> Ok (Scheduler.Failed (text error))
    | _ -> Error "bad \"status\" member"
  in
  let* r_tests = int "tests" in
  let* r_cycles = int "cycles" in
  let* r_detected = int "detected" in
  let* r_targets = int "targets" in
  let* r_iterations = int "iterations" in
  let* r_resumed = field json "resumed" J.as_bool ~default:false in
  let* r_tset = opt json "tset" J.as_str in
  Ok
    { Scheduler.r_status; r_tests; r_cycles; r_detected; r_targets;
      r_iterations; r_tset; r_resumed }

(* --- Prometheus text exposition ---------------------------------------- *)

(* Render a metrics response in the Prometheus text exposition format
   (`asc client metrics --prometheus`, `asc serve --prom-file`).  Series
   are prefixed `asc_`; counters get the conventional `_total` suffix;
   histograms publish cumulative `_bucket{le="..."}` series ending at
   `le="+Inf"` plus `_sum`/`_count`.  Input member order is already
   sorted by [metrics_response], so the exposition is byte-stable for a
   given state — the CI scrape-smoke job diffs and grammar-checks it. *)
let prometheus_of_metrics json =
  let number = function
    | J.Int i -> Some (float_of_int i)
    | J.Float f -> Some f
    | _ -> None
  in
  let members name =
    match J.member name json with Some (J.Obj m) -> m | _ -> []
  in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (* %.12g matches the JSON writer, so a scrape never shows more precision
     than the metrics op itself. *)
  let num v = Printf.sprintf "%.12g" v in
  match J.member "counters" json with
  | None | Some J.Null ->
      Error "metrics response lacks a \"counters\" member"
  | Some _ ->
      List.iter
        (fun (k, v) ->
          match v with
          | J.Int n ->
              add "# HELP asc_%s_total Cumulative count since server start.\n" k;
              add "# TYPE asc_%s_total counter\n" k;
              add "asc_%s_total %d\n" k n
          | _ -> ())
        (members "counters");
      (match J.member "pending" json with
      | Some (J.Int n) ->
          add "# HELP asc_pending Jobs queued (redo queue plus per-source FIFOs).\n";
          add "# TYPE asc_pending gauge\n";
          add "asc_pending %d\n" n
      | _ -> ());
      List.iter
        (fun (k, v) ->
          match number v with
          | Some f ->
              add "# HELP asc_%s Instantaneous value at scrape time.\n" k;
              add "# TYPE asc_%s gauge\n" k;
              add "asc_%s %s\n" k (num f)
          | None -> ())
        (members "gauges");
      List.iter
        (fun (k, v) ->
          match Histogram.of_json v with
          | Error _ -> ()
          | Ok h ->
              add "# HELP asc_%s Latency distribution in seconds.\n" k;
              add "# TYPE asc_%s histogram\n" k;
              Array.iter
                (fun (bound, cum) ->
                  add "asc_%s_bucket{le=\"%s\"} %d\n" k (num bound) cum)
                (Histogram.cumulative h);
              add "asc_%s_bucket{le=\"+Inf\"} %d\n" k (Histogram.count h);
              add "asc_%s_sum %s\n" k (num (Histogram.sum h));
              add "asc_%s_count %d\n" k (Histogram.count h))
        (members "histograms");
      Ok (Buffer.contents buf)
