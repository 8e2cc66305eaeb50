(** The serving layer's wire protocol: line-delimited JSON over a stream
    socket (grammar in docs/SERVING.md).

    One request per line, one response object per request.  Responses to
    [submit] are deferred until the job runs and are matched to their
    request by the job [id] field; every other response is immediate, so
    a connection that pipelines submissions can see responses out of
    request order. *)

(** Protocol revision, echoed in every [ping] response.  Bump on any
    field rename or semantic change. *)
val version : int

type request =
  | Ping
  | Metrics
  | Shutdown
  | Submit of {
      spec : Scheduler.spec;
      want_tset : bool;
      client_id : int option;
    }
      (** [want_tset] asks for the serialized test set in the response.
          [client_id] is an optional client-chosen correlation id (the
          request's ["id"] member): when present the server echoes it as
          the response's [id] — including on cache hits and typed
          rejects — which is what lets a pipelined client (or the shard
          router) match out-of-order responses to requests.  Without it
          the response [id] keeps its original meaning (server
          submission order; [null] for cache hits). *)

(** Decode a request object.  Unknown members are ignored (forward
    compatibility); a missing or unknown ["op"], or a present member of
    the wrong type, is an error. *)
val request_of_json : Asc_util.Json.t -> (request, string) Stdlib.result

(** Parse one frame (a line, without its terminator) and decode it. *)
val request_of_string : string -> (request, string) Stdlib.result

(** Encode a request — the inverse of {!request_of_json}, used by the
    bundled client. *)
val request_to_json : request -> Asc_util.Json.t

(** {1 Responses} *)

val ping_response : Asc_util.Json.t

(** [shutdown_response ~drained] — [drained] reports how many queued or
    in-flight jobs the server finished during drain before exiting. *)
val shutdown_response : drained:int -> Asc_util.Json.t

(** Revision of the metrics payload (not the wire protocol): version 2
    added the [gauges] and [histograms] sections.  Version-1 clients
    ignore unknown members, so the extension is additive. *)
val metrics_version : int

(** [metrics_response ~pending ~counters ()] — the fleet-wide counter
    catalogue (cumulative since server start) plus the queue depth, and,
    since metrics version 2, instantaneous [gauges] and per-job latency
    [histograms] ({!Asc_util.Histogram.to_json} shape).  Counter, gauge
    and histogram keys are emitted sorted, so equal state renders
    byte-identically. *)
val metrics_response :
  ?gauges:(string * float) list ->
  ?histograms:(string * Asc_util.Histogram.t) list ->
  pending:int ->
  counters:(string * int) list ->
  unit ->
  Asc_util.Json.t

(** [error_response ?reason ?retry_after_ms ?id message] — a reject.
    Optional members are emitted only when supplied, so the bare form
    renders exactly as before ([{"ok":false,"error":MSG}]).  [reason] is
    the typed reject class (["overloaded"], ["draining"], ["no_backend"]);
    [retry_after_ms] is the server's backpressure hint; [id] echoes the
    request's client id so pipelined clients can match the reject. *)
val error_response :
  ?reason:string ->
  ?retry_after_ms:int ->
  ?id:int ->
  string ->
  Asc_util.Json.t

(** [submit_response ~id ~cached ~want_tset result] — [id] is [Null] for
    cache hits (no job ran).  The [tset] member is present only when
    [want_tset] and the result carries a test set. *)
val submit_response :
  id:int option -> cached:bool -> want_tset:bool -> Scheduler.result -> Asc_util.Json.t

(** Decode a submit response back into its result — the inverse of
    [submit_response ~want_tset:true] (the [tset] member is [None] when
    absent).  A missing or unknown [status], or a present member of the
    wrong type, is an error. *)
val result_of_response :
  Asc_util.Json.t -> (Scheduler.result, string) Stdlib.result

(** The status string of a submit response: ["complete"], ["partial"] or
    ["failed"]. *)
val status_string : Scheduler.status -> string

(** {1 Prometheus exposition} *)

(** Render a metrics response in the Prometheus text exposition format:
    counters as [asc_<name>_total], [pending] and the gauges as
    [asc_<name>] gauges, histograms as cumulative
    [asc_<name>_bucket{le="..."}] series ending at [le="+Inf"] with
    [_sum]/[_count].  Errors when the JSON is not a metrics response. *)
val prometheus_of_metrics : Asc_util.Json.t -> (string, string) Stdlib.result
