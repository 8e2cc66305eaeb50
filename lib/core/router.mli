(** The [asc route] shard router: a protocol-v1 front that shards
    submissions across N backend [asc serve] instances by rendezvous
    hashing of the job's canonical content key, with health-checked
    mark-down/mark-up of backends and failover of in-flight submits
    (docs/SERVING.md "Fleet: routing, sharding and overload").

    Placement: each submit's content key ({!Scheduler.key_of_spec} — the
    same key the result cache uses) is ranked against every backend name
    by highest-random-weight hashing, so any number of router instances
    agree on placement with no coordination, a backend's death re-homes
    only the keys it owned, and resubmissions of the same job land on
    the shard whose cache already holds the result.

    Failure semantics: any error on a backend connection marks the
    backend down ([router_markdowns]) and fails its in-flight submits
    over to the next live shard ([router_failovers]) within a
    per-request budget of [request_retries] dispatch attempts — safe
    because submission is idempotent under the content-keyed result
    cache.  Down backends are re-probed with [ping] on a full-jitter
    exponential backoff schedule; a pong marks them back up
    ([router_markups]).  With no live backend a submit is rejected with
    a typed [no_backend] error — the router queues nothing.

    [ping] is answered locally; [metrics] polls every live backend and
    returns the fleet aggregate (summed counters and queue depth, merged
    latency histograms) plus the router's own counters and
    [backends_up]/[backends_total] gauges; [shutdown] drains the router
    only (in-flight submits finish; the shards stay up).

    Chaos points ({!Asc_util.Chaos}): [router.backend_write] before each
    forwarded request, [router.backend_read] before each backend read,
    [router.backend_health] before each health probe — a [Fail] is
    handled exactly like the corresponding backend failure; a [Kill]
    propagates out of {!run} like a crash. *)

type config = {
  listen : Wire.addr;  (** The router's own front socket. *)
  backends : (string * Wire.addr) list;
      (** [(name, address)] per shard.  The name (the literal
          [--backend] argument) is the rendezvous-hash identity: keep it
          stable across restarts or placement reshuffles. *)
  request_retries : int;
      (** Failover budget: total dispatch attempts allowed per submit.
          {!default_request_retries}. *)
}

val default_request_retries : int

(** [run cfg] binds the front socket and routes until a client sends
    [shutdown] (drain semantics above).  [tel] feeds the router's own
    counters into aggregated [metrics] responses; [log] receives
    lifecycle events ([router.start], [router.backend_down],
    [router.backend_up], [router.failover], [router.shutdown]);
    [on_ready] fires after the socket is bound and the initial backend
    probes have been sent.  Raises [Invalid_argument] on an empty
    backend list. *)
val run :
  ?tel:Asc_util.Telemetry.t ->
  ?chaos:Asc_util.Chaos.t ->
  ?log:Asc_util.Log.t ->
  ?on_ready:(unit -> unit) ->
  config ->
  unit
