(** The fleet front-end: consistent-hash routing onto N worker
    processes with admission control, hot-entry replication, health
    checking, and lossless fleet-wide stats aggregation.

    The router is single-threaded and event-driven.  {!submit} makes
    the admission decision synchronously and either answers on the spot
    (invalid request, hot-cache hit, shed) or routes the line to the
    owning worker; {!poll} moves bytes and returns the answers that
    arrived.  Workers are unchanged [chimera serve] loops behind pipes;
    nothing on the wire is rewritten beyond the optional injected
    [deadline_ms] (soft-band degradation) and the client ["id"].

    Every request gets a typed answer: a fused plan, a degraded one, a
    validation error, or the retryable [overloaded] error — never a
    hang.  See docs/FLEET.md. *)

type config = {
  vnodes : int;  (** ring points per worker (default 128). *)
  queue_depth : int;
      (** hard band: at this many outstanding requests on the owning
          worker, shed with [Error.Overloaded] (default 32). *)
  soft_depth : int;
      (** soft band: from this depth, requests without a deadline get
          [degrade_deadline_ms] stamped on, forcing the worker's
          degradation ladder to answer fast (default 16). *)
  degrade_deadline_ms : float;  (** injected budget (default 25). *)
  replicate_after : int;
      (** hot replication: store a response router-side after this many
          successful answers for its fingerprint; 0 disables
          (default 2).  At most 256 responses are stored, evicted
          FIFO. *)
  health_timeout_s : float;  (** per-sweep probe budget (default 2). *)
  restart_after : int;
      (** restart a worker after this many consecutive unanswered
          health probes (default 3). *)
  restart_backoff_s : float;
      (** supervisor backoff base: the first strike in a window
          respawns immediately, the second waits this long, then
          doubling up to 5 s (default 0.25). *)
  breaker_restarts : int;
      (** circuit breaker: this many strikes within [breaker_window_s]
          takes the slot permanently down and removes its ring points
          (default 8).  Never trips on the last live worker. *)
  breaker_window_s : float;  (** breaker evidence window (default 20). *)
  response_deadline_s : float;
      (** fail a worker whose head-of-queue request has waited this
          long — the hung-worker recovery path; 0 disables
          (default 60). *)
  spawn_grace_s : float;
      (** dead-on-arrival check delay at {!create}; 0 disables
          (default 0.05). *)
}

val default_config : config

type t

type event = {
  seq : int;  (** the [Routed] sequence number this answers. *)
  worker : int;
  client_id : Util.Json.t option;
  outcome : outcome;
}

and outcome =
  | Reply of { line : string; json : Util.Json.t }
      (** the worker's answer, verbatim. *)
  | Dropped of Service.Error.t
      (** synthesized failure: the worker died or broke protocol while
          this request was queued ([Overloaded] — retryable — or
          [Internal]). *)

val create :
  ?cfg:config -> ?tracing:bool -> ?slo:Obs.Slo.t -> string array array -> t
(** Spawn one worker per argv and build the ring.  Requests are
    fingerprinted under {!Chimera.Config.default}, as the workers plan.

    [tracing] (default false) turns on distributed tracing: every
    routed request gets a router-side ["fleet.request"] span (adopting
    the client's [traceparent] when present), the forwarded request is
    re-stamped with the router span's context so the worker parents
    under it, completed worker spans are collected from response
    piggybacks and [cmd:spans] drains, and a tail-sampling flight
    recorder ({!Obs.Sampler}, seed 1)
    retains every slow/errored/shed/degraded/retried/chaos-affected
    trace plus a probabilistic sample of healthy ones.

    [slo] injects the burn-rate engine (tests pass one with a virtual
    clock); the default tracks availability 99.9% and latency
    99% <= 250 ms over 5m/1h windows.  The engine runs with tracing
    off too — it only needs the router's own counters.

    Raises [Invalid_argument] on an empty fleet or nonsensical depths,
    and {!Worker.Spawn_failed} when a worker binary is missing, not
    executable, or dead on arrival (checked after [spawn_grace_s]) —
    the whole fleet is torn down before the raise. *)

type submit_outcome =
  | Routed of { worker : int; seq : int }
      (** forwarded; the answer arrives as an {!event} with this
          [seq]. *)
  | Answered of Util.Json.t
      (** answered synchronously: validation error, hot-cache hit, or
          shed. *)

val submit : ?id:Util.Json.t -> ?raw:Util.Json.t -> t -> Service.Request.t -> submit_outcome
(** Admit one request.  [raw] is the client's original JSON object; it
    is forwarded verbatim when given (so unknown fields survive the
    trip), otherwise the request is re-encoded.  [id] is echoed in
    every answer, synchronous or not. *)

val poll : ?timeout_s:float -> t -> event list
(** Wait up to [timeout_s] (default 0: just drain what's ready) for
    worker output and return completed events, in arrival order.
    Worker deaths are handled here: queued clients get [Dropped]
    events and the slot respawns. *)

val check_health : ?timeout_s:float -> t ->
  (int * [ `Ok of Util.Json.t | `Unanswered | `Restarted ]) list
(** Probe every worker with [cmd:health] and wait for the replies
    (the sweep {!drain_spans} and {!collect_stats} share: replies are
    matched by ticket, so a late reply never answers a later sweep).  A
    worker that answers nothing scores a consecutive failure;
    [restart_after] of those restarts the slot (clients queued on it
    get [Dropped] events on the next {!poll}).  Request traffic keeps
    flowing during the sweep.  With tracing on, the sweep ends with a
    {!drain_spans} pass, so flagged error traces reach the flight
    recorder within one sweep period. *)

val drain_spans : ?timeout_s:float -> t -> int
(** Drain every worker's shipped-span spool ([cmd:spans]) — the spans
    of traced error responses, which cannot ride the error wire form —
    and attach them to their retained traces ({!Obs.Sampler.merge_late};
    pieces of passed-over traces are dropped, the sampling decision
    applying to them too).  Returns the number of workers that answered
    the sweep; 0 and no probes with tracing off. *)

val collect_stats : ?timeout_s:float -> t ->
  Service.Metrics.t * (int * Service.Metrics.t) list
(** Scrape every worker's lossless wire metrics ([cmd:stats full]) and
    merge: counters add, histograms merge bucket-by-bucket, so the
    merged quantiles are computed over the pooled latency stream.
    Returns (merged, per-worker); non-reporting workers are absent. *)

val prewarm : ?timeout_s:float -> t -> Service.Request.t list -> int
(** Push requests through the fleet before opening the doors: each
    worker's plan cache fills with the plans its keys hash to, and
    every answer replicates into the router's hot cache immediately.
    Returns how many were answered in time. *)

val counters : t -> (string * int) list
(** Router-level counters: received, routed, shed, rejected_invalid,
    hot_hits, admission_degraded, protocol_errors, worker_restarts,
    health_probes, health_failures, workers_down, deadline_drops,
    chaos_injected. *)

val tracing_enabled : t -> bool

val slo : t -> Obs.Slo.t
(** The burn-rate engine.  Fed on every terminal answer ([submit]'s
    synchronous answers included); read it with {!Obs.Slo.report} or
    {!Obs.Slo.report_json}. *)

val note_client_trace : t -> Obs.Trace.t -> bool
(** Attach a client-process trace piece (the load generator's
    ["client.request"] spans) to its — already judged — distributed
    trace.  [true] when the trace was retained by the tail sampler and
    the piece merged in; [false] when sampling passed the trace over
    (the piece is dropped: the sampling decision applies to every
    piece) or tracing is off. *)

val flight_json : t -> Util.Json.t option
(** The flight-recorder dump ({!Obs.Sampler.flight_json}): a Chrome
    trace of every retained distributed trace plus the sampler's
    counters and per-trace retention flags.  [None] with tracing
    off. *)

val sampler_counters : t -> (string * int) list option
(** Tail-sampler retention counters ({!Obs.Sampler.counters});
    [None] with tracing off. *)

val collector_counters : t -> (string * int) list option
(** Collector health: [pending] (trace pieces awaiting assembly —
    transiently nonzero only inside a poll) and [shipped_rejected]
    (malformed ship payloads discarded).  [None] with tracing off. *)

type worker_state = {
  ws_id : int;
  ws_pid : int;
  ws_alive : bool;
  ws_permanently_down : bool;
  ws_restarts : int;
  ws_consecutive_health_failures : int;
  ws_depth : int;
}

val worker_states : t -> worker_state list
(** Per-worker lifecycle snapshot, in slot order — what [cmd:health],
    [cmd:stats] and the per-worker Prometheus series report. *)

val worker_state_json : worker_state -> Util.Json.t

val inject : t -> Chaos.event -> unit
(** Apply one scheduled chaos fault to its target worker: [Kill] sends
    SIGKILL (recovery via the EOF path), [Hang] SIGSTOPs with no
    resume (recovery via response deadline or health sweep), [Slow]
    SIGSTOPs and schedules a SIGCONT, [Garbage] feeds a malformed line
    into the reply stream (recovery via the protocol-error restart).
    No-op on a worker that is already down. *)

val stats_json :
  ?id:Util.Json.t -> t -> merged:Service.Metrics.t ->
  per_worker:(int * Service.Metrics.t) list -> Util.Json.t
(** The fleet's [cmd:stats] answer: router counters, the merged worker
    metrics, the SLO report, and — tracing on — a ["trace"] object
    with the sampler and collector counters. *)

val prometheus :
  t -> merged:Service.Metrics.t ->
  per_worker:(int * Service.Metrics.t) list -> string
(** One text exposition for the whole fleet: merged series unlabelled,
    per-worker series with a [worker] label (grouped under a single
    [# HELP]/[# TYPE] header per metric name, as the exposition format
    requires), router counters under [chimera_fleet_*], and the
    [chimera_slo_*] gauges ({!Obs.Slo.to_prometheus}). *)

val size : t -> int
val worker_pid : t -> int -> int
val worker_restarts_of : t -> int -> int

val shutdown : ?timeout_s:float -> t -> unit
(** Ask every worker to quit ([cmd:quit]), wait up to [timeout_s],
    then SIGKILL stragglers.  The router is unusable afterwards. *)
