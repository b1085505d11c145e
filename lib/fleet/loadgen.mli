(** Open-loop Poisson load generator for the fleet.

    Arrivals are scheduled on the global clock (each gap added to the
    previous scheduled arrival, never to "now"), so a saturated fleet
    cannot push the offered load back — overload surfaces as shedding
    and degradation, which is what the fleet is supposed to do under
    it.  Deterministic for a given seed. *)

type report = {
  mix : string;
  target_rps : float;
  duration_s : float;
  wall_s : float;
  offered : int;  (** arrivals submitted. *)
  answered : int;  (** typed answers received (incl. synchronous). *)
  ok : int;  (** full fused answers. *)
  degraded : int;  (** answers off a degradation-ladder rung. *)
  shed : int;  (** [overloaded] answers (router or synthesized). *)
  rejected : int;  (** [invalid_request] answers. *)
  failed : int;  (** any other typed error (terminal). *)
  unanswered : int;  (** still pending when the drain timeout hit. *)
  retried : int;  (** resubmissions of retryable errors. *)
  recovered : int;
      (** logical requests that succeeded after at least one retry. *)
  gave_up : int;
      (** retryable errors answered terminally because the retry
          budget was exhausted (0 when retries are off). *)
  latency : Obs.Histogram.t;
      (** client-side ms from the scheduled arrival to the terminal
          answer: time the generator ran late before sending counts
          (no coordinated omission), and a recovered request pays for
          its retries here. *)
  merged : Service.Metrics.t;  (** fleet-wide merged worker metrics. *)
  per_worker : (int * Service.Metrics.t) list;
  router : (string * int) list;  (** router counters at end of run. *)
  chaos : (string * int) list;
      (** per-kind fault counts from the chaos schedule ([] without
          one). *)
  sampler : (string * int) list option;
      (** tail-sampler retention counters ({!Router.sampler_counters});
          [None] when the router runs without tracing. *)
  slo : Util.Json.t;  (** {!Obs.Slo.report_json} at end of run. *)
  slo_text : string;  (** {!Obs.Slo.report_text} at end of run. *)
}

val run :
  ?seed:int -> ?batch_jitter:int -> ?prewarm:bool ->
  ?drain_timeout_s:float -> ?chaos:Chaos.t -> ?retries:int ->
  ?retry_backoff_ms:float -> mix:Traffic.t -> rps:float ->
  duration_s:float -> Router.t -> report
(** Drive [mix] at [rps] for [duration_s], then wait up to
    [drain_timeout_s] for stragglers and scrape the fleet.
    [prewarm] pushes the mix's unique requests through first;
    [batch_jitter] defeats the caches (see {!Traffic.sample}).

    [chaos] injects that schedule's faults, advancing its virtual
    clock once per submission (retries included).  [retries] (default
    0) resubmits answers whose wire [retryable] flag is true, up to
    that many times per logical request, after a jittered exponential
    backoff starting at [retry_backoff_ms] (default 25, doubling per
    attempt, scaled by a uniform [0.5, 1.5) draw).  Non-retryable
    errors are always terminal — under chaos every logical request
    ends in a success, a typed non-retryable error, or an exhausted
    retry budget; nothing hangs.

    When the router was created with tracing on, every logical request
    owns a client-side trace: each attempt opens a ["client.request"]
    span whose context is injected as the wire [traceparent], so the
    distributed trace spans client, router and worker; client pieces
    attach after the router's retention judgement
    ({!Router.note_client_trace}). *)

val classify :
  Util.Json.t -> [ `Ok | `Degraded | `Shed | `Rejected | `Failed ]
(** How one wire answer counts (exposed for tests). *)

val report_json : report -> Util.Json.t
val report_text : report -> string

val report_prometheus : Router.t -> report -> string
(** Full fleet exposition plus the client-side latency histogram and
    run counters under [chimera_loadgen_*].  Conformant: exactly one
    [# HELP]/[# TYPE] pair per metric name across the whole scrape. *)
