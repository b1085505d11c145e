(** The JSONL request/response serve loop behind [chimera serve].

    One JSON object per input line, one JSON object per output line —
    the "server" is a pure stdin/stdout filter, so it composes with
    pipes, test harnesses and process supervisors without any network
    dependency.

    Request lines are {!Request} wire objects, optionally carrying an
    ["id"] that is echoed back — by control answers too.  Control
    forms:
    [{"cmd": "stats"}] answers with the {!Metrics} counters and latency
    histograms ([{"cmd": "stats", "full": true}] answers the lossless
    per-bucket wire form of {!Metrics.to_wire_json}, which the fleet
    router merges across workers), [{"cmd": "health"}] answers a
    liveness/forensics object ([pid], [uptime_s], [cache_entries],
    [cache_capacity], [inflight], [requests], [failed], [last_error] —
    the loop is serial, so receiving the reply at all is the liveness
    signal and [inflight] is zero by construction), [{"cmd": "traces"}]
    dumps the in-process ring of recent request traces (see
    {!Obs.Trace.to_json}), [{"cmd": "spans"}] drains the shipped-span
    spool (below), and [{"cmd": "quit"}] acknowledges and ends the
    loop (EOF also ends it).  Blank lines are ignored.

    {2 Observability}

    Every request is compiled under its own {!Obs.Trace}; the last 32
    traces (success and failure alike) are
    kept in a bounded ring buffer for the ["traces"] verb.  A request
    carrying ["timings": true] gets two extra response fields —
    ["trace_id"] and ["timings_ms"], per-phase wall-clock totals from
    its trace — while requests that never opt in see an unchanged
    schema.  Request outcomes and cache lifecycle events go to the
    structured JSONL log on stderr ({!Obs.Log}, enabled with
    [CHIMERA_LOG] or [--log-level]).

    {2 Distributed tracing}

    A request carrying a well-formed ["traceparent"] (the router's or
    load generator's trace context, {!Obs.Trace.of_wire}) has its
    trace {e adopted} into that distributed trace: same trace id, root
    span parented under the remote span.  Successful responses then
    carry the completed spans back piggybacked as a ["trace"] field
    ({!Obs.Trace.to_ship_json}); error responses keep their error
    schema, so their ship payloads wait in a bounded spool that
    [{"cmd": "spans"}] drains ([{"ok": true, "count", "spans": [...]}]).
    A malformed traceparent is ignored — never a request error.  Span
    loss is visible on the stats wire: [trace_spans_dropped] counts
    spans past a trace's [max_spans] bound, [trace_ring_evictions]
    counts ring/spool entries overwritten before being read.

    {2 Resilience}

    The loop never dies on a request.  Malformed JSON, unknown
    commands and invalid requests answer a typed error object
    ([{"ok": false, "error", "code", "retryable", "field"?}], see
    {!Error.to_json}); any exception that escapes one line's handling —
    a compiler bug, an injected fault — is answered as
    [code: "internal"] and counted in [Metrics.internal_errors].
    Failures are visible in [stats], not fatal.

    Successful responses carry the request's fingerprint, whether the
    plan came from the cache, the degradation-ladder [rung] that
    answered, the chosen block order and tiling per kernel, predicted
    data movement, and the estimated execution time (see
    docs/SERVICE.md for the full schema).

    When [cache_dir] is given the plan cache is loaded from it at
    startup (a corrupt or stale file is discarded and counted — a cold
    start, never a crash) and written back with bounded retries
    whenever a response added a new plan, so a restarted server stays
    warm.  [default_deadline_ms] bounds planning for requests that do
    not carry their own [deadline_ms].

    [verify] (default {!Batch.Verify_off}) runs the static-analysis
    passes on every successful response; diagnostics are attached as a
    ["verification"] array (omitted when empty, so the schema is
    unchanged for clients that never opt in), and under
    {!Batch.Verify_strict} a failing response answers
    [code: "verify_failed"]. *)

type line = {
  id : Util.Json.t option;  (** the ["id"] member, echoed in the answer. *)
  cmd : string option;  (** the ["cmd"] member: [None] is a request. *)
  json : Util.Json.t;
}
(** One parsed input line.  The envelope ({!parse_line}, {!unknown_cmd},
    {!control}) is shared with the fleet's JSONL loop
    ([Fleet.Bridge]), so a fleet answers malformed lines, unknown
    commands and control lines exactly like a single worker. *)

val parse_line : string -> (line, Error.t) result
(** [Error] (an [invalid_request] naming [field: "json"]) when the line
    is not JSON. *)

val unknown_cmd : string -> Error.t
(** The [invalid_request] answer ([field: "cmd"]) to an unknown
    command. *)

val control : ?id:Util.Json.t -> (string * Util.Json.t) list -> Util.Json.t
(** A control answer: [{"id"?, "ok": true, fields...}]. *)

val run :
  ?cache_dir:string -> ?default_deadline_ms:float ->
  ?verify:Batch.verify_mode -> in_channel -> out_channel -> unit
(** Serve until EOF or [{"cmd": "quit"}].  Output is flushed after
    every line.  Requests are planned on the process-wide
    {!Util.Pool.global} (sized by [CHIMERA_DOMAINS]): each request's
    candidate-order solves fan across the lanes, so a single in-flight
    request is already multicore. *)
