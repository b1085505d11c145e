(** The fleet's JSONL front end ([chimera fleet]): the serve protocol
    of docs/SERVICE.md, answered by a {!Router} instead of one worker.

    Request lines are submitted to the router and answered as their
    replies arrive — in completion order, so clients correlate by
    ["id"].  [cmd:stats] answers {!Router.stats_json} (fleet counters,
    merged worker metrics, SLO report), [cmd:health] a sweep of every
    worker, [cmd:slo] the burn-rate report, [cmd:flight] the flight
    recorder (an [invalid_request] with tracing off), and [cmd:quit]
    acknowledges and stops reading.  Malformed JSON, unknown commands
    and control answers go through the serve loop's own envelope
    ({!Service.Serve.parse_line}, {!Service.Serve.unknown_cmd},
    {!Service.Serve.control}), so they are answered exactly as a single
    worker answers them, ["id"] echoed. *)

val run :
  ?health_interval_s:float -> ?chaos:Chaos.t -> input:Unix.file_descr ->
  output:out_channel -> Router.t -> unit
(** Serve lines read from [input] until [cmd:quit], or until EOF and
    every routed request has been answered.  An unterminated last line
    is answered like any other.  Every [health_interval_s] (default 5;
    0 disables) the router gets a {!Router.check_health} sweep.  With
    [chaos], the schedule advances one tick per submitted request and
    its faults are {!Router.inject}ed.  [output] is flushed after every
    answer.  The router stays up: the caller shuts it down. *)
