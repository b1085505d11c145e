(* Open-loop load generator.

   Arrivals are a Poisson process scheduled on the global clock:
   exponential interarrival gaps are added to the *previous scheduled*
   arrival time, never to "now", so a slow fleet does not push the
   offered load back — the defining property of an open-loop generator,
   and the reason saturation shows up as shedding and queueing rather
   than as a silently reduced request rate.

   Between arrivals the generator polls the router and classifies every
   answer by its typed wire form: [ok:true] with a null [degraded]
   field is a full fused answer, a non-null [degraded] is a ladder
   rung, the [overloaded] error code is a shed, anything else typed is
   a failure.  Latency is measured submit-to-answer at the client side
   and recorded in the same fixed-bucket histogram the service uses, so
   loadgen p50/p99 and worker-side solve quantiles share a scale. *)

type report = {
  mix : string;
  target_rps : float;
  duration_s : float;
  wall_s : float;
  offered : int;
  answered : int;
  ok : int;
  degraded : int;
  shed : int;
  rejected : int;
  failed : int;
  unanswered : int;
  retried : int;
  recovered : int;
  gave_up : int;
  latency : Obs.Histogram.t;
  merged : Service.Metrics.t;
  per_worker : (int * Service.Metrics.t) list;
  router : (string * int) list;
  chaos : (string * int) list;
  sampler : (string * int) list option;
  slo : Util.Json.t;
  slo_text : string;
}

type counts = {
  mutable c_ok : int;
  mutable c_degraded : int;
  mutable c_shed : int;
  mutable c_rejected : int;
  mutable c_failed : int;
  mutable c_answered : int;
  mutable c_retried : int;
  mutable c_recovered : int;
  mutable c_gave_up : int;
}

let classify json =
  match Util.Json.member "ok" json with
  | Some (Util.Json.Bool true) -> (
      match Util.Json.member "degraded" json with
      | Some Util.Json.Null | None -> `Ok
      | Some _ -> `Degraded)
  | _ -> (
      match Util.Json.member "code" json with
      | Some (Util.Json.String "overloaded") -> `Shed
      | Some (Util.Json.String "invalid_request") -> `Rejected
      | _ -> `Failed)

let count counts = function
  | `Ok -> counts.c_ok <- counts.c_ok + 1
  | `Degraded -> counts.c_degraded <- counts.c_degraded + 1
  | `Shed -> counts.c_shed <- counts.c_shed + 1
  | `Rejected -> counts.c_rejected <- counts.c_rejected + 1
  | `Failed -> counts.c_failed <- counts.c_failed + 1

let now () = Unix.gettimeofday ()

let interarrival prng rps =
  (* Inverse-CDF exponential draw; [1.0 -. u] keeps the log argument
     strictly positive. *)
  -.log (1.0 -. Util.Prng.float prng) /. rps

(* One logical request, across all its attempts.  Latency is measured
   scheduled arrival to terminal answer — a recovered request pays for its
   retries in the histogram, as a real client would.  With tracing on,
   the logical request owns one client-side trace; each attempt opens a
   fresh [client.request] span on it, and the trace joins its
   distributed trace late (after the router has judged retention). *)
type inflight = {
  req : Service.Request.t;
  first_sent : float;
  attempts : int;  (* submissions so far, >= 1 once in flight *)
  trace : Obs.Trace.t option;
  span : Obs.Trace.open_span option;  (* the current attempt's *)
}

let run ?(seed = 42) ?(batch_jitter = 0) ?(prewarm = false)
    ?(drain_timeout_s = 10.0) ?chaos ?(retries = 0)
    ?(retry_backoff_ms = 25.0) ~mix ~rps ~duration_s router =
  if rps <= 0.0 then invalid_arg "Loadgen.run: rps must be positive";
  if duration_s <= 0.0 then invalid_arg "Loadgen.run: duration must be positive";
  if retries < 0 then invalid_arg "Loadgen.run: retries must be >= 0";
  if prewarm then
    ignore (Router.prewarm router (Traffic.unique_requests mix));
  let prng = Util.Prng.create ~seed in
  let latency = Obs.Histogram.create () in
  let pending : (int, inflight) Hashtbl.t = Hashtbl.create 1024 in
  (* Retries waiting for their backoff to elapse: (due, inflight),
     unsorted — it stays tiny. *)
  let retry_queue : (float * inflight) list ref = ref [] in
  let counts =
    { c_ok = 0; c_degraded = 0; c_shed = 0; c_rejected = 0; c_failed = 0;
      c_answered = 0; c_retried = 0; c_recovered = 0; c_gave_up = 0 }
  in
  let offered = ref 0 in
  let terminal infl cls =
    counts.c_answered <- counts.c_answered + 1;
    Obs.Histogram.observe latency ((now () -. infl.first_sent) *. 1000.0);
    if infl.attempts > 1 && (cls = `Ok || cls = `Degraded) then
      counts.c_recovered <- counts.c_recovered + 1;
    (* The router judged this trace when its answer arrived; the client
       pieces attach late — or are dropped, if sampling passed it. *)
    (match infl.trace with
    | Some tr -> ignore (Router.note_client_trace router tr)
    | None -> ());
    count counts cls
  in
  let schedule_retry infl =
    (* Jittered exponential backoff: base * 2^(attempt-1), scaled by a
       uniform [0.5, 1.5) draw so synchronized failures do not retry in
       lockstep. *)
    let backoff_ms =
      retry_backoff_ms
      *. (2.0 ** float_of_int (infl.attempts - 1))
      *. Util.Prng.uniform prng ~lo:0.5 ~hi:1.5
    in
    retry_queue := (now () +. (backoff_ms /. 1000.0), infl) :: !retry_queue
  in
  (* A terminal answer or a retry decision for one attempt's outcome.
     [retryable] honors the wire flag — the whole point of the typed
     taxonomy is that clients can act on it mechanically. *)
  let rec handle_answer infl json =
    let cls = classify json in
    (* Close this attempt's client span before deciding the request's
       fate; a retry opens a fresh one on the same trace. *)
    (match infl.span with
    | Some os ->
        Obs.Trace.close_span
          ~err:(match cls with `Ok | `Degraded -> false | _ -> true)
          os
    | None -> ());
    let infl = { infl with span = None } in
    match cls with
    | `Ok | `Degraded -> terminal infl cls
    | `Shed | `Rejected | `Failed ->
        let retryable =
          Util.Json.member "retryable" json = Some (Util.Json.Bool true)
        in
        if retryable && infl.attempts <= retries then schedule_retry infl
        else begin
          if retryable && retries > 0 then
            counts.c_gave_up <- counts.c_gave_up + 1;
          terminal infl cls
        end

  and submit_inflight infl =
    (* The virtual event clock: chaos ticks once per submission, so a
       given seed lands the same faults at the same points in the
       request stream on every run. *)
    (match chaos with
    | Some c -> List.iter (Router.inject router) (Chaos.advance c)
    | None -> ());
    if infl.attempts > 0 then counts.c_retried <- counts.c_retried + 1;
    let infl = { infl with attempts = infl.attempts + 1 } in
    (* Tracing: the logical request's trace is created on its first
       attempt; every attempt gets its own [client.request] span whose
       context rides the wire as [traceparent], so the router (and
       through it the worker) parents under this attempt. *)
    let trace =
      if not (Router.tracing_enabled router) then None
      else
        match infl.trace with
        | Some _ as tr -> tr
        | None ->
            Some
              (Obs.Trace.make
                 ~label:(Service.Request.describe infl.req) ())
    in
    let span =
      Option.bind trace (fun tr ->
          Obs.Trace.open_span
            ~attrs:[ ("attempt", string_of_int infl.attempts) ]
            (Obs.Trace.ctx tr) "client.request")
    in
    let req =
      match
        Option.bind span (fun os -> Obs.Trace.to_wire (Obs.Trace.open_ctx os))
      with
      | Some tp -> { infl.req with Service.Request.traceparent = Some tp }
      | None -> infl.req
    in
    let infl = { infl with trace; span } in
    match Router.submit router req with
    | Router.Answered json -> handle_answer infl json
    | Router.Routed { seq; _ } -> Hashtbl.replace pending seq infl
  in
  let handle_events evs =
    List.iter
      (fun (ev : Router.event) ->
        match Hashtbl.find_opt pending ev.Router.seq with
        | None -> ()
        | Some infl -> (
            Hashtbl.remove pending ev.Router.seq;
            match ev.Router.outcome with
            | Router.Reply { json; _ } -> handle_answer infl json
            | Router.Dropped e -> handle_answer infl (Service.Error.to_json e)))
      evs
  in
  let fire_due_retries () =
    let nw = now () in
    let due, waiting = List.partition (fun (at, _) -> nw >= at) !retry_queue in
    retry_queue := waiting;
    List.iter (fun (_, infl) -> submit_inflight infl) due
  in
  let t0 = now () in
  let fin = t0 +. duration_s in
  let next = ref (t0 +. interarrival prng rps) in
  while now () < fin do
    fire_due_retries ();
    let nw = now () in
    if nw >= !next then begin
      incr offered;
      (* Latency runs from the scheduled arrival, not the actual send:
         when the generator falls behind, the wait is the request's
         (no coordinated omission). *)
      submit_inflight
        { req = Traffic.sample ~batch_jitter prng mix;
          first_sent = !next;
          attempts = 0;
          trace = None;
          span = None };
      (* Schedule from the schedule: open loop. *)
      next := !next +. interarrival prng rps
    end
    else begin
      let next_retry =
        List.fold_left (fun acc (at, _) -> Float.min acc at) infinity
          !retry_queue
      in
      handle_events
        (Router.poll router
           ~timeout_s:
             (Float.max 0.0
                (Float.min (Float.min (!next -. nw) (fin -. nw))
                   (Float.max 0.0 (next_retry -. nw)))))
    end
  done;
  let drain_end = now () +. drain_timeout_s in
  while
    (Hashtbl.length pending > 0 || !retry_queue <> [])
    && now () < drain_end
  do
    fire_due_retries ();
    handle_events (Router.poll router ~timeout_s:0.05)
  done;
  let merged, per_worker = Router.collect_stats router in
  {
    mix = Traffic.name mix;
    target_rps = rps;
    duration_s;
    wall_s = now () -. t0;
    offered = !offered;
    answered = counts.c_answered;
    ok = counts.c_ok;
    degraded = counts.c_degraded;
    shed = counts.c_shed;
    rejected = counts.c_rejected;
    failed = counts.c_failed;
    unanswered = Hashtbl.length pending + List.length !retry_queue;
    retried = counts.c_retried;
    recovered = counts.c_recovered;
    gave_up = counts.c_gave_up;
    latency;
    merged;
    per_worker;
    router = Router.counters router;
    chaos = (match chaos with Some c -> Chaos.fired c | None -> []);
    sampler = Router.sampler_counters router;
    slo = Obs.Slo.report_json (Router.slo router);
    slo_text = Obs.Slo.report_text (Router.slo router);
  }

let report_json r =
  let q p = Util.Json.Float (Obs.Histogram.quantile r.latency p) in
  Util.Json.Obj
    ([
      ("ok", Util.Json.Bool true);
      ("mix", Util.Json.String r.mix);
      ("target_rps", Util.Json.Float r.target_rps);
      ("duration_s", Util.Json.Float r.duration_s);
      ("wall_s", Util.Json.Float r.wall_s);
      ("offered", Util.Json.Int r.offered);
      ( "achieved_rps",
        Util.Json.Float
          (if r.wall_s > 0.0 then float_of_int r.offered /. r.wall_s else 0.0)
      );
      ("answered", Util.Json.Int r.answered);
      ("ok_full", Util.Json.Int r.ok);
      ("degraded", Util.Json.Int r.degraded);
      ("shed", Util.Json.Int r.shed);
      ("rejected", Util.Json.Int r.rejected);
      ("failed", Util.Json.Int r.failed);
      ("unanswered", Util.Json.Int r.unanswered);
      ("retried", Util.Json.Int r.retried);
      ("recovered", Util.Json.Int r.recovered);
      ("gave_up", Util.Json.Int r.gave_up);
      ( "chaos",
        Util.Json.Obj
          (List.map (fun (k, v) -> (k, Util.Json.Int v)) r.chaos) );
      ( "latency_ms",
        Util.Json.Obj
          [
            ("p50", q 0.5);
            ("p90", q 0.9);
            ("p99", q 0.99);
            ("max", Util.Json.Float (Obs.Histogram.max_ms r.latency));
            ("count", Util.Json.Int (Obs.Histogram.count r.latency));
          ] );
      ( "router",
        Util.Json.Obj (List.map (fun (k, v) -> (k, Util.Json.Int v)) r.router)
      );
      ("merged", Service.Metrics.to_json r.merged);
      ("slo", r.slo);
    ]
    @
    match r.sampler with
    | None -> []
    | Some sc ->
        [
          ( "sampler",
            Util.Json.Obj (List.map (fun (k, v) -> (k, Util.Json.Int v)) sc)
          );
        ])

let pr = Printf.sprintf

let report_text r =
  let q p = Obs.Histogram.quantile r.latency p in
  let pct n =
    if r.answered = 0 then 0.0
    else 100.0 *. float_of_int n /. float_of_int r.answered
  in
  String.concat "\n"
    ([
      pr "mix %s  target %.1f rps  wall %.1fs  offered %d (%.1f rps achieved)"
        r.mix r.target_rps r.wall_s r.offered
        (if r.wall_s > 0.0 then float_of_int r.offered /. r.wall_s else 0.0);
      pr "answered %d  full %d (%.1f%%)  degraded %d (%.1f%%)  shed %d \
          (%.1f%%)  rejected %d  failed %d  unanswered %d"
        r.answered r.ok (pct r.ok) r.degraded (pct r.degraded) r.shed
        (pct r.shed) r.rejected r.failed r.unanswered;
      pr "retries %d  recovered %d  gave_up %d%s" r.retried r.recovered
        r.gave_up
        (if r.chaos = [] then ""
         else
           "  chaos "
           ^ String.concat " "
               (List.map (fun (k, v) -> pr "%s:%d" k v) r.chaos));
      pr "latency ms  p50 %.2f  p90 %.2f  p99 %.2f  max %.2f" (q 0.5) (q 0.9)
        (q 0.99)
        (Obs.Histogram.max_ms r.latency);
    ]
    @ (match r.sampler with
      | None -> []
      | Some sc ->
          [
            "sampler  "
            ^ String.concat "  "
                (List.map (fun (k, v) -> pr "%s:%d" k v) sc);
          ])
    @ [ r.slo_text ])

(* Run counters, declared once: name (the Prometheus name is
   [chimera_loadgen_<name>]), help text, and the report field. *)
let run_counters =
  [
    ( "offered",
      "Requests submitted by the load generator.",
      fun r -> r.offered );
    ( "answered",
      "Typed answers received (synchronous included).",
      fun r -> r.answered );
    ("ok_full", "Full fused answers.", fun r -> r.ok);
    ("degraded", "Answers off a degradation-ladder rung.", fun r -> r.degraded);
    ("shed", "Overloaded answers.", fun r -> r.shed);
    ("rejected", "Invalid-request answers.", fun r -> r.rejected);
    ("failed", "Other typed terminal errors.", fun r -> r.failed);
    ( "unanswered",
      "Requests still pending at the drain timeout.",
      fun r -> r.unanswered );
    ("retried", "Resubmissions of retryable errors.", fun r -> r.retried);
    ( "recovered",
      "Logical requests that succeeded after a retry.",
      fun r -> r.recovered );
    ( "gave_up",
      "Retryable errors answered terminally on an exhausted budget.",
      fun r -> r.gave_up );
  ]

(* Prometheus exposition of one run: the fleet's merged + per-worker
   series, the router counters, and the client-side latency histogram
   under chimera_loadgen_*.  Conformant: every metric name gets exactly
   one HELP/TYPE header (the chaos kinds are labels under a single
   chimera_chaos_events header, not one header each). *)
let report_prometheus router r =
  let family name help kind series = { Obs.Prom.name; help; kind; series } in
  Router.prometheus router ~merged:r.merged ~per_worker:r.per_worker
  ^ Obs.Prom.render
      (family "chimera_loadgen_latency_ms"
         "Client-side scheduled-arrival to terminal-answer latency."
         Obs.Prom.Histogram
         [ ([], Obs.Prom.Hist r.latency) ]
      :: List.map
           (fun (name, help, get) ->
             family ("chimera_loadgen_" ^ name) help Obs.Prom.Counter
               [ ([], Obs.Prom.Int (get r)) ])
           run_counters
      @
      match List.filter (fun (k, _) -> k <> "ticks") r.chaos with
      | [] -> []
      | kinds ->
          [
            family "chimera_chaos_events" "Chaos faults fired, by kind."
              Obs.Prom.Counter
              (List.map
                 (fun (kind, v) -> ([ ("kind", kind) ], Obs.Prom.Int v))
                 kinds);
          ])
