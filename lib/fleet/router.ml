(* The fleet front-end: consistent-hash routing of fingerprint keys
   onto N worker processes, admission control with load shedding,
   router-side hot-entry replication, and fleet-level stats
   aggregation.

   The router is single-threaded and event-driven: [submit] makes the
   admission decision synchronously (reject, answer from the hot cache,
   degrade, or route), [poll]/[pump] move bytes.  Workers are plain
   [chimera serve] loops behind pipes (see {!Worker}); because each
   worker answers strictly in order, per-worker FIFO ticket queues are
   the whole correlation story.

   Admission control reuses the service's existing machinery instead of
   inventing new states: past [soft_depth] queued requests the router
   stamps a small [deadline_ms] onto requests that carry none, which
   makes the worker's own deadline + degradation ladder answer quickly
   (typically at the heuristic rung); past [queue_depth] it fast-fails
   with the typed retryable [overloaded] error.  Every request gets a
   typed answer — fused, degraded, or overloaded — never a hang. *)

type config = {
  vnodes : int;
  queue_depth : int;
  soft_depth : int;
  degrade_deadline_ms : float;
  replicate_after : int;
  health_timeout_s : float;
  restart_after : int;
  restart_backoff_s : float;
  breaker_restarts : int;
  breaker_window_s : float;
  response_deadline_s : float;
  spawn_grace_s : float;
}

let default_config =
  {
    vnodes = 128;
    queue_depth = 32;
    soft_depth = 16;
    degrade_deadline_ms = 25.0;
    replicate_after = 2;
    health_timeout_s = 2.0;
    restart_after = 3;
    restart_backoff_s = 0.25;
    breaker_restarts = 8;
    breaker_window_s = 20.0;
    response_deadline_s = 60.0;
    spawn_grace_s = 0.05;
  }

(* Most stored hot responses (FIFO eviction), and the supervisor's
   backoff ceiling. *)
let hot_capacity = 256
let restart_backoff_max_s = 5.0

type hot_entry = { mutable hits : int; mutable stored : Util.Json.t option }

type event = {
  seq : int;
  worker : int;
  client_id : Util.Json.t option;
  outcome : outcome;
}

and outcome =
  | Reply of { line : string; json : Util.Json.t }
  | Dropped of Service.Error.t

(* Distributed-tracing state, present only when the router was created
   with [~tracing:true] (the disabled path must cost nothing on the
   request hot path beyond one option match). *)
type trace_state = {
  collector : Obs.Collector.t;
  sampler : Obs.Sampler.t;
}

(* Everything the router remembers about an in-flight routed request
   beyond its FIFO ticket: when it left, the chaos clock at departure
   (so faults injected while it was out flag its trace), and — with
   tracing on — its router-side trace and open root span. *)
type req_meta = {
  m_sent_at : float;
  m_chaos_at : int;
  m_trace : (Obs.Trace.t * Obs.Trace.open_span) option;
}

type t = {
  cfg : config;
  workers : Worker.t array;
  mutable ring : Ring.t;
  events : event Queue.t;
  hot : (string, hot_entry) Hashtbl.t;
  hot_order : string Queue.t;
  mutable hot_stored : int;
  mutable force_replicate : bool;
  probe_replies : (int, Util.Json.t) Hashtbl.t;
      (* probe replies since the current sweep began, by ticket seq *)
  mutable seq : int;
  (* router-level counters, exposed by [counters] *)
  mutable received : int;
  mutable routed : int;
  mutable shed : int;
  mutable rejected_invalid : int;
  mutable hot_hits : int;
  mutable admission_degraded : int;
  mutable protocol_errors : int;
  mutable worker_restarts : int;
  mutable health_probes : int;
  mutable health_failures : int;
  mutable workers_down : int;
  mutable deadline_drops : int;
  mutable chaos_injected : int;
  (* distributed tracing + SLO *)
  tracing : trace_state option;
  pending_meta : (int, req_meta) Hashtbl.t;
  slo : Obs.Slo.t;
  request_latency_ms : Obs.Histogram.t;
  mutable answered_ok : int;
  mutable answered_total : int;
}

let now () = Unix.gettimeofday ()

let default_slo_objectives =
  [ Obs.Slo.availability 0.999; Obs.Slo.latency ~threshold_ms:250.0 0.99 ]

let create ?(cfg = default_config) ?(tracing = false) ?slo cmds =
  let n = Array.length cmds in
  if n = 0 then invalid_arg "Router.create: no workers";
  if cfg.queue_depth <= 0 || cfg.soft_depth < 0 then
    invalid_arg "Router.create: bad queue depths";
  let workers = Array.init n (fun id -> Worker.spawn ~id ~cmd:cmds.(id)) in
  (* Dead-on-arrival check: create_process cannot report exec failures
     (the child exits 127), so give the fleet a moment and ask.  A
     worker that could not even start is a typed startup error, not an
     endless restart loop. *)
  if cfg.spawn_grace_s > 0.0 then begin
    Unix.sleepf cfg.spawn_grace_s;
    Array.iter
      (fun (w : Worker.t) ->
        match Worker.early_exit w with
        | None -> ()
        | Some reason ->
            Array.iter Worker.kill workers;
            raise
              (Worker.Spawn_failed { cmd = w.Worker.cmd.(0); reason }))
      workers
  end;
  {
    cfg;
    workers;
    ring = Ring.create ~vnodes:cfg.vnodes (List.init n Fun.id);
    events = Queue.create ();
    hot = Hashtbl.create 1024;
    hot_order = Queue.create ();
    hot_stored = 0;
    force_replicate = false;
    probe_replies = Hashtbl.create 8;
    seq = 0;
    received = 0;
    routed = 0;
    shed = 0;
    rejected_invalid = 0;
    hot_hits = 0;
    admission_degraded = 0;
    protocol_errors = 0;
    worker_restarts = 0;
    health_probes = 0;
    health_failures = 0;
    workers_down = 0;
    deadline_drops = 0;
    chaos_injected = 0;
    tracing =
      (if tracing then
         Some
           {
             collector = Obs.Collector.create ();
             sampler = Obs.Sampler.create ~seed:1 ();
           }
       else None);
    pending_meta = Hashtbl.create 64;
    slo =
      (match slo with
      | Some s -> s
      | None -> Obs.Slo.create default_slo_objectives);
    request_latency_ms = Obs.Histogram.create ();
    answered_ok = 0;
    answered_total = 0;
  }

let size t = Array.length t.workers
let worker_pid t id = t.workers.(id).Worker.pid
let worker_restarts_of t id = t.workers.(id).Worker.restarts

(* ------------------------------------------------------------------ *)
(* JSON field surgery (ids and injected deadlines)                      *)
(* ------------------------------------------------------------------ *)

let without_field key = function
  | Util.Json.Obj fields ->
      Util.Json.Obj (List.filter (fun (k, _) -> k <> key) fields)
  | j -> j

let with_field key value = function
  | Util.Json.Obj fields ->
      Util.Json.Obj
        (List.filter (fun (k, _) -> k <> key) fields @ [ (key, value) ])
  | j -> j

let with_id ?id json =
  match id with None -> json | Some v -> with_field "id" v json

(* ------------------------------------------------------------------ *)
(* Distributed tracing + SLO                                            *)
(* ------------------------------------------------------------------ *)

let tracing_enabled t = t.tracing <> None
let slo t = t.slo

(* Feed the SLO engine with the router's cumulative view: every
   terminal answer counts, good iff it answered [ok: true], latency
   measured router-side into the lossless histogram the latency
   objectives read. *)
let observe_slo t ~ok ~latency_ms =
  t.answered_total <- t.answered_total + 1;
  if ok then t.answered_ok <- t.answered_ok + 1;
  Obs.Histogram.observe t.request_latency_ms latency_ms;
  Obs.Slo.observe t.slo ~good:t.answered_ok ~total:t.answered_total
    ~latency:t.request_latency_ms

(* Classify a terminal answer for the tail sampler: [ok] plus the
   retention flags the router can vouch for (the sampler itself adds
   "slow"/"errored"/"retried"). *)
let outcome_of_json json =
  match Util.Json.member "ok" json with
  | Some (Util.Json.Bool true) -> (
      ( true,
        match Util.Json.member "degraded" json with
        | Some Util.Json.Null | None -> []
        | Some _ -> [ "degraded" ] ))
  | _ -> (
      ( false,
        match Util.Json.member "code" json with
        | Some (Util.Json.String "overloaded") -> [ "shed" ]
        | Some (Util.Json.String "deadline_exceeded") -> [ "deadline" ]
        | _ -> [ "failed" ] ))

(* Open this request's router-side trace: adopt the client's wire
   context when the request carried one (loadgen's client span), else
   start a fresh distributed trace here.  The root span is
   ["fleet.request"]; its sid is what the worker's piece parents
   under. *)
let open_request_trace t (req : Service.Request.t) ~attrs =
  match t.tracing with
  | None -> None
  | Some _ ->
      let label = Service.Request.describe req in
      let trace =
        match
          Option.bind req.Service.Request.traceparent (fun tp ->
              match Obs.Trace.of_wire tp with
              | Ok r -> Some r
              | Error _ -> None)
        with
        | Some remote -> Obs.Trace.adopt ~label remote
        | None -> Obs.Trace.make ~label ()
      in
      Option.map
        (fun os -> (trace, os))
        (Obs.Trace.open_span ~attrs (Obs.Trace.ctx trace) "fleet.request")

(* Judge one terminally-answered traced request: close the router
   span, add both local and shipped pieces to the collector, and let
   the tail sampler decide retention. *)
let finalize_trace t (trace, os) ~ok ~flags ~latency_ms ~shipped =
  match t.tracing with
  | None -> ()
  | Some ts ->
      Obs.Trace.open_annot os
        [ ("outcome", if ok then "ok" else String.concat "," flags) ];
      Obs.Trace.close_span ~err:(not ok) os;
      Obs.Collector.add_trace ts.collector ~role:"router" trace;
      (match shipped with
      | Some ship -> ignore (Obs.Collector.add_shipped ts.collector ship)
      | None -> ());
      (match Obs.Collector.take ts.collector (Obs.Trace.id trace) with
      | Some assembled ->
          Obs.Sampler.offer ts.sampler ~flags ~latency_ms ~ok assembled
      | None -> ())

(* The single terminal-answer path for routed requests: every event
   enqueued for a client goes through here, so SLO accounting and
   trace finalization can never miss an outcome. *)
let finish_request t ~seq ~worker ~client_id ~(outcome : outcome) =
  Queue.add { seq; worker; client_id; outcome } t.events;
  match Hashtbl.find_opt t.pending_meta seq with
  | None -> ()
  | Some meta ->
      Hashtbl.remove t.pending_meta seq;
      let latency_ms = (now () -. meta.m_sent_at) *. 1000.0 in
      let json, shipped =
        match outcome with
        | Reply { json; _ } -> (json, Util.Json.member "trace" json)
        | Dropped e -> (Service.Error.to_json e, None)
      in
      let ok, flags = outcome_of_json json in
      let flags =
        (* Faults injected while this request was in flight make its
           trace chaos-affected — always retained. *)
        if t.chaos_injected > meta.m_chaos_at then flags @ [ "chaos" ]
        else flags
      in
      observe_slo t ~ok ~latency_ms;
      (match meta.m_trace with
      | Some pair ->
          finalize_trace t pair ~ok ~flags ~latency_ms ~shipped
      | None -> ())

(* Requests the router answers without a worker round-trip (hot hits,
   shed, invalid): same SLO accounting, and — traced — a zero-depth
   router-only trace so the recorder sees them too. *)
let note_answered t (req : Service.Request.t) json =
  let ok, flags = outcome_of_json json in
  observe_slo t ~ok ~latency_ms:0.0;
  (match open_request_trace t req ~attrs:[ ("answered", "router") ] with
  | Some pair ->
      finalize_trace t pair ~ok ~flags ~latency_ms:0.0 ~shipped:None
  | None -> ());
  json

(* A client-process piece (loadgen's [client.request] spans) arriving
   after its trace was judged: attach it when the trace was retained,
   drop it when sampling passed it over. *)
let note_client_trace t trace =
  match t.tracing with
  | None -> false
  | Some ts -> (
      Obs.Collector.add_trace ts.collector ~role:"client" trace;
      match Obs.Collector.take ts.collector (Obs.Trace.id trace) with
      | Some assembled -> Obs.Sampler.merge_late ts.sampler assembled
      | None -> false)

let flight_json t =
  Option.map (fun ts -> Obs.Sampler.flight_json ts.sampler) t.tracing

let sampler_counters t =
  Option.map (fun ts -> Obs.Sampler.counters ts.sampler) t.tracing

let collector_counters t =
  Option.map
    (fun ts ->
      [
        ("pending", Obs.Collector.pending ts.collector);
        ("shipped_rejected", Obs.Collector.shipped_rejected ts.collector);
      ])
    t.tracing

(* ------------------------------------------------------------------ *)
(* Hot-entry replication                                                *)
(* ------------------------------------------------------------------ *)

let hot_lookup t key =
  match Hashtbl.find_opt t.hot key with
  | Some ({ stored = Some resp; _ } as entry) ->
      entry.hits <- entry.hits + 1;
      Some resp
  | _ -> None

let hot_note_response t key json =
  if t.cfg.replicate_after > 0 then
    match Util.Json.member "ok" json with
    | Some (Util.Json.Bool true) ->
        let entry =
          match Hashtbl.find_opt t.hot key with
          | Some e -> e
          | None ->
              (* Bound the hit-count table itself, not just the stored
                 responses: under a hostile keyspace the counts would
                 otherwise grow without limit. *)
              if Hashtbl.length t.hot > 16384 then
                Hashtbl.iter
                  (fun k e -> if e.stored = None then Hashtbl.remove t.hot k)
                  (Hashtbl.copy t.hot);
              let e = { hits = 0; stored = None } in
              Hashtbl.replace t.hot key e;
              e
        in
        entry.hits <- entry.hits + 1;
        if
          entry.stored = None
          && (t.force_replicate || entry.hits >= t.cfg.replicate_after)
        then begin
          (* Strip the correlation id and any piggybacked span payload:
             a replayed hot answer must not carry another request's
             trace. *)
          entry.stored <- Some (without_field "trace" (without_field "id" json));
          Queue.add key t.hot_order;
          t.hot_stored <- t.hot_stored + 1;
          while t.hot_stored > hot_capacity do
            let victim = Queue.take t.hot_order in
            (match Hashtbl.find_opt t.hot victim with
            | Some e -> e.stored <- None
            | None -> ());
            t.hot_stored <- t.hot_stored - 1
          done
        end
    | _ -> ()

(* ------------------------------------------------------------------ *)
(* Worker lifecycle: the supervisor                                     *)
(* ------------------------------------------------------------------ *)

(* A failing worker goes through [fail_worker]: every queued client is
   answered with a typed retryable error, the process is killed, and a
   respawn is scheduled.  The first strike respawns immediately (a
   single crash should cost nothing but the queued requests); repeated
   strikes within [breaker_window_s] back off exponentially, and
   [breaker_restarts] of them trip the circuit breaker — the slot goes
   permanently down and its ring points are removed, so its keys
   redistribute (~1/N each) over the surviving workers instead of
   feeding a crash loop. *)

let strikes_in_window t (w : Worker.t) ~at =
  List.filter
    (fun ts -> at -. ts <= t.cfg.breaker_window_s)
    w.Worker.restart_strikes

let rec revive t (w : Worker.t) =
  match Worker.respawn w with
  | () ->
      t.worker_restarts <- t.worker_restarts + 1;
      Obs.Log.warn "fleet.worker_restarted"
        [
          ("worker", Util.Json.Int w.Worker.id);
          ("pid", Util.Json.Int w.Worker.pid);
          ("restarts", Util.Json.Int w.Worker.restarts);
        ]
  | exception Worker.Spawn_failed { reason; _ } ->
      (* The binary vanished mid-run: that is a strike too. *)
      note_strike t w ~reason

and note_strike t (w : Worker.t) ~reason =
  let at = now () in
  w.Worker.restart_strikes <- at :: strikes_in_window t w ~at;
  let strikes = List.length w.Worker.restart_strikes in
  if strikes >= t.cfg.breaker_restarts && Ring.size t.ring > 1 then begin
    w.Worker.permanently_down <- true;
    t.ring <- Ring.remove t.ring w.Worker.id;
    t.workers_down <- t.workers_down + 1;
    Obs.Log.error "fleet.worker_down"
      [
        ("worker", Util.Json.Int w.Worker.id);
        ("reason", Util.Json.String reason);
        ("strikes", Util.Json.Int strikes);
        ("remaining_workers", Util.Json.Int (Ring.size t.ring));
      ]
  end
  else begin
    let delay =
      if strikes <= 1 then 0.0
      else
        Float.min restart_backoff_max_s
          (t.cfg.restart_backoff_s *. (2.0 ** float_of_int (strikes - 2)))
    in
    w.Worker.down_until <- at +. delay;
    if delay <= 0.0 then revive t w
    else
      Obs.Log.warn "fleet.worker_backoff"
        [
          ("worker", Util.Json.Int w.Worker.id);
          ("reason", Util.Json.String reason);
          ("strikes", Util.Json.Int strikes);
          ("delay_s", Util.Json.Float delay);
        ]
  end

(* Take a worker down: answer its queue, kill it, let the supervisor
   decide when (whether) it comes back.  [first_error], when given,
   answers the head-of-queue ticket — the request the worker was
   actually busy with — more precisely than the blanket [Overloaded]. *)
let fail_worker ?first_error t (w : Worker.t) ~reason =
  let tickets = Worker.drain_pending w in
  List.iteri
    (fun i (ticket : Worker.ticket) ->
      match ticket.Worker.kind with
      | Worker.Request { client_id; _ } ->
          let err =
            match first_error with
            | Some e when i = 0 -> e
            | _ ->
                Service.Error.Overloaded
                  (Printf.sprintf "worker %d restarted (%s)" w.Worker.id
                     reason)
          in
          finish_request t ~seq:ticket.Worker.seq ~worker:w.Worker.id
            ~client_id ~outcome:(Dropped err)
      | Worker.Probe -> ())
    tickets;
  Worker.kill w;
  note_strike t w ~reason

(* Late-drained worker pieces: error responses could not piggyback
   their spans, so a [cmd:spans] reply carries them — whenever it
   arrives — and they attach to their (already judged) traces when
   retained. *)
let absorb_spans t json =
  match (t.tracing, Util.Json.member "spans" json) with
  | Some ts, Some (Util.Json.List payloads) ->
      List.iter
        (fun payload ->
          match Obs.Collector.add_shipped ts.collector payload with
          | Error _ -> ()
          | Ok trace_id -> (
              match Obs.Collector.take ts.collector trace_id with
              | Some assembled ->
                  ignore (Obs.Sampler.merge_late ts.sampler assembled)
              | None -> ()))
        payloads
  | _ -> ()

let handle_line t (w : Worker.t) line =
  w.Worker.answered <- w.Worker.answered + 1;
  w.Worker.last_reply_at <- now ();
  match Worker.pop_ticket w with
  | None ->
      (* An answer nobody asked for: protocol violation.  FIFO
         correlation is the whole answer-matching story, so a stream
         that produces unsolicited lines cannot be trusted to pair the
         next reply with the right client — restart it. *)
      t.protocol_errors <- t.protocol_errors + 1;
      fail_worker t w ~reason:"unsolicited reply"
  | Some ticket -> (
      match Util.Json.parse line with
      | Error _ ->
          (* One malformed line desynchronizes the FIFO: this ticket is
             answered [Internal] (retryable), the rest of the queue is
             drained with [Overloaded], and the process is replaced. *)
          t.protocol_errors <- t.protocol_errors + 1;
          (match ticket.Worker.kind with
          | Worker.Request { client_id; _ } ->
              finish_request t ~seq:ticket.Worker.seq ~worker:w.Worker.id
                ~client_id
                ~outcome:
                  (Dropped
                     (Service.Error.Internal
                        (Printf.sprintf "worker %d: unparseable reply"
                           w.Worker.id)))
          | Worker.Probe -> ());
          fail_worker t w ~reason:"unparseable reply"
      | Ok json -> (
          w.Worker.consecutive_failures <- 0;
          match ticket.Worker.kind with
          | Worker.Request { key; client_id } ->
              hot_note_response t key json;
              finish_request t ~seq:ticket.Worker.seq ~worker:w.Worker.id
                ~client_id ~outcome:(Reply { line; json })
          | Worker.Probe ->
              absorb_spans t json;
              Hashtbl.replace t.probe_replies ticket.Worker.seq json))

(* The supervisor's periodic duties, run on every pump: resume workers
   whose chaos stall elapsed, respawn workers whose backoff elapsed,
   and fail workers whose head-of-queue request outlived the response
   deadline (the hung-worker recovery path — a SIGSTOPped or wedged
   process never EOFs, so nothing else would notice). *)
let supervise t =
  let nw = now () in
  Array.iter
    (fun (w : Worker.t) ->
      (match w.Worker.resume_at with
      | Some at when nw >= at ->
          Worker.sigcont w;
          w.Worker.resume_at <- None
      | _ -> ());
      if
        (not w.Worker.alive)
        && (not w.Worker.permanently_down)
        && nw >= w.Worker.down_until
      then revive t w;
      if t.cfg.response_deadline_s > 0.0 && w.Worker.alive then
        match Queue.peek_opt w.Worker.pending with
        | Some (ticket : Worker.ticket)
          when nw -. ticket.Worker.sent_at > t.cfg.response_deadline_s ->
            t.deadline_drops <- t.deadline_drops + 1;
            fail_worker t w ~reason:"response deadline exceeded"
              ~first_error:
                (Service.Error.Deadline_exceeded
                   (Printf.sprintf "worker %d answered nothing for %.1fs"
                      w.Worker.id t.cfg.response_deadline_s))
        | _ -> ())
    t.workers

(* Move bytes without draining the event queue: select over worker
   stdout pipes, read what is there, restart workers that died. *)
let pump ?(timeout_s = 0.0) t =
  supervise t;
  let alive =
    Array.to_list t.workers
    |> List.filter (fun (w : Worker.t) -> w.Worker.alive)
  in
  let fds = List.map (fun (w : Worker.t) -> w.Worker.stdout_fd) alive in
  match Unix.select fds [] [] timeout_s with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | readable, _, _ ->
      List.iter
        (fun (w : Worker.t) ->
          if List.memq w.Worker.stdout_fd readable then
            match Worker.read_lines w with
            | `Eof _ -> fail_worker t w ~reason:"process died"
            | `Lines lines ->
                (* A line can fail the worker (garbage); anything after
                   it in the same read belongs to a dead process. *)
                List.iter
                  (fun line ->
                    if w.Worker.alive then handle_line t w line)
                  lines)
        alive

let poll ?(timeout_s = 0.0) t =
  pump ~timeout_s t;
  let evs = List.of_seq (Queue.to_seq t.events) in
  Queue.clear t.events;
  evs

(* ------------------------------------------------------------------ *)
(* Admission + routing                                                  *)
(* ------------------------------------------------------------------ *)

type submit_outcome =
  | Routed of { worker : int; seq : int }
  | Answered of Util.Json.t

let overloaded_json ?id what =
  Service.Error.to_json ?id (Service.Error.Overloaded what)

let submit ?id ?raw t (req : Service.Request.t) =
  t.received <- t.received + 1;
  match Service.Request.resolve req with
  | Error e ->
      (* Validation at the front door: an invalid request never costs a
         worker round-trip or a queue slot. *)
      t.rejected_invalid <- t.rejected_invalid + 1;
      Answered (note_answered t req (Service.Error.to_json ?id e))
  | Ok (chain, machine) -> (
      let config = Service.Request.config_of req in
      let fp = Service.Fingerprint.of_request ~chain ~machine ~config in
      let key = Service.Fingerprint.to_hex fp in
      match hot_lookup t key with
      | Some resp ->
          t.hot_hits <- t.hot_hits + 1;
          Answered (note_answered t req (with_id ?id resp))
      | None ->
          let w = t.workers.(Ring.lookup t.ring key) in
          if not w.Worker.alive then begin
            (* The owner is in restart backoff: shed (retryable) rather
               than queue onto a corpse.  Permanently-down workers never
               reach here — the breaker removed them from the ring. *)
            t.shed <- t.shed + 1;
            Answered
              (note_answered t req
                 (overloaded_json ?id
                    (Printf.sprintf "worker %d restarting" w.Worker.id)))
          end
          else
          let depth = Worker.depth w in
          if depth >= t.cfg.queue_depth then begin
            t.shed <- t.shed + 1;
            Answered
              (note_answered t req
                 (overloaded_json ?id
                    (Printf.sprintf "worker %d queue full (%d inflight)"
                       w.Worker.id depth)))
          end
          else begin
            let json =
              with_id ?id
                (match raw with
                | Some j -> j
                | None -> Service.Request.to_json req)
            in
            (* The soft band: stamp a tight planning budget onto
               requests that carry none, so the worker's deadline +
               degradation ladder answers fast instead of queueing
               work it cannot afford. *)
            let json =
              if depth >= t.cfg.soft_depth && req.Service.Request.deadline_ms = None
              then begin
                t.admission_degraded <- t.admission_degraded + 1;
                with_field "deadline_ms"
                  (Util.Json.Float t.cfg.degrade_deadline_ms) json
              end
              else json
            in
            (* Tracing: open the router's root span for this request
               (adopting the client's context if it sent one) and
               re-stamp the forwarded traceparent so the worker parents
               under the router span, not the client span. *)
            let tr =
              open_request_trace t req
                ~attrs:[ ("worker", string_of_int w.Worker.id) ]
            in
            let json =
              match tr with
              | Some (_, os) -> (
                  match Obs.Trace.to_wire (Obs.Trace.open_ctx os) with
                  | Some tp ->
                      with_field "traceparent" (Util.Json.String tp) json
                  | None -> json)
              | None -> json
            in
            t.seq <- t.seq + 1;
            let seq = t.seq in
            if Worker.send_line w (Util.Json.to_string json) then begin
              Worker.enqueue w ~seq ~kind:(Worker.Request { key; client_id = id });
              Hashtbl.replace t.pending_meta seq
                {
                  m_sent_at = now ();
                  m_chaos_at = t.chaos_injected;
                  m_trace = tr;
                };
              t.routed <- t.routed + 1;
              Routed { worker = w.Worker.id; seq }
            end
            else begin
              (* The pipe died under us: restart the slot and shed this
                 request (retryable — the fresh worker will take it). *)
              fail_worker t w ~reason:"write failed";
              t.shed <- t.shed + 1;
              let json = overloaded_json ?id
                  (Printf.sprintf "worker %d restarting" w.Worker.id)
              in
              let ok, flags = outcome_of_json json in
              observe_slo t ~ok ~latency_ms:0.0;
              (match tr with
              | Some pair ->
                  finalize_trace t pair ~ok ~flags ~latency_ms:0.0
                    ~shipped:None
              | None -> ());
              Answered json
            end
          end)

(* ------------------------------------------------------------------ *)
(* Health checking                                                      *)
(* ------------------------------------------------------------------ *)

let probe_json = {|{"cmd": "health"}|}
let stats_json_line = {|{"cmd": "stats", "full": true}|}
let spans_json_line = {|{"cmd": "spans"}|}

(* The one send-and-wait sweep: send [line] to every live worker and
   pump until each has answered or [timeout_s] passed.  Replies are
   matched by ticket seq, so a late reply to an earlier sweep can never
   answer this one.  A failed write restarts the slot.  Request events
   arriving meanwhile stay queued for the caller's next [poll].
   Returns each probed worker with its reply, if it came in time. *)
let broadcast t ~timeout_s line =
  Hashtbl.reset t.probe_replies;
  let probed =
    Array.to_list t.workers
    |> List.filter_map (fun (w : Worker.t) ->
           if not w.Worker.alive then None
           else if Worker.send_line w line then begin
             t.seq <- t.seq + 1;
             Worker.enqueue w ~seq:t.seq ~kind:Worker.Probe;
             Some (w, t.seq)
           end
           else begin
             fail_worker t w ~reason:"probe write failed";
             None
           end)
  in
  let deadline = now () +. timeout_s in
  while
    List.exists (fun (_, seq) -> not (Hashtbl.mem t.probe_replies seq)) probed
    && now () < deadline
  do
    pump ~timeout_s:(Float.max 0.01 (Float.min 0.05 (deadline -. now ()))) t
  done;
  List.map (fun (w, seq) -> (w, Hashtbl.find_opt t.probe_replies seq)) probed

(* Ask every worker for its spooled ship payloads (the spans of traced
   error responses); [handle_line] applies them as they arrive.
   Returns how many workers answered the sweep.  No-op with tracing
   off. *)
let drain_spans ?(timeout_s = 2.0) t =
  if not (tracing_enabled t) then 0
  else
    List.length
      (List.filter
         (fun (_, reply) -> reply <> None)
         (broadcast t ~timeout_s spans_json_line))

(* Synchronous in-band health sweep.  The serve loop is serial, so the
   reply arriving at all is the liveness signal; a worker that answers
   nothing within [health_timeout_s] scores a consecutive failure, and
   [restart_after] of those restarts the slot. *)
let check_health ?timeout_s t =
  let timeout_s =
    match timeout_s with Some s -> s | None -> t.cfg.health_timeout_s
  in
  Array.iter
    (fun (w : Worker.t) ->
      if w.Worker.alive then t.health_probes <- t.health_probes + 1)
    t.workers;
  let results =
    List.map
      (fun ((w : Worker.t), reply) ->
        match reply with
        | Some json -> (w.Worker.id, `Ok json)
        | None ->
            t.health_failures <- t.health_failures + 1;
            w.Worker.consecutive_failures <- w.Worker.consecutive_failures + 1;
            if w.Worker.consecutive_failures >= t.cfg.restart_after then begin
              fail_worker t w ~reason:"unresponsive to health probes";
              (w.Worker.id, `Restarted)
            end
            else (w.Worker.id, `Unanswered))
      (broadcast t ~timeout_s probe_json)
  in
  (* The health sweep doubles as the span drain: flagged error traces
     reach the flight recorder within one sweep period. *)
  if tracing_enabled t then ignore (drain_spans ~timeout_s:0.5 t);
  results

(* ------------------------------------------------------------------ *)
(* Fleet-level stats                                                    *)
(* ------------------------------------------------------------------ *)

(* Ask every worker for its lossless wire metrics and merge them:
   counters add, histograms merge bucket-by-bucket (Obs.Histogram), so
   fleet p50/p99 are computed from the pooled stream, not averaged
   quantiles.  Workers that answer nothing within the timeout are
   simply absent from this scrape. *)
let collect_stats ?(timeout_s = 5.0) t =
  let per_worker =
    List.filter_map
      (fun ((w : Worker.t), reply) ->
        Option.bind reply (fun json ->
            match Service.Metrics.of_wire_json json with
            | Ok m -> Some (w.Worker.id, m)
            | Error _ ->
                t.protocol_errors <- t.protocol_errors + 1;
                None))
      (broadcast t ~timeout_s stats_json_line)
  in
  let merged = Service.Metrics.create () in
  List.iter (fun (_, m) -> Service.Metrics.merge ~into:merged m) per_worker;
  (merged, per_worker)

(* Router-level counters, declared once: name (the Prometheus name is
   [chimera_fleet_<name>]), help text, and the field it reads. *)
let counter_families =
  [
    ("received", "Requests received by the router.", fun t -> t.received);
    ("routed", "Requests forwarded to a worker.", fun t -> t.routed);
    ("shed", "Requests fast-failed by admission control.", fun t -> t.shed);
    ( "rejected_invalid",
      "Requests rejected by front-door validation.",
      fun t -> t.rejected_invalid );
    ( "hot_hits",
      "Requests answered from the router's hot cache.",
      fun t -> t.hot_hits );
    ( "admission_degraded",
      "Requests stamped with a degrade deadline by the soft band.",
      fun t -> t.admission_degraded );
    ( "protocol_errors",
      "Worker protocol violations.",
      fun t -> t.protocol_errors );
    ( "worker_restarts",
      "Worker processes restarted by the supervisor.",
      fun t -> t.worker_restarts );
    ("health_probes", "Health probes sent.", fun t -> t.health_probes);
    ( "health_failures",
      "Health probes unanswered in time.",
      fun t -> t.health_failures );
    ( "workers_down",
      "Workers permanently removed by the circuit breaker.",
      fun t -> t.workers_down );
    ( "deadline_drops",
      "Workers failed for exceeding the response deadline.",
      fun t -> t.deadline_drops );
    ("chaos_injected", "Chaos faults injected.", fun t -> t.chaos_injected);
  ]

let counters t = List.map (fun (name, _, get) -> (name, get t)) counter_families

(* ------------------------------------------------------------------ *)
(* Per-worker lifecycle (cmd:health / cmd:stats / Prometheus)           *)
(* ------------------------------------------------------------------ *)

type worker_state = {
  ws_id : int;
  ws_pid : int;
  ws_alive : bool;
  ws_permanently_down : bool;
  ws_restarts : int;
  ws_consecutive_health_failures : int;
  ws_depth : int;
}

let worker_states t =
  Array.to_list t.workers
  |> List.map (fun (w : Worker.t) ->
         {
           ws_id = w.Worker.id;
           ws_pid = w.Worker.pid;
           ws_alive = w.Worker.alive;
           ws_permanently_down = w.Worker.permanently_down;
           ws_restarts = w.Worker.restarts;
           ws_consecutive_health_failures = w.Worker.consecutive_failures;
           ws_depth = Worker.depth w;
         })

let worker_state_json ws =
  Util.Json.Obj
    [
      ("worker", Util.Json.Int ws.ws_id);
      ("pid", Util.Json.Int ws.ws_pid);
      ("alive", Util.Json.Bool ws.ws_alive);
      ("permanently_down", Util.Json.Bool ws.ws_permanently_down);
      ("restarts", Util.Json.Int ws.ws_restarts);
      ( "consecutive_health_failures",
        Util.Json.Int ws.ws_consecutive_health_failures );
      ("depth", Util.Json.Int ws.ws_depth);
    ]

(* ------------------------------------------------------------------ *)
(* Chaos                                                                *)
(* ------------------------------------------------------------------ *)

(* Apply one scheduled fault.  Recovery is deliberately left to the
   regular machinery — EOF handling, response deadlines, the health
   sweep, the supervisor — because that is precisely what chaos runs
   exist to exercise. *)
let inject t (ev : Chaos.event) =
  t.chaos_injected <- t.chaos_injected + 1;
  let w = t.workers.(ev.Chaos.worker mod Array.length t.workers) in
  Obs.Log.warn "fleet.chaos_inject"
    [
      ("event", Util.Json.String (Chaos.event_to_string ev));
      ("pid", Util.Json.Int w.Worker.pid);
      ("alive", Util.Json.Bool w.Worker.alive);
    ];
  if w.Worker.alive then
    match ev.Chaos.kind with
    | Chaos.Kill -> (
        (* Death surfaces as EOF on the next pump; queued clients are
           answered there. *)
        try Unix.kill w.Worker.pid Sys.sigkill with Unix.Unix_error _ -> ())
    | Chaos.Hang -> Worker.sigstop w
    | Chaos.Slow { stall_ms } ->
        Worker.sigstop w;
        w.Worker.resume_at <- Some (now () +. (stall_ms /. 1000.0))
    | Chaos.Garbage ->
        (* As if the worker emitted a malformed line: feeds the same
           protocol-error path a real corruption would. *)
        handle_line t w "{chaos garbage, not json"

let stats_json ?id t ~merged ~per_worker =
  Service.Serve.control ?id
    ([
        ("workers", Util.Json.Int (size t));
        ("workers_reporting", Util.Json.Int (List.length per_worker));
        ( "router",
          Util.Json.Obj
            (List.map (fun (k, v) -> (k, Util.Json.Int v)) (counters t)) );
        ( "worker_states",
          Util.Json.List (List.map worker_state_json (worker_states t)) );
        ("merged", Service.Metrics.to_json merged);
        ("slo", Obs.Slo.report_json t.slo);
      ]
    @
    match (sampler_counters t, collector_counters t) with
    | Some sc, Some cc ->
        [
          ( "trace",
            Util.Json.Obj
              [
                ( "sampler",
                  Util.Json.Obj
                    (List.map (fun (k, v) -> (k, Util.Json.Int v)) sc) );
                ( "collector",
                  Util.Json.Obj
                    (List.map (fun (k, v) -> (k, Util.Json.Int v)) cc) );
              ] );
        ]
    | _ -> [])

(* One text exposition for the whole fleet: merged unlabelled series
   (true fleet-wide quantiles via histogram merge) grouped with the
   per-worker labelled series under a single header per metric, the
   router's own counters under a [chimera_fleet_] prefix, per-slot
   lifecycle series, and the SLO gauges. *)
let prometheus t ~merged ~per_worker =
  let fleet name help kind series =
    { Obs.Prom.name = "chimera_fleet_" ^ name; help; kind; series }
  in
  let per_slot get =
    List.map
      (fun ws ->
        ([ ("worker", string_of_int ws.ws_id) ], Obs.Prom.Int (get ws)))
      (worker_states t)
  in
  let flag b = if b then 1 else 0 in
  String.concat ""
    [
      Service.Metrics.to_prometheus_many
        (([], merged)
        :: List.map
             (fun (id, m) -> ([ ("worker", string_of_int id) ], m))
             per_worker);
      Obs.Prom.render
        (List.map
           (fun (name, help, get) ->
             fleet name help Obs.Prom.Counter [ ([], Obs.Prom.Int (get t)) ])
           counter_families
        @ [
            fleet "workers" "Fleet slots (including downed workers)."
              Obs.Prom.Gauge
              [ ([], Obs.Prom.Int (size t)) ];
            fleet "worker_restarts_total" "Restarts of this worker slot."
              Obs.Prom.Counter
              (per_slot (fun ws -> ws.ws_restarts));
            fleet "worker_up" "Whether the worker process is alive."
              Obs.Prom.Gauge
              (per_slot (fun ws -> flag ws.ws_alive));
            fleet "worker_permanently_down"
              "Whether the circuit breaker removed this slot." Obs.Prom.Gauge
              (per_slot (fun ws -> flag ws.ws_permanently_down));
          ]);
      Obs.Slo.to_prometheus t.slo;
    ]

(* ------------------------------------------------------------------ *)
(* Prewarm                                                              *)
(* ------------------------------------------------------------------ *)

(* Push a request list (typically a traffic mix's unique requests)
   through the fleet before opening the doors: every worker's plan
   cache — and the shared on-disk tier, when configured — ends up
   holding the plans its keys hash to, and each answer is replicated
   into the router's hot cache immediately.  Returns the number of
   requests answered in time. *)
let prewarm ?(timeout_s = 120.0) t reqs =
  t.force_replicate <- true;
  let outstanding = Hashtbl.create 64 in
  let done_count = ref 0 in
  List.iter
    (fun req ->
      match submit t req with
      | Answered _ -> incr done_count
      | Routed { seq; _ } -> Hashtbl.replace outstanding seq ())
    reqs;
  let deadline = now () +. timeout_s in
  while Hashtbl.length outstanding > 0 && now () < deadline do
    List.iter
      (fun (ev : event) ->
        if Hashtbl.mem outstanding ev.seq then begin
          Hashtbl.remove outstanding ev.seq;
          incr done_count
        end)
      (poll ~timeout_s:0.05 t)
  done;
  t.force_replicate <- false;
  !done_count

(* ------------------------------------------------------------------ *)
(* Shutdown                                                             *)
(* ------------------------------------------------------------------ *)

let shutdown ?(timeout_s = 2.0) t =
  (* Last span sweep: flagged traces whose error responses predate the
     final health drain still reach the flight recorder. *)
  if tracing_enabled t then begin
    Array.iter (fun (w : Worker.t) -> Worker.sigcont w) t.workers;
    ignore (drain_spans ~timeout_s:(Float.min 1.0 timeout_s) t)
  end;
  Array.iter
    (fun (w : Worker.t) ->
      if w.Worker.alive then begin
        (* A chaos-stopped worker cannot process quit; wake it first. *)
        Worker.sigcont w;
        ignore (Worker.send_line w {|{"cmd": "quit"}|})
      end)
    t.workers;
  let deadline = now () +. timeout_s in
  Array.iter
    (fun (w : Worker.t) ->
      if w.Worker.alive then begin
        let rec wait () =
          match Unix.waitpid [ Unix.WNOHANG ] w.Worker.pid with
          | 0, _ ->
              if now () < deadline then begin
                Unix.sleepf 0.01;
                wait ()
              end
              else Worker.kill w
          | _, _ | (exception Unix.Unix_error _) ->
              (* Exited (or already reaped): just release the pipes. *)
              w.Worker.alive <- false;
              (try Unix.close w.Worker.stdin_fd with Unix.Unix_error _ -> ());
              (try Unix.close w.Worker.stdout_fd with Unix.Unix_error _ -> ())
        in
        wait ()
      end)
    t.workers
