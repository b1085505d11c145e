let response_of_unit (u : Chimera.Compiler.unit_) =
  let open Util.Json in
  Obj
    [
      ("kernel", String u.sub_chain.Ir.Chain.name);
      ("order", String (String.concat "" u.kernel.Codegen.Kernel.perm));
      ( "tiling",
        Obj
          (List.map
             (fun (axis, size) -> (axis, Int size))
             (Analytical.Tiling.bindings u.kernel.Codegen.Kernel.tiling)) );
      ("dv_bytes", Float (Codegen.Kernel.predicted_dv_bytes u.kernel));
      ("mu_bytes", Int (Codegen.Kernel.predicted_mu_bytes u.kernel));
    ]

let timings_json trace =
  Util.Json.Obj
    (List.map
       (fun (name, ms) -> (name, Util.Json.Float ms))
       (Obs.Trace.phase_totals_ms trace))

(* The line envelope, shared with the fleet bridge so a fleet answers
   exactly like one worker: parse, pick out [id] and [cmd], and the
   answers that do not depend on what the line asked for. *)
type line = { id : Util.Json.t option; cmd : string option; json : Util.Json.t }

let parse_line text =
  match Util.Json.parse text with
  | Error reason -> Error (Error.Invalid_request { field = "json"; reason })
  | Ok json ->
      Ok
        {
          id = Util.Json.member "id" json;
          cmd =
            Option.bind (Util.Json.member "cmd" json) Util.Json.to_string_opt;
          json;
        }

let unknown_cmd cmd =
  Error.Invalid_request
    { field = "cmd"; reason = Printf.sprintf "unknown cmd %S" cmd }

(* The line's ["id"], echoed first in every answer object. *)
let with_id ?id json =
  match (id, json) with
  | Some v, Util.Json.Obj fields -> Util.Json.Obj (("id", v) :: fields)
  | _ -> json

let control ?id fields =
  with_id ?id (Util.Json.Obj (("ok", Util.Json.Bool true) :: fields))

let response_json ?id ?timings_of ?ship req (r : Batch.response) =
  let open Util.Json in
  with_id ?id @@ Obj
    ([
        ("ok", Bool true);
        ("workload", String req.Request.workload);
        ("arch", String req.Request.arch);
        ("fingerprint", String (Fingerprint.to_hex r.Batch.fingerprint));
        ( "source",
          String
            (match r.Batch.source with
            | Batch.Cache -> "cache"
            | Batch.Compiled -> "compiled") );
        ("rung", String (Plan_cache.rung_to_string r.Batch.rung));
        ( "degraded",
          match r.Batch.degraded with Some s -> String s | None -> Null );
        ("units", List (List.map response_of_unit
                          r.Batch.compiled.Chimera.Compiler.units));
        ("estimated_us", Float (r.Batch.estimated_seconds *. 1e6));
        ("compile_ms", Float (r.Batch.seconds *. 1e3));
      ]
    (* trace_id and timings_ms only appear when the request opted in
       ("timings": true), so existing clients see an unchanged schema. *)
    @ (match timings_of with
      | Some trace ->
          [
            ("trace_id", String (Obs.Trace.id trace));
            ("timings_ms", timings_json trace);
          ]
      | None -> [])
    @
    (* The certificate verdict appears whenever verification ran
       (even with zero diagnostics); like verification below, it is
       omitted entirely when the passes were off, so clients that
       never ask see an unchanged schema. *)
    (match r.Batch.certificate with
    | Some verdict -> [ ("certificate", String verdict) ]
    | None -> [])
    @ (* The verification field only appears when the passes ran, so
         clients that never ask for verification see an unchanged
         schema. *)
    (match r.Batch.verification with
    | [] -> []
    | ds ->
        [
          ( "verification",
            List (List.map Verify.Diagnostic.to_json ds) );
        ])
    @
    (* Completed spans ride back piggybacked on the response when the
       request carried a trace context, so the router can assemble the
       distributed trace without an extra round trip. *)
    match ship with Some s -> [ ("trace", s) ] | None -> [])

let default_trace_ring = 32

let run ?cache_dir ?default_deadline_ms ?(verify = Batch.Verify_off) ic oc =
  let metrics = Metrics.create () in
  (* Every request is planned on the shared pool: the per-order solves
     of a single request fan across the lanes, so the serve loop is
     multicore even at its natural batch size of one. *)
  let pool = Util.Pool.global () in
  let cache = Plan_cache.create ~metrics () in
  (* The last N request traces, dumpable with {"cmd": "traces"} —
     bounded memory however long the server runs. *)
  let ring : Obs.Trace.t Obs.Ring.t = Obs.Ring.create default_trace_ring in
  (* Ship payloads for traced requests whose response could not carry
     them (error responses keep their wire schema).  The router drains
     this with {"cmd": "spans"} on its health sweep; bounded, so an
     undrained spool costs memory never growth — evictions are counted
     into [trace_ring_evictions]. *)
  let span_spool : Util.Json.t Obs.Ring.t =
    Obs.Ring.create (Int.max 64 default_trace_ring)
  in
  let note_trace_loss () =
    metrics.Metrics.trace_ring_evictions <-
      Obs.Ring.evicted ring + Obs.Ring.evicted span_spool
  in
  (* A discarded (corrupt/stale) cache file is a cold start, not a
     failure; it is already counted in [metrics.cache_corrupt] and the
     reason goes to the structured log so operators can see it without
     a client ever noticing. *)
  Option.iter
    (fun dir ->
      match Plan_cache.load cache ~dir with
      | Plan_cache.Loaded _ | Plan_cache.Absent -> ()
      | Plan_cache.Discarded reason ->
          Obs.Log.warn "cache.discarded"
            [ ("reason", Util.Json.String reason) ])
    cache_dir;
  let emit json =
    output_string oc (Util.Json.to_string json);
    output_char oc '\n';
    flush oc
  in
  (* Health-check state for the fleet router: when the worker started,
     and the last error it answered (any kind — invalid request,
     failed planning, internal).  [cmd:health] reports both. *)
  let started_at = Unix.gettimeofday () in
  let last_error = ref None in
  let emit_error ?id e =
    last_error := Some (Error.to_string e);
    emit (Error.to_json ?id e)
  in
  let persist () =
    Option.iter
      (fun dir ->
        if Plan_cache.dirty cache then
          match Plan_cache.save_with_retry cache ~dir with
          | Ok () -> ()
          | Error reason ->
              (* Losing write-back costs warmth on restart, nothing
                 else — log it, count it, keep serving. *)
              metrics.Metrics.internal_errors <-
                metrics.Metrics.internal_errors + 1;
              Obs.Log.error "cache.writeback_failed"
                [ ("reason", Util.Json.String reason) ])
      cache_dir
  in
  let handle_request ?id json =
    match Request.decode json with
    | Error e ->
        metrics.Metrics.invalid_requests <-
          metrics.Metrics.invalid_requests + 1;
        emit_error ?id e
    | Ok req -> (
        match Request.resolve req with
        | Error e ->
            (* resolve's rejections are counted by Batch via
               [note_response] only on the batch path; here we answer
               directly. *)
            metrics.Metrics.requests <- metrics.Metrics.requests + 1;
            metrics.Metrics.failed <- metrics.Metrics.failed + 1;
            metrics.Metrics.invalid_requests <-
              metrics.Metrics.invalid_requests + 1;
            Obs.Log.warn "request.rejected"
              [
                ("request", Util.Json.String (Request.describe req));
                ("error", Util.Json.String (Error.to_string e));
              ];
            emit_error ?id e
        | Ok (chain, machine) -> (
            let config = Request.config_of req in
            let deadline =
              Request.deadline_of ?default_ms:default_deadline_ms req
            in
            let label = Request.describe req in
            (* A well-formed traceparent parents this request's trace
               under the router's span; a malformed one is ignored (a
               broken header must never fail the request). *)
            let remote =
              Option.bind req.Request.traceparent (fun tp ->
                  match Obs.Trace.of_wire tp with
                  | Ok r -> Some r
                  | Error _ -> None)
            in
            let trace =
              match remote with
              | Some r -> Obs.Trace.adopt ~label r
              | None -> Obs.Trace.make ~label ()
            in
            let result =
              Batch.compile ~cache ~metrics ~config ?deadline ~pool ~verify
                ~obs:trace ~machine chain
            in
            (* Failed requests keep their trace too: the ring is a
               debugging aid, and failures are what it is for. *)
            Obs.Ring.push ring trace;
            metrics.Metrics.trace_spans_dropped <-
              metrics.Metrics.trace_spans_dropped + Obs.Trace.dropped trace;
            note_trace_loss ();
            match result with
            | Ok r ->
                Obs.Log.info ~trace:(Obs.Trace.id trace) "request.done"
                  [
                    ("request", Util.Json.String (Request.describe req));
                    ( "source",
                      Util.Json.String
                        (match r.Batch.source with
                        | Batch.Cache -> "cache"
                        | Batch.Compiled -> "compiled") );
                    ( "rung",
                      Util.Json.String (Plan_cache.rung_to_string r.Batch.rung)
                    );
                    ("compile_ms", Util.Json.Float (r.Batch.seconds *. 1e3));
                  ];
                emit
                  (response_json ?id
                     ?timings_of:(if req.Request.timings then Some trace
                                  else None)
                     ?ship:
                       (if remote <> None then
                          Some (Obs.Trace.to_ship_json trace)
                        else None)
                     req r);
                (* Write-back on change so a restarted server is warm. *)
                persist ()
            | Error e ->
                Obs.Log.warn ~trace:(Obs.Trace.id trace) "request.failed"
                  [
                    ("request", Util.Json.String (Request.describe req));
                    ("error", Util.Json.String (Error.to_string e));
                  ];
                (* Error responses keep their wire schema, so the spans
                   of a traced failure wait in the spool for the
                   router's next [cmd:spans] drain. *)
                if remote <> None then begin
                  Obs.Ring.push span_spool (Obs.Trace.to_ship_json trace);
                  note_trace_loss ()
                end;
                emit_error ?id e))
  in
  let handle_line text =
    Failpoint.hit ~ctx:text "serve.handle";
    match parse_line text with
    | Error e ->
        metrics.Metrics.invalid_requests <-
          metrics.Metrics.invalid_requests + 1;
        emit_error e;
        `Continue
    | Ok { id; cmd; json } -> (
        match cmd with
        | Some "stats" ->
            (* "full": true answers the lossless wire form (per-bucket
               histogram counts) that the fleet router merges across
               workers; the default stays the human-oriented summary. *)
            let full =
              Option.bind (Util.Json.member "full" json)
                Util.Json.to_bool_opt
              = Some true
            in
            emit
              (with_id ?id
                 (if full then Metrics.to_wire_json metrics
                  else Metrics.to_json metrics));
            `Continue
        | Some "health" ->
            (* Liveness for the fleet router: a wedged worker answers
               nothing (the loop is serial), so merely getting this
               reply is the health signal; the payload is for
               dashboards and restart forensics.  [inflight] counts
               requests being handled as this is answered — zero by
               construction here; the router tracks queued depth from
               its side. *)
            emit
              (control ?id
                 [
                   ("pid", Util.Json.Int (Unix.getpid ()));
                   ( "uptime_s",
                     Util.Json.Float (Unix.gettimeofday () -. started_at) );
                   ("cache_entries", Util.Json.Int (Plan_cache.length cache));
                   ( "cache_capacity",
                     Util.Json.Int (Plan_cache.capacity cache) );
                   ("inflight", Util.Json.Int 0);
                   ("requests", Util.Json.Int metrics.Metrics.requests);
                   ("failed", Util.Json.Int metrics.Metrics.failed);
                   ( "last_error",
                     match !last_error with
                     | Some e -> Util.Json.String e
                     | None -> Util.Json.Null );
                 ]);
            `Continue
        | Some "spans" ->
            (* Drain the shipped-span spool: the completed traces of
               error responses (whose schema cannot carry a ["trace"]
               field).  The router calls this on its health sweep and
               at shutdown so flagged traces reach the flight recorder. *)
            let payloads = Obs.Ring.drain span_spool in
            emit
              (control ?id
                 [
                   ("count", Util.Json.Int (List.length payloads));
                   ("spans", Util.Json.List payloads);
                 ]);
            `Continue
        | Some "traces" ->
            let traces = Obs.Ring.to_list ring in
            emit
              (control ?id
                 [
                   ("count", Util.Json.Int (List.length traces));
                   ( "traces",
                     Util.Json.List (List.map Obs.Trace.to_json traces) );
                 ]);
            `Continue
        | Some "quit" ->
            emit (control ?id []);
            `Stop
        | Some other ->
            metrics.Metrics.invalid_requests <-
              metrics.Metrics.invalid_requests + 1;
            emit_error ?id (unknown_cmd other);
            `Continue
        | None -> handle_request ?id json; `Continue)
  in
  let stop = ref false in
  while not !stop do
    match input_line ic with
    | exception End_of_file -> stop := true
    | line when String.trim line = "" -> ()
    | line -> (
        (* The loop's last line of defence: whatever one line's handling
           raises — a compiler bug, an injected fault — is answered as a
           typed internal error and counted, never allowed to take the
           server down.  (Emitting the answer can still fail if stdout
           itself is gone, and then dying is correct.) *)
        match handle_line line with
        | `Continue -> ()
        | `Stop -> stop := true
        | exception e ->
            metrics.Metrics.internal_errors <-
              metrics.Metrics.internal_errors + 1;
            Obs.Log.error "serve.internal"
              [ ("error", Util.Json.String (Printexc.to_string e)) ];
            emit_error (Error.of_exn e))
  done;
  persist ()
