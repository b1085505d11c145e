(* The fleet's own JSONL loop behind [chimera fleet]: client lines in
   on [input], answers out on [output].  Request lines are routed (and
   answered out of arrival order — clients correlate by their [id]
   field, as docs/FLEET.md warns); [cmd:stats] and [cmd:health] are
   answered fleet-wide.  The line envelope — parse, [id]/[cmd],
   malformed-JSON and unknown-command errors, control answers — is the
   serve loop's own ({!Service.Serve.parse_line}), so the fleet answers
   those lines exactly like a single worker. *)

let health_status_json (wid, st) =
  Util.Json.Obj
    (("worker", Util.Json.Int wid)
    ::
    (match st with
    | `Ok json -> [ ("status", Util.Json.String "ok"); ("health", json) ]
    | `Unanswered -> [ ("status", Util.Json.String "unanswered") ]
    | `Restarted -> [ ("status", Util.Json.String "restarted") ]))

let health_json ?id router results =
  Service.Serve.control ?id
    [
      ("workers", Util.Json.Int (Router.size router));
      ("statuses", Util.Json.List (List.map health_status_json results));
      ( "worker_states",
        Util.Json.List
          (List.map Router.worker_state_json (Router.worker_states router)) );
    ]

let run ?(health_interval_s = 5.0) ?chaos ~input ~output router =
  let emit_line line =
    output_string output line;
    output_char output '\n';
    flush output
  in
  let emit json = emit_line (Util.Json.to_string json) in
  let stop = ref false and eof = ref false and inflight = ref 0 in
  let deliver_events () =
    List.iter
      (fun (ev : Router.event) ->
        decr inflight;
        match ev.Router.outcome with
        | Router.Reply { line; _ } -> emit_line line
        | Router.Dropped e ->
            emit (Service.Error.to_json ?id:ev.Router.client_id e))
      (Router.poll router)
  in
  let handle_line text =
    if String.trim text <> "" then
      match Service.Serve.parse_line text with
      | Error e -> emit (Service.Error.to_json e)
      | Ok { id; cmd; json } -> (
          match cmd with
          | Some "stats" ->
              let merged, per_worker = Router.collect_stats router in
              emit (Router.stats_json ?id router ~merged ~per_worker)
          | Some "health" ->
              emit (health_json ?id router (Router.check_health router))
          | Some "slo" ->
              emit
                (Service.Serve.control ?id
                   [ ("slo", Obs.Slo.report_json (Router.slo router)) ])
          | Some "flight" -> (
              (* Pull any spooled worker spans first, so the dump holds
                 complete traces for the freshest errors too. *)
              ignore (Router.drain_spans router);
              match Router.flight_json router with
              | Some flight ->
                  emit (Service.Serve.control ?id [ ("flight", flight) ])
              | None ->
                  emit
                    (Service.Error.to_json ?id
                       (Service.Error.Invalid_request
                          {
                            field = "cmd";
                            reason =
                              "flight recorder off (start the fleet with \
                               --trace or --flight-dir)";
                          })))
          | Some "quit" ->
              emit (Service.Serve.control ?id []);
              stop := true
          | Some other ->
              emit (Service.Error.to_json ?id (Service.Serve.unknown_cmd other))
          | None -> (
              match Service.Request.decode json with
              | Error e -> emit (Service.Error.to_json ?id e)
              | Ok req -> (
                  Option.iter
                    (fun c -> List.iter (Router.inject router) (Chaos.advance c))
                    chaos;
                  match Router.submit ?id ~raw:json router req with
                  | Router.Answered j -> emit j
                  | Router.Routed _ -> incr inflight)))
  in
  (* Like the serve loop, stop reading at [cmd:quit]: later lines of the
     same read go unanswered. *)
  let handle_lines = List.iter (fun l -> if not !stop then handle_line l) in
  let reader = Line_reader.create () in
  let last_health = ref (Unix.gettimeofday ()) in
  while not !stop do
    deliver_events ();
    if !eof then begin
      (* No more input: drain what is in flight, then leave. *)
      if !inflight <= 0 then stop := true
      else ignore (Unix.select [] [] [] 0.01)
    end
    else begin
      match Unix.select [ input ] [] [] 0.02 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Line_reader.read reader input with
          | `Lines lines -> handle_lines lines
          | `Eof tail ->
              (* An unterminated last line is still a line. *)
              handle_lines (Option.to_list tail);
              eof := true)
    end;
    if
      health_interval_s > 0.0
      && Unix.gettimeofday () -. !last_health > health_interval_s
    then begin
      last_health := Unix.gettimeofday ();
      ignore (Router.check_health router)
    end
  done;
  deliver_events ()
