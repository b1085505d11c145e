(* The closed-loop workloads: one client, one [chimera serve] worker
   over its pipe, the next request sent when the previous answer has
   been checked.

   - cold-certify: every request is a miss.  Each pass over the 60
     Table IV/V chain x preset pairs runs on a freshly started
     [--verify strict] worker, in a seeded order.
   - warm-hit: one worker with the default [--verify off], its cache
     filled during set-up with every request the run sends; the run
     cycles them in seeded order, so every request is a hit. *)

module J = Util.Json
module R = Service.Request

let now = Clock.now

let table_requests () =
  let names prefix n = List.init n (fun i -> Printf.sprintf "%s%d" prefix (i + 1)) in
  List.concat_map
    (fun arch -> List.map (fun workload -> R.make ~workload ~arch ()) (names "G" 12 @ names "C" 8))
    [ "cpu"; "gpu"; "npu" ]

let wire ~id ~timings req =
  match R.to_json { req with R.timings } with
  | J.Obj fields -> J.to_string (J.Obj (("id", J.Int id) :: fields))
  | j -> J.to_string j

(* One timed request.  Latency runs from the write of the request line
   to the read of the answer line. *)
type sample = {
  line : string;  (** the request's wire form, without id *)
  lat : float;
  write_s : float;  (** traced only: time writing the line *)
  worker_ms : float;  (** traced only: the worker's own request time *)
  gap : float;  (** time since the previous answer arrived *)
}

type phase = {
  mutable samples : sample list;  (** newest first *)
  mutable wall : float;  (** seconds spent in request loops *)
  mutable traces : Obs.Trace.t list;  (** the first [kept_traces] *)
  mutable kept : int;
  mutable last_done : float option;
}

let phase () = { samples = []; wall = 0.; traces = []; kept = 0; last_done = None }

(* Every traced request is spanned, but only this many traces are kept
   for the Chrome trace file: a warm-hit run traces ~70k requests. *)
let kept_traces = 5000

let worker_request_ms answer =
  match Option.bind (J.member "timings_ms" answer) (J.member "request") with
  | Some v -> Option.value (J.to_float_opt v) ~default:Float.nan
  | None -> Float.nan

(* Send [req], read the answer and hand it to [check].  Traced
   requests get their own trace with the client-side spans. *)
let exchange ~traced ~strict ph chk client ~id req check =
  chk.Check.attempted <- chk.Check.attempted + 1;
  let line = wire ~id ~timings:traced req in
  let trace = if traced then Some (Obs.Trace.make ~label:(R.describe req) ()) else None in
  let span name f =
    match trace with Some tr -> Obs.Trace.span (Obs.Trace.ctx tr) name (fun _ -> f ()) | None -> f ()
  in
  let t0 = ref 0. and tw = ref 0. in
  let answer =
    span "client.request" (fun () ->
        t0 := now ();
        Client.send client line;
        tw := now ();
        span "worker.wait" (fun () -> Client.recv client))
  in
  let t1 = now () in
  let gap = match ph.last_done with Some d -> !t0 -. d | None -> 0. in
  ph.last_done <- Some t1;
  let judged =
    span "client.check" (fun () ->
        Option.bind (Check.parse_answer chk ~id answer) (fun j ->
            Option.map (fun j -> check j; j) (Check.judge chk ~strict ~id j)))
  in
  Option.iter
    (fun tr ->
      if ph.kept < kept_traces then begin
        ph.traces <- tr :: ph.traces;
        ph.kept <- ph.kept + 1
      end)
    trace;
  ph.samples <-
    {
      line = Probe.line_of req;
      lat = t1 -. !t0;
      write_s = (if traced then !tw -. !t0 else 0.);
      worker_ms = (match judged with Some j when traced -> worker_request_ms j | _ -> Float.nan);
      gap;
    }
    :: ph.samples;
  judged

let lats ph = Array.of_list (List.rev_map (fun s -> s.lat) ph.samples)

(* Served answers by request line, for the reference check and the
   serializer timing. *)
let remember answers line j = if not (Hashtbl.mem answers line) then Hashtbl.replace answers line j

let same_plan chk ~what first j =
  if Check.plan_view j <> Check.plan_view first then Check.violation chk what

(* Fleet-layer figures on a closed-loop workload: [Router.submit] on
   the workload's own requests, one at a time, through a one-worker
   router over the same worker command. *)
let router_probe ~argv reqs =
  let router = Fleet.Router.create [| argv |] in
  Fun.protect
    ~finally:(fun () -> Fleet.Router.shutdown router)
    (fun () ->
      let times =
        List.mapi
          (fun i req ->
            let t0 = now () in
            let outcome = Fleet.Router.submit ~id:(J.Int i) router req in
            let dt = now () -. t0 in
            (match outcome with
            | Fleet.Router.Answered _ -> ()
            | Fleet.Router.Routed _ ->
                let deadline = now () +. 60. in
                let rec wait () =
                  if Fleet.Router.poll ~timeout_s:0.05 router = [] && now () < deadline then wait ()
                in
                wait ());
            dt *. 1e6)
          reqs
      in
      (Pstats.median (Array.of_list times), Fleet.Router.counters router))

let counter counters name = Option.value (List.assoc_opt name counters) ~default:0

(* Per-layer figures of a traced closed-loop phase. *)
let traced_path ~(layers : Probe.layers) ~untraced ~traced ~hit_ratio ~submit_us ~counters chk =
  let ss = Array.of_list (List.rev traced.samples) in
  let med f = Pstats.median (Array.map f ss) in
  let outside s = s.lat -. (s.worker_ms /. 1e3) in
  let overhead_us = layers.Probe.parse_us +. layers.Probe.resolve_us +. layers.Probe.serialize_us in
  let total = Array.fold_left (fun a s -> a +. s.lat) 0. ss in
  let unattributed =
    Array.fold_left
      (fun a s -> a +. Float.max 0. (s.lat -. s.write_s -. (s.worker_ms /. 1e3) -. (overhead_us /. 1e6)))
      0. ss
  in
  let received = max 1 (counter counters "received") in
  let attempted = float_of_int (max 1 chk.Check.attempted) in
  {
    Report.hit_ratio;
    request_us = Pstats.mean (Array.map (fun s -> s.worker_ms *. 1e3) ss);
    transit_us = med (fun s -> outside s *. 1e6);
    submit_us;
    hot_hit_ratio = float_of_int (counter counters "hot_hits") /. float_of_int received;
    wait_ms = med (fun s -> outside s *. 1e3);
    shed = counter counters "shed";
    admission_degraded = counter counters "admission_degraded";
    busy_frac = Array.fold_left (fun a s -> a +. (s.worker_ms /. 1e3)) 0. ss /. traced.wall;
    unattributed_pct = 100. *. unattributed /. total;
    trace_overhead_pct =
      100. *. ((Pstats.median (lats traced) /. Pstats.median (lats untraced)) -. 1.);
    gen_late_ms = Array.fold_left (fun a s -> Float.max a s.gap) 0. ss *. 1e3;
    fail_frac = float_of_int chk.Check.failed /. attempted;
    degraded_frac = float_of_int chk.Check.degraded /. attempted;
  }

let hit_ratio_of stats =
  let get k = Option.value (Option.bind (J.member k stats) J.to_int_opt) ~default:0 in
  let hits = get "cache_hits" and misses = get "cache_misses" in
  float_of_int hits /. float_of_int (max 1 (hits + misses))

(* Reference plans for the distinct requests, each checked against the
   first answer served for it. *)
let reference chk ~answers reqs =
  List.map
    (fun req ->
      let p = Probe.plan req in
      (match Hashtbl.find_opt answers p.Probe.line with
      | Some a -> Probe.check_served chk p a
      | None -> Check.violation chk ("no answer was served for " ^ R.describe req));
      p)
    reqs

type env = { exe : string; seed : int; seconds : float; traced : bool; tmp : string }

let finish env ~chk ~reqs ~answers ~setup ~rss ~untraced ~segment ~traced_phase
    ~hit_ratio ~argv ~meta =
  let plans = reference chk ~answers reqs in
  let e2e, tail_meta =
    Report.end_to_end ~setup_s:(Pstats.median setup) ~lat:(lats untraced) ~segment
      ~answered:(List.length untraced.samples) ~wall_s:untraced.wall ~rss_mb:rss
      ~sim_dram_mb:(Probe.sim_dram_geomean plans)
  in
  let meta = meta @ tail_meta in
  match traced_phase with
  | None -> { Report.metrics = e2e; chk; meta; traces = [] }
  | Some traced ->
      let layers = Probe.layers ~answers plans in
      let saves, file_kb, load_ms =
        Probe.replay_saves ~dir:(Filename.concat env.tmp "writeback") plans
      in
      let submit_us, counters = router_probe ~argv reqs in
      let path =
        traced_path ~layers ~untraced ~traced ~hit_ratio ~submit_us ~counters chk
      in
      {
        Report.metrics = Report.per_layer layers ~saves ~file_kb ~load_ms path;
        chk;
        meta;
        traces = List.rev traced.traces;
      }

let cold_certify env =
  Client.pin_env ~domains:1;
  let prng = Util.Prng.create ~seed:env.seed in
  let reqs = table_requests () in
  let chk = Check.create () in
  let answers = Hashtbl.create 64 in
  let setup = ref [] and rss = ref [] and hit_ratio = ref 0. in
  let args = [ "--verify"; "strict" ] in
  let next_id = ref 0 in
  let pass ph ~traced =
    let order = Array.of_list reqs in
    Util.Prng.shuffle prng order;
    let client, s = Client.start ~exe:env.exe args in
    setup := s :: !setup;
    ph.last_done <- None;
    Fun.protect ~finally:(fun () -> Client.stop client) @@ fun () ->
    let t0 = now () in
    Array.iter
      (fun req ->
        incr next_id;
        ignore
          (exchange ~traced ~strict:true ph chk client ~id:!next_id req (fun j ->
               if Check.str "source" j <> Some "compiled" then
                 Check.violation chk "a cold-certify request was answered from a cache";
               let line = Probe.line_of req in
               match Hashtbl.find_opt answers line with
               | Some first -> same_plan chk ~what:"two workers planned one request differently" first j
               | None -> remember answers line j)))
      order;
    ph.wall <- ph.wall +. (now () -. t0);
    rss := Client.peak_rss_mb client.Client.pid :: !rss;
    if traced then hit_ratio := hit_ratio_of (Client.stats client)
  in
  let run_phase ~traced seconds =
    let ph = phase () in
    while ph.wall < seconds do pass ph ~traced done;
    ph
  in
  let untraced = run_phase ~traced:false (if env.traced then env.seconds /. 2. else env.seconds) in
  let traced_phase = if env.traced then Some (run_phase ~traced:true (env.seconds /. 2.)) else None in
  finish env ~chk ~reqs ~answers
    ~setup:(Array.of_list !setup)
    ~rss:(Pstats.median (Array.of_list !rss))
    ~untraced ~segment:240 ~traced_phase
    ~hit_ratio:!hit_ratio
    ~argv:(Array.of_list (env.exe :: "serve" :: args))
    ~meta:[ ("pool_lanes", J.Int 1); ("verify", J.String "strict"); ("workers_started", J.Int (List.length !setup)) ]

(* Worker start-ups timed per warm-hit run; the median is [setup_s]. *)
let warm_setups = 41

let warm_hit env =
  let setups = warm_setups in
  Client.pin_env ~domains:1;
  let prng = Util.Prng.create ~seed:env.seed in
  let reqs = table_requests () in
  let chk = Check.create () in
  let answers = Hashtbl.create 64 in
  (* Set-up is timed on several fresh workers; the last one serves. *)
  let setup =
    Array.init setups (fun i ->
        let client, s = Client.start ~exe:env.exe [] in
        if i < setups - 1 then Client.stop client;
        (client, s))
  in
  let client = fst setup.(setups - 1) in
  Fun.protect
    ~finally:(fun () -> Client.stop client)
    (fun () ->
      let fill = phase () in
      List.iteri
        (fun id req ->
          ignore
            (exchange ~traced:false ~strict:false fill chk client ~id req (fun j ->
                 remember answers (Probe.line_of req) j)))
        reqs;
      let next_id = ref (List.length reqs) in
      let run_phase ~traced seconds =
        let ph = phase () in
        let t0 = now () in
        while now () -. t0 < seconds do
          let order = Array.of_list reqs in
          Util.Prng.shuffle prng order;
          Array.iter
            (fun req ->
              incr next_id;
              ignore
                (exchange ~traced ~strict:false ph chk client ~id:!next_id req (fun j ->
                     if Check.str "source" j <> Some "cache" then
                       Check.violation chk "a warm-hit request missed the cache";
                     match Hashtbl.find_opt answers (Probe.line_of req) with
                     | Some cold -> same_plan chk ~what:"a cache hit differs from the cold answer" cold j
                     | None -> Check.violation chk "set-up has no cold answer")))
            order
        done;
        ph.wall <- now () -. t0;
        ph
      in
      let untraced = run_phase ~traced:false (if env.traced then env.seconds /. 2. else env.seconds) in
      let traced_phase = if env.traced then Some (run_phase ~traced:true (env.seconds /. 2.)) else None in
      let hit_ratio = if env.traced then hit_ratio_of (Client.stats client) else 0. in
      let rss = Client.peak_rss_mb client.Client.pid in
      finish env ~chk ~reqs ~answers
            ~setup:(Array.map snd setup) ~rss ~untraced ~segment:2000 ~traced_phase ~hit_ratio
        ~argv:[| env.exe; "serve" |]
        ~meta:[ ("pool_lanes", J.Int 1); ("verify", J.String "off"); ("distinct_requests", J.Int (List.length reqs)) ])
