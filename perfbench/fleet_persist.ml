(* fleet-persist: [Fleet.Router] in this process over two
   [chimera serve --verify strict] workers sharing a persisted
   --cache-dir, fed open-loop Poisson arrivals drawn from the [Traffic]
   "all" mix.

   Every run starts from the same cache image, copied into a fresh
   directory: the plans for the first [image_variants] batch sizes of
   every request in the mix, built once per source tree.  Each arrival
   picks a request from the mix by weight, then a batch jitter.  A
   fixed [write_share] of the arrivals, at seeded positions, get one
   whose plan neither the image nor an earlier arrival of the round
   holds: a cold write, which plans, certifies and rewrites the shared
   cache file.  The rest get one inside the image: a read, answered by
   the router's hot tier or by a worker's cache and re-verified there.
   Latency is timed from each arrival's due time. *)

module J = Util.Json
module R = Service.Request

let now = Clock.now
let rate = 25.
let rounds = 8

(* A tail segment of 100 arrivals holds 30 cold writes, so its tail
   percentile (p90: ten samples beyond) falls among the slower writes,
   those that waited out another write's cache save included.  Longer
   segments push it into the few arrivals that wait out a whole save,
   whose latency swings with the arrival pattern far more than any
   bound a later change could be held to. *)
let tail_segment = 100
let write_share = 0.3
let image_variants = 32
let write_jitter = 16
let workers = 2
let drain_s = 30.
let mix () = Option.get (Fleet.Traffic.by_name "all")

let base_batch req =
  match req.R.batch with
  | Some b -> b
  | None -> (
      match Workloads.Gemm_configs.by_name req.R.workload with
      | Some g -> g.Workloads.Gemm_configs.batch
      | None -> 1)

let image_requests () =
  List.concat_map
    (fun u -> List.init image_variants (fun j -> { u with R.batch = Some (base_batch u + j) }))
    (Fleet.Traffic.unique_requests (mix ()))

(* The image is built once per source tree and shared by later runs in
   the same checkout; building it is the benchmark's own set-up, not
   the program's. *)
let image ~work_dir =
  let dir = Filename.concat work_dir ("fleet-image-" ^ Files.source_digest ()) in
  if not (Sys.file_exists (Service.Plan_cache.cache_file ~dir)) then begin
    let tmp = Filename.concat work_dir (Printf.sprintf "fleet-image-build-%d" (Unix.getpid ())) in
    let cache = Service.Plan_cache.create () in
    List.iter
      (fun req ->
        match R.resolve req with
        | Ok (chain, machine) ->
            ignore (Service.Batch.compile ~cache ~config:(R.config_of req) ~machine chain)
        | Error e -> failwith ("image request rejected: " ^ Service.Error.to_string e))
      (image_requests ());
    Service.Plan_cache.save cache ~dir:tmp;
    try Unix.rename tmp dir with Unix.Unix_error _ -> Files.rm_rf tmp
  end;
  Service.Plan_cache.cache_file ~dir

let fingerprint req =
  match R.resolve req with
  | Ok (chain, machine) ->
      Service.Fingerprint.to_hex
        (Service.Fingerprint.of_request ~chain ~machine ~config:(R.config_of req))
  | Error e -> failwith ("generated request rejected: " ^ Service.Error.to_string e)

(* [n] arrivals, a fixed [write_share] of them writes at seeded
   positions: reads jitter the batch inside the image, writes beyond
   it, redrawn until the plan is new to the round. *)
let arrivals prng mix n =
  let seen = Hashtbl.create 1024 in
  List.iter (fun r -> Hashtbl.replace seen (fingerprint r) ()) (image_requests ());
  let writes = int_of_float (Float.round (write_share *. float_of_int n)) in
  let is_write = Array.init n (fun i -> i < writes) in
  Util.Prng.shuffle prng is_write;
  Array.map
    (fun w ->
      if not w then
        let r = Fleet.Traffic.sample prng mix in
        { r with R.batch = Some (base_batch r + Util.Prng.int prng ~bound:image_variants) }
      else
        let rec write () =
          let r = Fleet.Traffic.sample prng mix in
          let b = base_batch r + image_variants + Util.Prng.int prng ~bound:write_jitter in
          let r = { r with R.batch = Some b } in
          let fp = fingerprint r in
          if Hashtbl.mem seen fp then write ()
          else begin
            Hashtbl.replace seen fp ();
            r
          end
        in
        write ())
    is_write

type phase = {
  lat : float array;  (** due time to final answer, NaN when unanswered *)
  late : float array;  (** due time to send *)
  submit_s : float array;
  sent : float array;
  worker_ms : float array;  (** traced phases: routed plans only *)
  routed : bool array;
  ok : int;
  hot : int;  (** plans answered by the router's hot tier *)
  wall : float;
  fresh : string list;  (** lines planned cold, in arrival order *)
  traces : Obs.Trace.t list;
}

(* Drive one open-loop phase against [router].  The schedule and the
   requests come from [seed] alone, so a traced and an untraced phase
   with one seed see the same arrivals. *)
let open_loop ~traced ~seed ~duration chk ~answers ~plans_by_fp router =
  let mix = mix () in
  let prng = Util.Prng.create ~seed in
  let offsets = Openloop.poisson ~prng:(Util.Prng.split prng) ~rate ~duration in
  let reqs = arrivals prng mix (Array.length offsets) in
  let n = Array.length offsets in
  let start = now () +. 0.005 in
  let dues = Array.map (( +. ) start) offsets in
  let lat = Array.make n Float.nan and submit_s = Array.make n 0. in
  let worker_ms = Array.make n Float.nan and routed = Array.make n false in
  let by_seq = Hashtbl.create 64 in
  let ok = ref 0 and hot = ref 0 and fresh = ref [] and traces = ref [] in
  let trace = Array.make n None and waiting = Array.make n None in
  let span i name f =
    match trace.(i) with Some tr -> Obs.Trace.span (Obs.Trace.ctx tr) name (fun _ -> f ()) | None -> f ()
  in
  let finish i ~replayed j =
    lat.(i) <- now () -. dues.(i);
    Option.iter (fun s -> Obs.Trace.close_span s) waiting.(i);
    span i "client.check" (fun () ->
        match Check.judge ~replayed chk ~strict:true ~id:i j with
        | None -> ()
        | Some a ->
            incr ok;
            if replayed then incr hot;
            let line = Probe.line_of reqs.(i) in
            Closed.remember answers line a;
            if (not replayed) && Check.str "source" a = Some "compiled" then fresh := line :: !fresh;
            if traced && not replayed then worker_ms.(i) <- Closed.worker_request_ms a;
            let fp = Option.value (Check.str "fingerprint" a) ~default:"" in
            let units = J.member "units" a in
            match Hashtbl.find_opt plans_by_fp fp with
            | Some u when u <> units ->
                Check.violation chk "two answers with one fingerprint carry different plans"
            | Some _ -> ()
            | None -> Hashtbl.replace plans_by_fp fp units)
  in
  let on_event ev =
    match Hashtbl.find_opt by_seq ev.Fleet.Router.seq with
    | None -> ()
    | Some i -> (
        Hashtbl.remove by_seq ev.Fleet.Router.seq;
        match ev.Fleet.Router.outcome with
        | Fleet.Router.Reply { json; _ } -> finish i ~replayed:false json
        | Fleet.Router.Dropped _ ->
            lat.(i) <- now () -. dues.(i);
            Option.iter (fun s -> Obs.Trace.close_span ~err:true s) waiting.(i);
            chk.Check.failed <- chk.Check.failed + 1)
  in
  let idle d = List.iter on_event (Fleet.Router.poll ~timeout_s:d router) in
  let send i =
    chk.Check.attempted <- chk.Check.attempted + 1;
    if traced then begin
      let tr = Obs.Trace.make ~label:(R.describe reqs.(i)) () in
      trace.(i) <- Some tr;
      traces := tr :: !traces
    end;
    let req = if traced then { (reqs.(i)) with R.timings = true } else reqs.(i) in
    let t0 = now () in
    let outcome = span i "fleet.router.submit" (fun () -> Fleet.Router.submit ~id:(J.Int i) router req) in
    submit_s.(i) <- now () -. t0;
    match outcome with
    | Fleet.Router.Answered j -> finish i ~replayed:true j
    | Fleet.Router.Routed { seq; _ } ->
        routed.(i) <- true;
        Hashtbl.replace by_seq seq i;
        waiting.(i) <-
          Option.bind trace.(i) (fun tr -> Obs.Trace.open_span (Obs.Trace.ctx tr) "worker.wait")
  in
  let sent = Openloop.drive ~now ~idle ~send dues in
  let deadline = now () +. drain_s in
  while Hashtbl.length by_seq > 0 && now () < deadline do idle 0.05 done;
  Hashtbl.iter
    (fun _ i -> Check.violation chk (Printf.sprintf "request %d got no answer within the drain window" i))
    by_seq;
  let last = ref start in
  Array.iteri (fun i l -> if not (Float.is_nan l) then last := Float.max !last (dues.(i) +. l)) lat;
  {
    lat;
    late = Array.mapi (fun i s -> s -. dues.(i)) sent;
    submit_s;
    sent;
    worker_ms;
    routed;
    ok = !ok;
    hot = !hot;
    wall = !last -. start;
    fresh = List.rev !fresh;
    traces = List.rev !traces;
  }

(* The rounds of one run, back to back. *)
let merge phases =
  let cat f = Array.concat (List.map f phases) in
  {
    lat = cat (fun p -> p.lat);
    late = cat (fun p -> p.late);
    submit_s = cat (fun p -> p.submit_s);
    sent = cat (fun p -> p.sent);
    worker_ms = cat (fun p -> p.worker_ms);
    routed = cat (fun p -> p.routed);
    ok = List.fold_left (fun a p -> a + p.ok) 0 phases;
    hot = List.fold_left (fun a p -> a + p.hot) 0 phases;
    wall = List.fold_left (fun a p -> a +. p.wall) 0. phases;
    fresh = List.concat_map (fun p -> p.fresh) phases;
    traces = List.concat_map (fun p -> p.traces) phases;
  }

let answered a = Array.of_list (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list a))

let peak_rss router =
  List.fold_left
    (fun acc i -> Float.max acc (Client.peak_rss_mb (Fleet.Router.worker_pid router i)))
    0. (List.init (Fleet.Router.size router) Fun.id)

let conv_probe () =
  List.init 8 (fun i -> Probe.plan (R.make ~workload:(Printf.sprintf "C%d" (i + 1)) ~arch:"cpu" ()))

(* Per-layer figures of the traced phase [t] (untraced twin [u]). *)
let traced_path ~(layers : Probe.layers) ~(u : phase) ~(t : phase) ~hit_ratio ~counters chk =
  let idx = List.filter (fun i -> not (Float.is_nan t.lat.(i))) (List.init (Array.length t.lat) Fun.id) in
  let routed = List.filter (fun i -> t.routed.(i) && not (Float.is_nan t.worker_ms.(i))) idx in
  let med is f = Pstats.median (Array.of_list (List.map f is)) in
  let worker i = t.worker_ms.(i) /. 1e3 in
  let overhead_s = (layers.Probe.parse_us +. layers.Probe.resolve_us +. layers.Probe.serialize_us) /. 1e6 in
  let total = List.fold_left (fun a i -> a +. t.lat.(i)) 0. idx in
  let unattributed =
    List.fold_left
      (fun a i ->
        let covered =
          t.late.(i) +. t.submit_s.(i)
          +. if List.mem i routed then worker i +. overhead_s else 0.
        in
        a +. Float.max 0. (t.lat.(i) -. covered))
      0. idx
  in
  let counter = Closed.counter counters in
  let attempted = float_of_int (max 1 chk.Check.attempted) in
  {
    Report.hit_ratio;
    request_us = Pstats.mean (Array.of_list (List.map (fun i -> t.worker_ms.(i) *. 1e3) routed));
    transit_us = med routed (fun i -> (t.lat.(i) -. t.late.(i) -. worker i) *. 1e6);
    submit_us = med idx (fun i -> t.submit_s.(i) *. 1e6);
    hot_hit_ratio = float_of_int (counter "hot_hits") /. float_of_int (max 1 (counter "received"));
    wait_ms = med routed (fun i -> (t.lat.(i) -. worker i) *. 1e3);
    shed = counter "shed";
    admission_degraded = counter "admission_degraded";
    busy_frac =
      List.fold_left (fun a i -> a +. worker i) 0. routed /. (t.wall *. float_of_int workers);
    unattributed_pct = 100. *. unattributed /. total;
    trace_overhead_pct =
      100. *. ((Pstats.median (answered t.lat) /. Pstats.median (answered u.lat)) -. 1.);
    gen_late_ms = Array.fold_left Float.max 0. t.late *. 1e3;
    fail_frac = float_of_int chk.Check.failed /. attempted;
    degraded_frac = float_of_int chk.Check.degraded /. attempted;
  }

let run ~work_dir (env : Closed.env) =
  Client.pin_env ~domains:1;
  let image = image ~work_dir in
  let chk = Check.create () in
  let answers = Hashtbl.create 256 and plans_by_fp = Hashtbl.create 256 in
  (* Set-up runs from a fresh copy of the image each time: spawn the
     workers (each loads the image) and wait until both answer. *)
  let setups = ref [] in
  let start () =
    let dir = Filename.concat env.Closed.tmp (Printf.sprintf "cache-%d" (List.length !setups)) in
    Files.mkdir_p dir;
    Files.copy_file ~src:image ~dst:(Service.Plan_cache.cache_file ~dir);
    let argv = [| env.Closed.exe; "serve"; "--verify"; "strict"; "--cache-dir"; dir |] in
    let t0 = now () in
    let router = Fleet.Router.create (Array.make workers argv) in
    let healthy =
      List.for_all
        (fun (_, h) -> match h with `Ok _ -> true | _ -> false)
        (Fleet.Router.check_health ~timeout_s:30. router)
    in
    setups := (now () -. t0) :: !setups;
    if not healthy then begin
      Fleet.Router.shutdown router;
      failwith "a fleet worker did not come up"
    end;
    router
  in
  let with_router f =
    let router = start () in
    Fun.protect ~finally:(fun () -> Fleet.Router.shutdown router) (fun () -> f router)
  in
  (* A run is [rounds] rounds, each on a fresh fleet started from the
     image: every round sees the same starting state, and the hot tier
     never outgrows what one round can fill.  Traced runs pair each
     untraced round with a traced one fed the same arrivals. *)
  let master = Util.Prng.create ~seed:env.Closed.seed in
  let seeds = List.init rounds (fun _ -> Util.Prng.int master ~bound:1_000_000_000) in
  let duration = env.Closed.seconds /. float_of_int rounds in
  let play ~traced seeds =
    List.map
      (fun seed ->
        with_router (fun r ->
            let ph = open_loop ~traced ~seed ~duration chk ~answers ~plans_by_fp r in
            let stats =
              if traced then
                let merged, _ = Fleet.Router.collect_stats r in
                Some (merged.Service.Metrics.hits, merged.Service.Metrics.misses, Fleet.Router.counters r)
              else None
            in
            (ph, peak_rss r, stats)))
      seeds
  in
  let untraced_seeds, traced_seeds =
    let half = List.filteri (fun i _ -> i < rounds / 2) seeds in
    if env.Closed.traced then (half, half) else (seeds, [])
  in
  with_router ignore;
  let untraced_rounds = play ~traced:false untraced_seeds in
  let traced_rounds = play ~traced:true traced_seeds in
  let untraced = merge (List.map (fun (p, _, _) -> p) untraced_rounds) in
  let rss = Pstats.median (Array.of_list (List.map (fun (_, r, _) -> r) untraced_rounds)) in
  (* Reference plans for every distinct request served. *)
  let reference = Hashtbl.create 256 in
  Hashtbl.iter
    (fun line a ->
      match Result.bind (J.parse line) (fun j -> R.of_json j) with
      | Error e -> Check.violation chk ("a generated request does not decode: " ^ e)
      | Ok req ->
          let p = Probe.plan req in
          Probe.check_served chk p a;
          Hashtbl.replace reference line p)
    answers;
  let plans = List.of_seq (Hashtbl.to_seq_values reference) in
  let e2e, tail_meta =
    Report.end_to_end ~setup_s:(Pstats.median (Array.of_list !setups))
      ~lat:(answered untraced.lat) ~segment:tail_segment ~answered:untraced.ok
      ~wall_s:untraced.wall ~rss_mb:rss ~sim_dram_mb:(Probe.sim_dram_geomean plans)
  in
  let meta =
    [
      ("pool_lanes", J.Int 1);
      ("verify", J.String "strict");
      ("workers", J.Int workers);
      ("rate_rps", J.Float rate);
      ("rounds", J.Int (List.length untraced_rounds));
      ("write_share", J.Float write_share);
      ("hot_answers", J.Int untraced.hot);
      ("image_entries", J.Int (List.length (image_requests ())));
      ("distinct_requests", J.Int (List.length plans));
      ("fresh_plans", J.Int (List.length untraced.fresh));
    ]
    @ tail_meta
  in
  if traced_rounds = [] then { Report.metrics = e2e; chk; meta; traces = [] }
  else begin
    let t = merge (List.map (fun (p, _, _) -> p) traced_rounds) in
    let stats = List.filter_map (fun (_, _, s) -> s) traced_rounds in
    let hits = List.fold_left (fun a (h, _, _) -> a + h) 0 stats in
    let misses = List.fold_left (fun a (_, m, _) -> a + m) 0 stats in
    let counters =
      List.map
        (fun (name, _) ->
          (name, List.fold_left (fun a (_, _, c) -> a + Closed.counter c name) 0 stats))
        (match stats with (_, _, c) :: _ -> c | [] -> [])
    in
    let sample = List.filteri (fun i _ -> i < 60) plans in
    let layers = Probe.layers ~conv:(conv_probe ()) ~answers sample in
    let writes = List.filter_map (Hashtbl.find_opt reference) t.fresh in
    let dir = Filename.concat env.Closed.tmp "writeback" in
    Files.mkdir_p dir;
    Files.copy_file ~src:image ~dst:(Service.Plan_cache.cache_file ~dir);
    let saves, file_kb, load_ms = Probe.replay_saves ~dir writes in
    let hit_ratio = float_of_int hits /. float_of_int (max 1 (hits + misses)) in
    let path = traced_path ~layers ~u:untraced ~t ~hit_ratio ~counters chk in
    { Report.metrics = Report.per_layer layers ~saves ~file_kb ~load_ms path; chk; meta; traces = t.traces }
  end
