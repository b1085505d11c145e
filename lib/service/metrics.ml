type t = {
  mutable requests : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable planner_solves : int;
  mutable degraded : int;
  mutable heuristic : int;
  mutable failed : int;
  mutable invalid_requests : int;
  mutable deadline_exceeded : int;
  mutable internal_errors : int;
  mutable cache_corrupt : int;
  mutable cache_entries_skipped : int;
  mutable cache_io_retries : int;
  mutable cache_entries_migrated : int;
  mutable verify_runs : int;
  mutable verify_warnings : int;
  mutable verify_failures : int;
  mutable verify_certified_total : int;
  mutable verify_conditional_total : int;
  mutable verify_uncertifiable_total : int;
  mutable plan_evals_total : int;
  mutable plan_perms_pruned_total : int;
  mutable trace_spans_dropped : int;
  mutable trace_ring_evictions : int;
  solve_ms : Obs.Histogram.t;
  cache_lookup_ms : Obs.Histogram.t;
  perm_solve_ms : Obs.Histogram.t;
  tuner_trial_ms : Obs.Histogram.t;
  codegen_ms : Obs.Histogram.t;
  verify_ms : Obs.Histogram.t;
}

let create () =
  {
    requests = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    planner_solves = 0;
    degraded = 0;
    heuristic = 0;
    failed = 0;
    invalid_requests = 0;
    deadline_exceeded = 0;
    internal_errors = 0;
    cache_corrupt = 0;
    cache_entries_skipped = 0;
    cache_io_retries = 0;
    cache_entries_migrated = 0;
    verify_runs = 0;
    verify_warnings = 0;
    verify_failures = 0;
    verify_certified_total = 0;
    verify_conditional_total = 0;
    verify_uncertifiable_total = 0;
    plan_evals_total = 0;
    plan_perms_pruned_total = 0;
    trace_spans_dropped = 0;
    trace_ring_evictions = 0;
    solve_ms = Obs.Histogram.create ();
    cache_lookup_ms = Obs.Histogram.create ();
    perm_solve_ms = Obs.Histogram.create ();
    tuner_trial_ms = Obs.Histogram.create ();
    codegen_ms = Obs.Histogram.create ();
    verify_ms = Obs.Histogram.create ();
  }

(* The registry: each metric family declared once — wire/JSON name,
   help text and field accessor (histograms also name the trace span
   that feeds them).  Reset, merge, the wire form, JSON, the table and
   the Prometheus exposition all walk this list in order; a new metric
   needs its record field, its [create] initialiser and one line here. *)
type family = { name : string; help : string; kind : kind }

and kind =
  | Counter of { get : t -> int; set : t -> int -> unit }
  | Histogram of { span : string; get : t -> Obs.Histogram.t }
      (** fed by the trace spans named [span]. *)
  | Gauge of (t -> float)  (** derived, never on the wire. *)

let compile_seconds t = Obs.Histogram.sum_ms t.solve_ms /. 1000.0
let plan_solve_ms_total t = Obs.Histogram.sum_ms t.solve_ms

let families =
  let c name help get set = { name; help; kind = Counter { get; set } } in
  let h name help span get = { name; help; kind = Histogram { span; get } } in
  [
    c "requests" "Optimization requests processed."
      (fun t -> t.requests) (fun t n -> t.requests <- n);
    c "cache_hits" "Plan-cache hits."
      (fun t -> t.hits) (fun t n -> t.hits <- n);
    c "cache_misses" "Plan-cache misses."
      (fun t -> t.misses) (fun t n -> t.misses <- n);
    c "evictions" "Plan-cache LRU evictions."
      (fun t -> t.evictions) (fun t n -> t.evictions <- n);
    c "planner_solves" "Sub-chains actually planned."
      (fun t -> t.planner_solves) (fun t n -> t.planner_solves <- n);
    c "degraded" "Requests served below the requested degradation rung."
      (fun t -> t.degraded) (fun t n -> t.degraded <- n);
    c "heuristic" "Requests served by heuristic tiling (last rung)."
      (fun t -> t.heuristic) (fun t n -> t.heuristic <- n);
    c "failed" "Requests that produced no plan."
      (fun t -> t.failed) (fun t n -> t.failed <- n);
    c "invalid_requests" "Requests rejected by validation."
      (fun t -> t.invalid_requests) (fun t n -> t.invalid_requests <- n);
    c "deadline_exceeded" "Requests whose planning budget expired."
      (fun t -> t.deadline_exceeded) (fun t n -> t.deadline_exceeded <- n);
    c "internal_errors" "Unexpected errors answered as internal."
      (fun t -> t.internal_errors) (fun t n -> t.internal_errors <- n);
    c "cache_corrupt" "Persisted cache files discarded on load."
      (fun t -> t.cache_corrupt) (fun t n -> t.cache_corrupt <- n);
    c "cache_entries_skipped"
      "Cache frames dropped on load (CRC failure or torn write)."
      (fun t -> t.cache_entries_skipped)
      (fun t n -> t.cache_entries_skipped <- n);
    c "cache_io_retries" "Cache persistence attempts retried after I/O faults."
      (fun t -> t.cache_io_retries) (fun t n -> t.cache_io_retries <- n);
    c "cache_entries_migrated"
      "Entries skipped on load from older cache file versions."
      (fun t -> t.cache_entries_migrated)
      (fun t n -> t.cache_entries_migrated <- n);
    c "verify_runs" "Responses run through the static-analysis passes."
      (fun t -> t.verify_runs) (fun t n -> t.verify_runs <- n);
    c "verify_warnings" "Verified responses with warnings only."
      (fun t -> t.verify_warnings) (fun t n -> t.verify_warnings <- n);
    c "verify_failures" "Verified responses with error-severity diagnostics."
      (fun t -> t.verify_failures) (fun t n -> t.verify_failures <- n);
    c "verify_certified_total"
      "Verified responses with a checked unconditional certificate."
      (fun t -> t.verify_certified_total)
      (fun t n -> t.verify_certified_total <- n);
    c "verify_conditional_total"
      "Verified responses served on a conditional certificate."
      (fun t -> t.verify_conditional_total)
      (fun t n -> t.verify_conditional_total <- n);
    c "verify_uncertifiable_total"
      "Verified responses with at least one uncertified plan."
      (fun t -> t.verify_uncertifiable_total)
      (fun t n -> t.verify_uncertifiable_total <- n);
    c "plan_evals_total" "DV/MU cost-model evaluations."
      (fun t -> t.plan_evals_total) (fun t n -> t.plan_evals_total <- n);
    c "plan_perms_pruned_total"
      "Execution orders skipped by branch-and-bound pruning."
      (fun t -> t.plan_perms_pruned_total)
      (fun t n -> t.plan_perms_pruned_total <- n);
    c "trace_spans_dropped"
      "Spans discarded because a request trace hit its max_spans bound."
      (fun t -> t.trace_spans_dropped) (fun t n -> t.trace_spans_dropped <- n);
    c "trace_ring_evictions"
      "Buffered traces overwritten in the bounded serve-side rings."
      (fun t -> t.trace_ring_evictions)
      (fun t n -> t.trace_ring_evictions <- n);
    h "solve_ms" "End-to-end planning latency of cache misses (ms)."
      "solve" (fun t -> t.solve_ms);
    h "cache_lookup_ms" "Plan-cache probe latency (ms)."
      "cache.lookup" (fun t -> t.cache_lookup_ms);
    h "perm_solve_ms" "Per-execution-order solver descent latency (ms)."
      "order" (fun t -> t.perm_solve_ms);
    h "tuner_trial_ms" "Per-trial tuner measurement latency (ms)."
      "tuner.trial" (fun t -> t.tuner_trial_ms);
    h "codegen_ms" "Kernel materialization latency (ms)."
      "codegen" (fun t -> t.codegen_ms);
    h "verify_ms" "Static-analysis verification latency (ms)."
      "verify" (fun t -> t.verify_ms);
    (* Deprecated: float totals derived from the solve histogram, kept
       for one version so existing tooling keeps reading them. *)
    { name = "compile_seconds"; help = "Deprecated: sum(solve_ms)/1000.";
      kind = Gauge compile_seconds };
    { name = "plan_solve_ms_total"; help = "Deprecated: sum(solve_ms).";
      kind = Gauge plan_solve_ms_total };
  ]

let value t f =
  match f.kind with
  | Counter c -> Obs.Prom.Int (c.get t)
  | Histogram h -> Obs.Prom.Hist (h.get t)
  | Gauge get -> Obs.Prom.Fixed (get t)

let fields t = List.map (fun f -> (f.name, value t f)) families

let reset t =
  List.iter
    (fun f ->
      match f.kind with
      | Counter c -> c.set t 0
      | Histogram h -> Obs.Histogram.reset (h.get t)
      | Gauge _ -> ())
    families

(* ------------------------------------------------------------------ *)
(* Fleet aggregation: merge and the lossless wire form                  *)
(* ------------------------------------------------------------------ *)

(* Counter addition plus lossless histogram merge (identical bucket
   layouts, see Obs.Histogram.merge): aggregating N workers' metrics
   equals one worker having served the pooled stream. *)
let merge ~into src =
  List.iter
    (fun f ->
      match f.kind with
      | Counter c -> c.set into (c.get into + c.get src)
      | Histogram h -> Obs.Histogram.merge ~into:(h.get into) (h.get src)
      | Gauge _ -> ())
    families

(* The wire form a worker answers to {"cmd": "stats", "full": true}:
   counters as ints, histograms in their full-bucket wire form (see
   Obs.Histogram.to_wire_json). *)
let to_wire_json t =
  Util.Json.Obj
    (List.filter_map
       (fun f ->
         match f.kind with
         | Counter c -> Some (f.name, Util.Json.Int (c.get t))
         | Histogram h -> Some (f.name, Obs.Histogram.to_wire_json (h.get t))
         | Gauge _ -> None)
       families)

let of_wire_json json =
  let t = create () in
  let decode f =
    match f.kind with
    | Counter c -> (
        match
          Option.bind (Util.Json.member f.name json) Util.Json.to_int_opt
        with
        | Some n when n >= 0 -> Ok (c.set t n)
        | Some _ -> Error (Printf.sprintf "metrics: negative counter %s" f.name)
        | None -> Error (Printf.sprintf "metrics: missing counter %s" f.name))
    | Histogram h -> (
        match Util.Json.member f.name json with
        | None -> Error (Printf.sprintf "metrics: missing histogram %s" f.name)
        | Some j -> (
            match Obs.Histogram.of_wire_json j with
            | Error e -> Error (Printf.sprintf "metrics: %s: %s" f.name e)
            | Ok src -> (
                match Obs.Histogram.merge ~into:(h.get t) src with
                | () -> Ok ()
                | exception Invalid_argument e ->
                    Error (Printf.sprintf "metrics: %s: %s" f.name e))))
    | Gauge _ -> Ok ()
  in
  List.fold_left (fun acc f -> Result.bind acc (fun () -> decode f)) (Ok ())
    families
  |> Result.map (fun () -> t)

(* Span name -> histogram, for routing finished traces. *)
let span_histograms =
  List.filter_map
    (fun f ->
      match f.kind with Histogram h -> Some (h.span, h.get) | _ -> None)
    families

(* Route a finished request trace into the latency histograms.  Called
   exactly once per trace, on the main domain, after pooled planning
   has joined. *)
let observe_trace t trace =
  List.iter
    (fun (s : Obs.Trace.span) ->
      match
        List.find_opt
          (fun (span, _) -> String.equal span s.Obs.Trace.name)
          span_histograms
      with
      | Some (_, get) ->
          Obs.Histogram.observe (get t)
            (float_of_int s.Obs.Trace.dur_us /. 1000.0)
      | None -> ())
    (Obs.Trace.spans trace)

let to_table t =
  let table = Util.Table.create ~columns:[ "counter"; "value" ] in
  List.iter
    (fun (name, v) ->
      let cell =
        match v with
        | Obs.Prom.Int n -> string_of_int n
        | Obs.Prom.Fixed f | Obs.Prom.Float f -> Printf.sprintf "%.3f" f
        | Obs.Prom.Hist h ->
            Printf.sprintf "n=%d p50=%.3fms p99=%.3fms"
              (Obs.Histogram.count h)
              (Obs.Histogram.quantile h 0.5)
              (Obs.Histogram.quantile h 0.99)
      in
      Util.Table.add_row table [ name; cell ])
    (fields t);
  table

let to_json t =
  Util.Json.Obj
    (List.map
       (fun (name, v) ->
         match v with
         | Obs.Prom.Int n -> (name, Util.Json.Int n)
         | Obs.Prom.Fixed f | Obs.Prom.Float f -> (name, Util.Json.Float f)
         | Obs.Prom.Hist h -> (name, Obs.Histogram.summary_json h))
       (fields t))

(* Prometheus text exposition: one [chimera_<name>] family per
   registered metric, each instance's series grouped under it. *)
let to_prometheus_many instances =
  if instances = [] then ""
  else
    Obs.Prom.render
      (List.map
         (fun f ->
           {
             Obs.Prom.name = "chimera_" ^ f.name;
             help = f.help;
             kind =
               (match f.kind with
               | Counter _ -> Obs.Prom.Counter
               | Histogram _ -> Obs.Prom.Histogram
               | Gauge _ -> Obs.Prom.Gauge);
             series =
               List.map (fun (labels, t) -> (labels, value t f)) instances;
           })
         families)

let to_prometheus ?(labels = []) t = to_prometheus_many [ (labels, t) ]

let print t = Util.Table.print (to_table t)
