(* Metric names and units: the contract later changes name their
   claims by.  End-to-end metrics come from untraced runs, per-layer
   metrics from traced ones. *)

module J = Util.Json

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type t = {
  metrics : metric list;
  chk : Check.t;
  meta : (string * J.t) list;
  traces : Obs.Trace.t list;  (** traced runs: the client-side spans *)
}

(* [lat] is client-observed latency in seconds, in arrival order.
   [rss_mb] is the peak resident set of the workers of one set-up,
   median over set-ups where a run makes several. *)
let end_to_end ~setup_s ~lat ~segment ~answered ~wall_s ~rss_mb ~sim_dram_mb =
  let ms = Array.map (fun x -> x *. 1e3) lat in
  let tail = Pstats.tail ~segment ms in
  ( [
      m "setup_s" "s" setup_s;
      m "latency_ms.p50" "ms" (Pstats.median ms);
      m "latency_ms.tail" "ms" tail.Pstats.value;
      m "throughput_rps" "req/s" (float_of_int answered /. wall_s);
      m "peak_rss_mb" "MB" rss_mb;
      m "sim_dram_mb.geomean" "MB" sim_dram_mb;
    ],
    [ ("latency_tail", Pstats.tail_json tail); ("samples", J.Int (Array.length lat)) ] )

(* What the serving path measured in a traced phase, beside the
   in-process layer timings. *)
type path = {
  hit_ratio : float;  (** worker plan-cache hits / lookups *)
  request_us : float;  (** mean worker-side request time (the worker reports whole microseconds) *)
  transit_us : float;  (** median round trip minus worker time *)
  submit_us : float;  (** median [Router.submit] time *)
  hot_hit_ratio : float;
  wait_ms : float;  (** median client latency minus worker time *)
  shed : int;
  admission_degraded : int;
  busy_frac : float;
  unattributed_pct : float;
  trace_overhead_pct : float;
  gen_late_ms : float;
  fail_frac : float;
  degraded_frac : float;
}

let per_layer (l : Probe.layers) ~saves ~file_kb ~load_ms (p : path) =
  [
    m "service.request.parse_us" "us" l.Probe.parse_us;
    m "service.request.resolve_us" "us" l.Probe.resolve_us;
    m "service.fingerprint_us" "us" l.Probe.fingerprint_us;
    m "service.plan_cache.find_us" "us" l.Probe.find_us;
    m "service.plan_cache.hit_ratio" "ratio" p.hit_ratio;
    m "service.plan_cache.save_ms.p50" "ms" (Pstats.median saves);
    m "service.plan_cache.save_ms.tail" "ms"
      (Pstats.tail ~segment:(Array.length saves) saves).Pstats.value;
    m "service.plan_cache.saves" "count" (float_of_int (Array.length saves));
    m "service.plan_cache.file_kb" "KB" file_kb;
    m "service.plan_cache.load_ms" "ms" load_ms;
    m "analytical.planner.gemm_ms" "ms" l.Probe.gemm_ms;
    m "analytical.planner.conv_ms" "ms" l.Probe.conv_ms;
    m "analytical.planner.prune_ratio" "ratio" l.Probe.prune_ratio;
    m "analytical.planner.evals" "count" l.Probe.evals;
    m "verify.cert_check_ms" "ms" l.Probe.cert_check_ms;
    m "verify.cert_check_share" "ratio" l.Probe.cert_check_share;
    m "verify.certified_frac" "ratio" l.Probe.certified_frac;
    m "codegen.kernel_us" "us" l.Probe.kernel_us;
    m "util.json.serialize_us" "us" l.Probe.serialize_us;
    m "service.serve.request_us" "us" p.request_us;
    m "pipe.transit_us" "us" p.transit_us;
    m "fleet.router.submit_us" "us" p.submit_us;
    m "fleet.router.hot_hit_ratio" "ratio" p.hot_hit_ratio;
    m "fleet.router.wait_ms" "ms" p.wait_ms;
    m "fleet.router.shed" "count" (float_of_int p.shed);
    m "fleet.router.admission_degraded" "count" (float_of_int p.admission_degraded);
    m "fleet.worker.busy_frac" "ratio" p.busy_frac;
    m "sim.model_ratio" "ratio" l.Probe.model_ratio;
    m "bench.unattributed_pct" "%" p.unattributed_pct;
    m "bench.trace_overhead_pct" "%" p.trace_overhead_pct;
    m "bench.gen_late_ms.max" "ms" p.gen_late_ms;
    m "bench.fail_frac" "ratio" p.fail_frac;
    m "bench.degraded_frac" "ratio" p.degraded_frac;
  ]

let result_json r =
  J.Obj
    [
      ("correct", J.Bool (Check.correct r.chk));
      ("attempted", J.Int (max 1 r.chk.Check.attempted));
      ("failed", J.Int r.chk.Check.failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun x -> (x.name, J.Obj [ ("value", J.Float x.value); ("unit", J.String x.unit_) ]))
             r.metrics) );
    ]
