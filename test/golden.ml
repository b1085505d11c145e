(* Deterministic service metrics and SLO state behind the exposition and
   wire goldens in fixtures/ (metrics_golden.*, fleet_golden.prom,
   slo_golden.prom).  The golden texts pin the output byte for byte, so
   changing anything here means regenerating them. *)

(* Every counter distinct and non-zero; every histogram observed across
   its range, overflow bucket included. *)
let worker k =
  let open Service.Metrics in
  let m = create () in
  let c i = (1000 * k) + (7 * i) + 1 in
  m.requests <- c 0;
  m.hits <- c 1;
  m.misses <- c 2;
  m.evictions <- c 3;
  m.planner_solves <- c 4;
  m.degraded <- c 5;
  m.heuristic <- c 6;
  m.failed <- c 7;
  m.invalid_requests <- c 8;
  m.deadline_exceeded <- c 9;
  m.internal_errors <- c 10;
  m.cache_corrupt <- c 11;
  m.cache_entries_skipped <- c 12;
  m.cache_io_retries <- c 13;
  m.cache_entries_migrated <- c 14;
  m.verify_runs <- c 15;
  m.verify_warnings <- c 16;
  m.verify_failures <- c 17;
  m.verify_certified_total <- c 18;
  m.verify_conditional_total <- c 19;
  m.verify_uncertifiable_total <- c 20;
  m.plan_evals_total <- c 21;
  m.plan_perms_pruned_total <- c 22;
  m.trace_spans_dropped <- c 23;
  m.trace_ring_evictions <- c 24;
  List.iteri
    (fun i h ->
      List.iter
        (fun v -> Obs.Histogram.observe h (v *. float_of_int (i + k + 1)))
        [ 0.0004; 0.37; 12.5; 4096.25; 2e6 ])
    [
      m.solve_ms; m.cache_lookup_ms; m.perm_solve_ms; m.tuner_trial_ms;
      m.codegen_ms; m.verify_ms;
    ];
  m

let merged () =
  let m = Service.Metrics.create () in
  Service.Metrics.merge ~into:m (worker 0);
  Service.Metrics.merge ~into:m (worker 1);
  m

(* A label value that needs every escape: quote, backslash, newline. *)
let awkward_label = "q\"b\\s\nn"

(* Merged unlabelled series next to two labelled workers. *)
let instances () =
  [
    ([], merged ());
    ([ ("worker", "0") ], worker 0);
    ([ ("worker", awkward_label) ], worker 1);
  ]

(* Two objectives over two windows, fed on a virtual clock. *)
let slo () =
  let clock = ref 0.0 in
  let slo =
    Obs.Slo.create ~windows_s:[ 60.0; 600.0 ] ~granularity_s:1.0
      ~now:(fun () -> !clock)
      [ Obs.Slo.availability 0.999; Obs.Slo.latency ~threshold_ms:250.0 0.99 ]
  in
  let latency = Obs.Histogram.create () in
  List.iteri
    (fun i (good, total) ->
      clock := float_of_int (i * 45);
      for j = 1 to 10 do
        Obs.Histogram.observe latency (float_of_int (j * j * (i + 1)))
      done;
      Obs.Slo.observe slo ~good ~total ~latency)
    [ (10, 10); (19, 20); (27, 30); (36, 40) ];
  slo
