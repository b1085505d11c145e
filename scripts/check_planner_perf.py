#!/usr/bin/env python3
"""Gate the planner benchmark: the batched engine's speed, the
certificate checker's overhead, and the tie-aware pruning must all
hold on every run.

Usage: check_planner_perf.py BENCH_planner.json
           [--min-geomean 18] [--max-cert-pct 5] [--max-conv-ms 40]

BENCH_planner.json is the output of
`bench/main.exe planner --json ...`: one record per workload x preset
pair (ref/fast latencies, prune accounting, certificate-check cost)
plus a summary record (geomeans, cert aggregate, model-vs-simulator
residuals, allocation counters).

Asserts:

  * geomean cold-plan speedup >= --min-geomean (paper-scale wins, not
    a lucky row);
  * every conv row plans in under --max-conv-ms (the interactive
    budget; conv rows are the slow family);
  * the independent certificate check costs < --max-cert-pct of the
    aggregate cold-plan time it certifies;
  * every GEMM row pruned at least one order -- GEMM boxes price to
    exact DV ties, so pruning there proves the tie-aware gate works;
  * every preset reports its model-vs-simulator residual
    (calib_<preset>_raw_rel_err) over all of its rows, with no row
    skipped by the simulator's block cap;
  * the gpu residual is exactly 0 (the regime the paper validates in
    Fig. 8; the replay is deterministic);
  * the allocation counters are present (the bench itself enforces
    their bounds and aborts the run on a regression).
"""

import argparse
import json
import sys


def fail(msg):
    print(f"check_planner_perf: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("bench_json")
    ap.add_argument("--min-geomean", type=float, default=18.0)
    ap.add_argument("--max-cert-pct", type=float, default=5.0)
    ap.add_argument("--max-conv-ms", type=float, default=40.0)
    args = ap.parse_args()

    with open(args.bench_json) as f:
        doc = json.load(f)
    records = doc.get("records", [])
    rows = [r for r in records if r.get("family") in ("gemm", "conv")]
    summaries = [r for r in records if r.get("name") == "summary"]
    if not rows:
        fail("no per-workload rows")
    if len(summaries) != 1:
        fail(f"expected exactly one summary record, got {len(summaries)}")
    summary = summaries[0]

    gm = summary.get("geomean_speedup")
    if gm is None:
        fail("summary carries no geomean_speedup")
    if gm < args.min_geomean:
        fail(f"geomean speedup {gm:.1f}x < {args.min_geomean:g}x")

    cert = summary.get("cert_check_aggregate_pct")
    if cert is None:
        fail("summary carries no cert_check_aggregate_pct")
    if cert >= args.max_cert_pct:
        fail(f"certificate check at {cert:.2f}% of cold-plan time "
             f"(budget < {args.max_cert_pct:g}%)")

    slow_conv = [(r["name"], r["fast_ms"])
                 for r in rows
                 if r.get("family") == "conv"
                 and r.get("fast_ms", 0.0) >= args.max_conv_ms]
    if slow_conv:
        worst = max(slow_conv, key=lambda nv: nv[1])
        fail(f"{len(slow_conv)} conv row(s) at or over {args.max_conv_ms:g} "
             f"ms (worst {worst[0]} at {worst[1]:.1f} ms)")

    unpruned_gemm = [r["name"] for r in rows
                     if r.get("family") == "gemm"
                     and r.get("perms_pruned", 0) <= 0]
    if unpruned_gemm:
        fail("tie-aware pruning never fired on GEMM row(s): "
             + ", ".join(unpruned_gemm))

    skipped = summary.get("calib_skipped_rows")
    if skipped != 0:
        fail(f"calib_skipped_rows is {skipped!r}, expected 0")
    calib = []
    for preset in sorted({r.get("preset") for r in rows}):
        n = sum(1 for r in rows if r.get("preset") == preset)
        got = summary.get(f"calib_{preset}_rows")
        raw = summary.get(f"calib_{preset}_raw_rel_err")
        if raw is None or got != n:
            fail(f"residual for {preset} covers {got!r} of {n} rows")
        calib.append(f"{preset} {100 * raw:.2f}%")
    if summary.get("calib_gpu_raw_rel_err") != 0.0:
        fail("gpu model-vs-simulator residual is "
             f"{summary.get('calib_gpu_raw_rel_err')!r}, expected exactly 0")

    for counter in ("alloc_words_per_eval_batched_G1",
                    "alloc_words_per_eval_reference_G1"):
        if counter not in summary:
            fail(f"summary carries no {counter} (allocation accounting "
                 "was skipped?)")

    conv_ms = [r["fast_ms"] for r in rows if r.get("family") == "conv"]
    print(f"check_planner_perf: OK: {len(rows)} rows, geomean {gm:.1f}x, "
          f"cert check {cert:.2f}%, worst conv {max(conv_ms):.1f} ms, "
          f"model-vs-sim residual " + "; ".join(calib))


if __name__ == "__main__":
    main()
