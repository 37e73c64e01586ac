"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload alloc-100k --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from
``src/``.  Prints a human-readable table, the run record (environment,
knobs, raw host-unit values, calibration samples) as one JSON line,
and as the last line the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  Every timing is in reference-host
units (see ``common.py``).  See ``README.md`` for why each workload is
here.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: name -> (unit, better); mirrored by BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_p90_ms": ("ms", "lower"),
    "rss_mb": ("MB", "lower"),
    "ok_frac": ("frac", "higher"),
    "updates_per_op": ("count", "lower"),
}

PER_LAYER = {
    "core.apply_churn_ms": ("ms", "lower"),
    "core.iterate_ms": ("ms", "lower"),
    "core.optimizer_ms": ("ms", "lower"),
    "core.normalize_ms": ("ms", "lower"),
    "core.kernels_ms": ("ms", "lower"),
    "core.kernel.price_sums_ms": ("ms", "lower"),
    "core.kernel.link_totals_ms": ("ms", "lower"),
    "core.kernel.link_totals2_ms": ("ms", "lower"),
    "core.kernel.max_link_value_ms": ("ms", "lower"),
    "core.updates_ms": ("ms", "lower"),
    "core.updates_per_iter": ("count", "lower"),
    "core.churn_events_per_op": ("count", "lower"),
    "sampling.apply_churn_ms": ("ms", "lower"),
    "sampling.report_usage_ms": ("ms", "lower"),
    "sampling.iterate_ms": ("ms", "lower"),
    "sampling.detector_ms": ("ms", "lower"),
    "sampling.ecmp_ms": ("ms", "lower"),
    "sampling.priced_ms": ("ms", "lower"),
    "sampling.priced_frac": ("frac", "lower"),
    "sampling.promotions_per_op": ("count", "lower"),
    "sampling.demotions_per_op": ("count", "lower"),
    "sampling.peak_load_frac": ("frac", "lower"),
    "bench.calib_ms": ("ms", "lower"),
    "bench.unattributed_pct": ("%", "lower"),
    "bench.trace_overhead_pct": ("%", "lower"),
}

#: Per-layer rows of the two workloads BENCHMARK.json leaves out (see
#: README.md): the service and its client, and the fluid simulator.
SERVICE_LAYERS = {
    "client.send_ms": ("ms", "lower"),
    "client.poll_ms": ("ms", "lower"),
    "wire.decode_us": ("us", "lower"),
    "service.push_ms": ("ms", "lower"),
    "service.apply_ms": ("ms", "lower"),
    "service.iterate_ms": ("ms", "lower"),
    "service.updates_ms": ("ms", "lower"),
    "wire.encode_us": ("us", "lower"),
    "service.idle_frac": ("frac", "higher"),
    "service.arrivals_per_cycle": ("count", "higher"),
    "bench.late_p99_ms": ("ms", "lower"),
}

FLUID_LAYERS = {
    "fluid.tick_self_ms": ("ms", "lower"),
    "topology.route_us": ("us", "lower"),
    "workloads.arrivals_ms": ("ms", "lower"),
    "fluid.active_flows": ("count", "lower"),
    "fluid.fct_p50_us": ("sim_us", "lower"),
    "fluid.fct_p99_us": ("sim_us", "lower"),
    "fluid.fct_p99_short_us": ("sim_us", "lower"),
    "fluid.overalloc_gbps": ("Gbit/s", "lower"),
    "fluid.fct_below_line_rate_frac": ("frac", "lower"),
}


def _run_workload(name, seed, seconds, trace):
    if name in ("alloc-100k", "sampled-100k"):
        import alloc
        mode = "flowtune" if name == "alloc-100k" else "sampled"
        return alloc.run(mode, seed, seconds, trace)
    if name == "service-1k":
        import service
        return service.run(seed, seconds, trace)
    import fluid
    return fluid.run(seed, seconds, trace)


def _finite(value):
    """JSON has no infinity: a percentile that failed ops pushed to
    ``inf`` is written as the largest float (the run is then marked
    incorrect anyway)."""
    return value if math.isfinite(value) else sys.float_info.max


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("alloc-100k", "sampled-100k", "service-1k",
                                 "fluid-web"),
                        help="the last two are not in BENCHMARK.json; "
                             "see README.md")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing "
              "(run from the root of a full checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    from common import REFERENCE_CALIB_MS, environment

    outcome = _run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    catalog = dict(END_TO_END)
    if args.trace:
        catalog = dict(PER_LAYER)
        catalog.update({"service-1k": SERVICE_LAYERS,
                        "fluid-web": FLUID_LAYERS}.get(args.workload, {}))
        outcome.metrics.setdefault("bench.calib_ms", outcome.cal.median_ms)
        # Layers this workload's path does not enter did no work.
        for name in catalog:
            outcome.metrics.setdefault(name, 0.0)
    missing = sorted(set(catalog) - set(outcome.metrics))
    if missing:
        raise SystemExit(f"workload did not report {missing}")
    values = outcome.metrics
    correct = outcome.failed == 0 and all(
        math.isfinite(values[name]) for name in catalog)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  calib median {outcome.cal.median_ms:.3f} ms "
          f"(reference {REFERENCE_CALIB_MS} ms)")
    for name in catalog:
        print(f"  {name:34s} {values[name]:14.4f} {catalog[name][0]}")
    for name in sorted(set(values) - set(catalog)):
        print(f"  {name:34s} {values[name]:14.4f} (not in BENCHMARK.json)")
    print(f"  checks: {outcome.attempted - outcome.failed}/"
          f"{outcome.attempted} ops passed"
          f"{'' if correct else '  -- FAILED'}")
    record = dict(outcome.record)
    record.update(environment=environment(),
                  calib_samples_ms=outcome.cal.samples_ms)
    print("record " + json.dumps(record, default=float, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": _finite(values[name]),
                           "unit": catalog[name][0]}
                    for name in catalog},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
