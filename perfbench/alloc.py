"""``alloc-100k`` and ``sampled-100k``: the allocator under churn, in process.

Closed loop, one caller thread.  100k standing flows on the 9x16x4
Clos; one op ends the oldest 1 % of flows and starts 1 % new ones
through ``apply_churn``, runs ``iterate(1)`` and reads
``result.updates`` — the list every consumer of a scheduler (service
push, fluid accounting, control-plane node) reads.  ``sampled-100k``
runs the same op under ``make_scheduler(mode="sampled")`` and adds the
usage stream: every 10th new flow reports elephant-sized bytes, which
holds the priced set near 10 %.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from common import (Bracketed, Calibrator, Outcome, layer_table,
                    peak_rss_mb, percentile, trace_core, window_rate)
from inputs import ROUTE_WIDTH, RouteSource
from spans import Tracer

N_FLOWS = 100_000
CHURN = N_FLOWS // 100
GAMMA = 0.4
WARMUP_ITERS = 30
#: Set-up is repeated (at least this often, and until this much time
#: went into it) and reported as the median.
SETUP_MIN_REPEATS = 3
SETUP_BUDGET_S = 4.0
USAGE_EVERY = 10
#: Bytes each reporting flow claims: ten times the default
#: ``promote_bytes`` (1 MiB), so it is promoted at the next iterate.
ELEPHANT_BYTES = 10.0 * (1 << 20)
RATE_WINDOW_OPS = 20
TRACE_WINDOW_OPS = 8


class _Loop:
    """The standing population and the op inputs, made from the seed."""

    def __init__(self, mode, seed):
        from repro import TwoTierClos
        self.mode = mode
        topology = TwoTierClos(n_racks=9, hosts_per_rack=16, n_spines=4)
        self.links = topology.link_set()
        self.pad = self.links.n_links
        self.source = RouteSource(topology, seed)
        standing = self.source.take(N_FLOWS)
        self.source.verify(standing)
        self.standing = standing
        # Ring of live routes: flow ``f`` lives in row ``f % N_FLOWS``
        # (each op ends exactly the ids the next CHURN starts replace).
        self.ring = standing.padded(self.pad)
        self.oldest = 0

    def build(self):
        """Scheduler construction up to the first steady-state op;
        returns (scheduler, seconds)."""
        from repro import make_scheduler
        starts = self.standing.starts()
        usage = self._usage(0, N_FLOWS)
        gc.collect()
        t0 = time.perf_counter()
        sched = make_scheduler(self.links, mode=self.mode, gamma=GAMMA)
        sched.apply_churn(starts=starts)
        for fid in usage:
            sched.report_usage(fid, ELEPHANT_BYTES)
        for _ in range(WARMUP_ITERS):
            len(sched.iterate(1).updates)
        return sched, time.perf_counter() - t0

    def next_op(self):
        """Inputs of the next op, made outside the timed region."""
        batch = self.source.take(CHURN)
        ends = list(range(self.oldest, self.oldest + CHURN))
        self.oldest += CHURN
        self.ring[np.arange(batch.first, batch.first + CHURN) % N_FLOWS] = \
            batch.padded(self.pad)
        return batch.starts(), ends, self._usage(batch.first, CHURN)

    def _usage(self, first, count):
        """Flows that report elephant-sized usage (sampled mode only)."""
        if self.mode != "sampled":
            return []
        return list(range(first, first + count, USAGE_EVERY))

    def check(self, sched, result, updates):
        """Normalized link loads within capacity; updated rates finite
        and non-negative.  Returns (ok, peak merged load / capacity)."""
        sent = np.fromiter((u.rate for u in updates), dtype=np.float64,
                           count=len(updates))
        ok = bool(np.isfinite(sent).all() and (sent >= 0).all())
        ids = np.asarray(result.flow_ids, dtype=np.int64)
        rates = np.asarray(result.rate_vector, dtype=np.float64)
        if self.mode == "sampled":
            # Only the priced half is F-NORM-normalized; it comes first
            # in the merged vector and is held to its own capacities.
            n_priced = sched.priced.n_flows
            normalized = (ids[:n_priced], rates[:n_priced])
            capacity = sched.priced.links.capacity
        else:
            normalized = (ids, rates)
            capacity = sched.links.capacity
        load = self._load(*normalized)
        ok = ok and bool((load <= capacity * (1 + 1e-9)).all())
        merged = self._load(ids, rates) if self.mode == "sampled" else load
        peak = float((merged / self.links.capacity).max())
        return ok, peak

    def _load(self, ids, rates):
        rows = self.ring[ids % N_FLOWS]
        return np.bincount(rows.ravel(),
                           weights=np.repeat(rates, ROUTE_WIDTH),
                           minlength=self.pad + 1)[:self.pad]


def _op(sched, starts, ends, usage):
    sched.apply_churn(starts=starts, ends=ends)
    for fid in usage:
        sched.report_usage(fid, ELEPHANT_BYTES)
    result = sched.iterate(1)
    return result, result.updates


def run(mode, seed, seconds, trace):
    loop = _Loop(mode, seed)
    cal = Calibrator()
    setups = Bracketed(cal, reps=3)
    sched = None
    while not setups.raw_s or not trace and (
            len(setups.raw_s) < SETUP_MIN_REPEATS
            or sum(setups.raw_s) < SETUP_BUDGET_S):
        sched = None  # drop the previous build before the next one
        sched, secs = loop.build()
        setups.add(secs)
    tracer = Tracer()
    counts = {"promotions": 0, "demotions": 0}
    ops, traced_ops = Bracketed(cal), Bracketed(cal)
    n_updates, peaks = [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        starts, ends, usage = loop.next_op()
        # Traced runs alternate untraced and traced windows, so the
        # overhead is measured against the same stretch of time.
        traced = trace and (attempted // TRACE_WINDOW_OPS) % 2 == 1
        if traced:
            _install(tracer, sched, counts)
            tracer.op = attempted
            tracer.enabled = True
            t0 = time.perf_counter()
            result, updates = tracer.call("bench.op", _op, sched, starts,
                                          ends, usage)
            elapsed = time.perf_counter() - t0
            tracer.enabled = False
            tracer.restore()
        else:
            t0 = time.perf_counter()
            result, updates = _op(sched, starts, ends, usage)
            elapsed = time.perf_counter() - t0
        attempted += 1
        n_updates.append(len(updates))
        ok, peak = loop.check(sched, result, updates)
        peaks.append(peak)
        failed += not ok
        del result, updates
        (traced_ops if traced else ops).add(elapsed)

    priced = sched.priced if mode == "sampled" else sched
    knobs = {"mode": mode, "gamma": priced.optimizer.gamma,
             "update_threshold": sched.update_threshold,
             "optimizer": type(priced.optimizer).__name__,
             "normalizer": type(priced.normalizer).__name__,
             "n_flows": N_FLOWS, "churn_per_op": CHURN,
             "warmup_iters": WARMUP_ITERS,
             "topology": "TwoTierClos(9, 16, 4)"}
    if mode == "sampled":
        detector = sched.detector
        knobs.update(promote_bytes=detector.promote_bytes,
                     idle_epochs=detector.idle_epochs,
                     check_every=detector.check_every,
                     mice_refresh=sched.mice.refresh_every,
                     mice_load_smoothing=sched.mice_load_smoothing,
                     usage_every=USAGE_EVERY,
                     elephant_bytes=ELEPHANT_BYTES)
    record = {"knobs": knobs, "setup_s_raw": setups.raw_s,
              "peak_load_over_capacity": max(peaks)}
    if mode == "sampled":
        record["priced_frac_end"] = sched.priced_fraction
    if not trace:
        ms = 1e3 * np.asarray(ops.ref_s)
        metrics = {
            "setup_s": float(np.median(setups.ref_s)),
            "ops_per_s": window_rate(ops.ref_s, RATE_WINDOW_OPS),
            "op_p50_ms": percentile(ms, 50),
            "op_p90_ms": percentile(ms, 90),
            "rss_mb": peak_rss_mb(),
            "ok_frac": 1.0 - failed / attempted,
            "updates_per_op": float(np.mean(n_updates)),
        }
        raw_ms = 1e3 * np.asarray(ops.raw_s)
        record["raw"] = {"setup_s": float(np.median(setups.raw_s)),
                         "ops_per_s": window_rate(ops.raw_s,
                                                  RATE_WINDOW_OPS),
                         "op_p50_ms": percentile(raw_ms, 50),
                         "op_p90_ms": percentile(raw_ms, 90)}
        # Fewer than ten ops lie beyond p99 in a run: recorded, not
        # reported.
        record["op_p99_ms"] = percentile(ms, 99)
        record["op_ms"] = ms.tolist()
        return Outcome(attempted, failed, metrics, record, cal)

    traced_idx = [i for i in range(attempted)
                  if (i // TRACE_WINDOW_OPS) % 2 == 1]
    n_traced = len(traced_idx)
    layers = layer_table(tracer.spans(), n_traced,
                         sum(traced_ops.ref_s) / sum(traced_ops.raw_s))
    layers.update({
        "core.updates_per_iter": sum(n_updates[i] for i in traced_idx)
        / n_traced,
        "core.churn_events_per_op": float(2 * CHURN),
        "bench.trace_overhead_pct": 100.0 * (
            float(np.median(traced_ops.ref_s))
            / float(np.median(ops.ref_s)) - 1.0),
    })
    if mode == "sampled":
        layers.update({
            "sampling.priced_frac": float(sched.priced_fraction),
            "sampling.promotions_per_op": counts["promotions"] / n_traced,
            "sampling.demotions_per_op": counts["demotions"] / n_traced,
            "sampling.peak_load_frac": max(peaks),
        })
    # The layer rows plus bench.unattributed_pct of this add up to it.
    record["traced_op_ms"] = 1e3 * float(np.mean(traced_ops.ref_s))
    return Outcome(attempted, failed, layers, record, cal)


def _install(tracer, sched, counts):
    from repro.core.allocator import AllocationResult
    from repro.sampling.ecmp import _LazySlotResult
    from repro.sampling.sampled import _MergedResult

    for cls in (AllocationResult, _MergedResult, _LazySlotResult):
        tracer.patch_property(cls, "updates", "core.updates")
    if sched.wants_usage:
        tracer.patch(sched, "apply_churn", "sampling.apply_churn")
        tracer.patch(sched, "report_usage", "sampling.report_usage")
        tracer.patch(sched, "iterate", "sampling.iterate")
        for name in ("apply_churn", "iterate"):
            tracer.patch(sched.mice, name, "sampling.ecmp")
            tracer.patch(sched.priced, name, "sampling.priced")
        advance = sched.detector.advance

        def counted():
            promotions, demotions = tracer.call("sampling.detector",
                                                advance)
            counts["promotions"] += len(promotions)
            counts["demotions"] += len(demotions)
            return promotions, demotions

        tracer.swap(sched.detector, "advance", counted)
        return
    trace_core(tracer, sched)
