"""Shared pieces of the benchmark: drift control, statistics, records.

Host-speed drift
----------------
On the 2-vCPU KVM host the benchmark was built on, speed moves by tens
of percent between windows minutes apart, and back-to-back repeats do
not show it.  Every run therefore times a fixed reference kernel
(:class:`Calibrator`) between its timed pieces, never inside them, and
reports each timing in reference-host units: ``raw *
REFERENCE_CALIB_MS / calib``, where ``calib`` is the geometric mean of
the samples taken right before and right after the piece
(:class:`Bracketed`).  The raw value stays in the run record.  The
kernel has a numpy gather/scatter half, shaped like the allocator's
CSR kernels, and a Python-object half, shaped like update
materialization (a list of named tuples plus a dict), because the
workloads spend their time in both.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import sys
import time
from contextlib import nullcontext
from typing import NamedTuple

import numpy as np

from spans import self_times

__all__ = ["REFERENCE_CALIB_MS", "Calibrator", "Bracketed", "Outcome",
           "percentile", "window_rate", "layer_table", "trace_core",
           "peak_rss_mb", "environment"]

#: Typical calibration time on the reference host (2-vCPU KVM Xeon,
#: Python 3.11, numpy 2.4), fixed once; the unit every reported
#: timing is converted to.
REFERENCE_CALIB_MS = 6.5


class _Rec(NamedTuple):
    key: int
    value: float


class Calibrator:
    """The interleaved reference kernel; fixed inputs, no seed."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._n, self._hops, self._links = 20_000, 4, 600
        self._flat = rng.integers(0, self._links,
                                  size=self._n * self._hops)
        self._prices = rng.random(self._links)
        self._keys = list(range(6_000))
        self._vals = rng.random(6_000).tolist()
        self.samples_ms: list[float] = []

    def _numpy_half(self):
        rho = self._prices[self._flat].reshape(self._n, self._hops).sum(1)
        rates = 1.0 / (rho + 1.0)
        return np.bincount(self._flat, weights=np.repeat(rates, self._hops),
                           minlength=self._links)

    def _python_half(self):
        recs = [_Rec(k, v) for k, v in zip(self._keys, self._vals)]
        table = {rec.key: rec.value for rec in recs}
        return sum(1 for rec in recs if table[rec.key] > 0.5)

    def sample(self, reps: int = 3, around=None) -> float:
        """Time ``reps`` passes of both halves; return their median.
        ``around()``, when given, is a context manager entered (untimed)
        around each pass."""
        passes = []
        for _ in range(reps):
            with around() if around is not None else nullcontext():
                passes.append(self._pass())
        self.samples_ms.extend(passes)
        return float(np.median(passes))

    def _pass(self):
        start = time.perf_counter()
        self._numpy_half()
        self._python_half()
        return 1e3 * (time.perf_counter() - start)

    @property
    def median_ms(self) -> float:
        return float(np.median(self.samples_ms))

    @staticmethod
    def factor(before_ms: float, after_ms: float) -> float:
        """Multiply a raw time taken between two calibration samples
        by this to get reference-host units."""
        return REFERENCE_CALIB_MS / math.sqrt(before_ms * after_ms)


class Bracketed:
    """Times a piece of work between two calibration samples and keeps
    both the raw and the reference-unit duration of each piece.

    The host's vCPUs switch between a fast and a slow state every few
    seconds, so one factor per run does not track them; each timed
    piece (an op, a set-up) is scaled by the samples taken right
    before and right after it.
    """

    def __init__(self, cal: Calibrator, reps: int = 1,
                 around=None) -> None:
        self.cal = cal
        self.reps = reps
        self.around = around
        self.raw_s: list[float] = []
        self.ref_s: list[float] = []
        self._before = cal.sample(reps, around)

    def add(self, seconds: float) -> float:
        """Record a piece timed since the previous calibration sample;
        return its reference-unit factor."""
        after = self.cal.sample(self.reps, self.around)
        factor = self.cal.factor(self._before, after)
        self.raw_s.append(seconds)
        self.ref_s.append(seconds * factor)
        self._before = after
        return factor


class Outcome(NamedTuple):
    """What one workload run hands back to ``run.py``: op counts,
    metric values by name (timings in reference-host units), the run
    record (which keeps the raw host-unit timings), the calibrator."""

    attempted: int
    failed: int
    metrics: dict
    record: dict
    cal: Calibrator


#: Layers whose per-op self time is reported in microseconds.
MICRO_LAYERS = frozenset({"topology.route", "wire.decode", "wire.encode"})


def layer_table(span_lists, n_ops, factor, root="bench.op"):
    """Per-op self time of every traced layer, plus the remainder.

    The ``root`` span wraps each traced op; its self time is the part
    of the op no layer span covers (``bench.unattributed_pct``), so
    the layer rows and the remainder add up to the traced wall time.
    Times are multiplied by ``factor`` (reference-host units).
    """
    totals, _ = self_times(span_lists)
    wall = sum(span[2] - span[1] for spans in span_lists for span in spans
               if span is not None and span[0] == root)
    out = {}
    for name, total in totals.items():
        if name == root:
            continue
        if name in MICRO_LAYERS:
            out[f"{name}_us"] = 1e6 * factor * total / n_ops
        else:
            out[f"{name}_ms"] = 1e3 * factor * total / n_ops
    out["core.kernels_ms"] = sum(v for k, v in out.items()
                                 if k.startswith("core.kernel."))
    out["bench.unattributed_pct"] = 100.0 * totals.get(root, 0.0) / wall
    return out


def trace_core(tracer, allocator):
    """Span wrappers on a :class:`FlowtuneAllocator`'s layers: churn,
    iterate (its self time is the threshold mask and result
    construction), NED, F-NORM and the four CSR kernels."""
    tracer.patch(allocator, "apply_churn", "core.apply_churn")
    tracer.patch(allocator, "iterate", "core.iterate")
    tracer.patch(allocator.optimizer, "iterate", "core.optimizer")
    tracer.patch(allocator, "normalizer", "core.normalize")
    for kernel in ("price_sums", "link_totals", "link_totals2",
                   "max_link_value"):
        tracer.patch(allocator.table, kernel, f"core.kernel.{kernel}")


def percentile(values, q):
    """``q``-th percentile; ``inf`` entries (failed ops) sort last."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def window_rate(op_seconds, per_window):
    """Median over consecutive windows of ``per_window`` ops of the ops
    completed per second of op time (robust to a GC pause or a stall
    landing in one window)."""
    ops = np.asarray(op_seconds, dtype=np.float64)
    n = len(ops) // per_window
    if n == 0:
        return len(ops) / float(ops.sum())
    sums = ops[: n * per_window].reshape(n, per_window).sum(axis=1)
    return float(np.median(per_window / sums))


def peak_rss_mb(pid=None):
    """Peak resident set size of this process (or of ``pid``)."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def environment() -> dict:
    """What a later change needs to attribute a move in the numbers."""
    from repro.core import kernels

    return {
        "kernel_tier": kernels.describe(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "gc_thresholds": gc.get_threshold(),
        "argv": sys.argv[1:],
    }
