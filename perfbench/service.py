"""``service-1k``: the allocator service over TCP, open loop.

``python -m repro.service`` is spawned with its shipped defaults (only
the 9x16x4 topology is set) and one client connection holds 1k
standing flows.  A sender thread drives a Poisson open loop at 1000
arrivals/s from a schedule made from the seed before the run: each
arrival starts one flow and ends the oldest.  The main thread
receives.  An arrival's latency runs from its *due* time (not from
when the sender got round to it) to the first RATES entry naming it.

Arrivals run in 1 s phases, the first two discarded as warm-up.
Between phases the reference kernel is timed with the service frozen
(SIGSTOP) for each pass; the client drains its socket first, because
the shipped gamma never lets NED go quiet, so the service pushes rates
continuously and drops a client that stops reading.  Each phase is
scaled to reference-host units by the samples around it, like every
other workload; for this one that does not narrow the spread (see
``README.md``), which is one reason it is not in ``BENCHMARK.json``.

``ops_per_s`` here is arrivals per second of service CPU time (read
from ``/proc``): the arrival rate one service core could carry at the
measured cost per arrival.  The arrival count per wall second would
only echo the offered rate.
"""

from __future__ import annotations

import contextlib
import inspect
import math
import os
import secrets
import select
import signal
import subprocess
import sys
import threading
import time

import numpy as np

from common import Bracketed, Calibrator, Outcome, peak_rss_mb, percentile
from inputs import RouteSource
from spans import Tracer, self_times

N_STANDING = 1_000
ARRIVALS_PER_S = 1_000.0
PHASE_S = 1.0
#: Phases run and discarded first: the service's first seconds under
#: churn are slower than the rest (measured: p50 5.2-5.5 ms, then
#: 3.5-4.2 ms).
WARMUP_PHASES = 2
#: An arrival with no RATES entry this long after its due time failed.
DEADLINE_S = 1.0
SETUP_REPEATS = 3
TOPOLOGY_ARGS = ["--racks", "9", "--hosts-per-rack", "16", "--spines", "4"]
READY_TIMEOUT_S = 60.0
STOP_WAIT_S = 5.0
#: Between phases the client keeps reading (the service pushes rates
#: continuously and drops a client that stops reading) and times one
#: reference pass per slice of draining.
DRAIN_SLICE_S = 0.02
CALIB_PASSES = 3
_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")


class _Child:
    """One service process: ``python -m repro.service`` or, traced, the
    benchmark's launcher that wraps the same entry point."""

    def __init__(self, traced):
        token = secrets.token_bytes(16).hex()
        env = dict(os.environ)
        env["REPRO_SERVICE_TOKEN"] = token
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        entry = ([os.path.join(_HERE, "service_child.py")] if traced
                 else ["-m", "repro.service"])
        self.token = token
        self.proc = subprocess.Popen(
            [sys.executable, *entry, *TOPOLOGY_ARGS], env=env,
            stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    READY_TIMEOUT_S)
        line = self.proc.stdout.readline().split() if ready else []
        if len(line) != 3 or line[0] != "SERVICE-READY":
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"service did not start: {line!r}")
        self.address = (line[1], int(line[2]))

    def cpu_s(self):
        with open(f"/proc/{self.proc.pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def signal(self, signum):
        self.proc.send_signal(signum)

    @contextlib.contextmanager
    def paused(self, client):
        """Freeze the service for one calibration pass, so the pass
        times the host and not the service competing with it.  The
        client reads what is queued first: the service pushes rates
        continuously and drops a client that stops reading."""
        _drain(client, DRAIN_SLICE_S)
        self.proc.send_signal(signal.SIGSTOP)
        try:
            yield
        finally:
            self.proc.send_signal(signal.SIGCONT)

    def stop(self, client):
        """Ask the service to exit; return what it printed after the
        ready line.  A client the service dropped (a slow reader) can
        no longer deliver SHUTDOWN, so fall back to SIGTERM."""
        from repro import FabricError
        try:
            client.shutdown_service()
        except (FabricError, OSError):
            pass
        finally:
            client.close()
        for ask in (None, self.proc.terminate, self.proc.kill):
            if ask is not None:
                ask()
            try:
                return self.proc.communicate(timeout=STOP_WAIT_S)[0]
            except subprocess.TimeoutExpired:
                continue
        raise RuntimeError("service child did not exit")


def _drain(client, seconds):
    until = time.perf_counter() + seconds
    while time.perf_counter() < until:
        client.poll(0.002)


def _start(traced, standing):
    """Spawn a service and bring its 1k standing flows up; returns
    ``(child, client)`` once every standing flow has a rate."""
    from repro.service import FlowtuneClient
    child = _Child(traced)
    try:
        client = FlowtuneClient(child.address, child.token)
        client.apply_churn(starts=standing.starts())
        client.wait_for_rates(range(N_STANDING), timeout=60.0)
    except BaseException:
        child.proc.kill()
        child.proc.communicate()
        raise
    return child, client


class _Phase:
    """One open-loop phase: schedule, sends, first-rate receipts.

    The receiver looks every RATES entry up in ``pending`` (arrivals
    sent and not yet answered): with the shipped gamma each arrival
    brings ~450 entries, so the per-entry work is kept to one dict
    probe.
    """

    def __init__(self, routes, due_offsets, first_end):
        self.routes = routes
        self.first_end = first_end
        self.offsets = due_offsets
        n = len(due_offsets)
        self.due = [0.0] * n
        self.sent = [0.0] * n
        self.got = [math.nan] * n
        self.rate = [math.nan] * n
        self.failed = [False] * n
        self.pending = {}
        self.entries = 0

    def send_all(self, client, tracer):
        base = time.perf_counter()
        routes, first, first_end = self.routes, self.routes.first, \
            self.first_end
        pending = self.pending
        for k, offset in enumerate(self.offsets.tolist()):
            due = base + offset
            self.due[k] = due
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            pending[first + k] = k
            self.sent[k] = time.perf_counter()
            tracer.call("bench.send", client.apply_churn,
                        starts=[(first + k, routes.route(k))],
                        ends=[first_end + k])

    def receive(self, client, sender, tracer):
        """Poll until every arrival has a rate or its deadline passed."""
        from repro.service import ServiceError

        remaining = len(self.offsets)
        got, rate, pending = self.got, self.rate, self.pending
        busy = client.busy_count
        while remaining:
            try:
                updates = tracer.call("bench.poll", client.poll, 0.005)
            except ServiceError:
                self._fail_in_flight()
                raise
            now = time.perf_counter()
            self.entries += len(updates)
            for fid, value in updates:
                if fid in pending:
                    k = pending.pop(fid)
                    got[k] = now
                    rate[k] = value
                    remaining -= 1
            if client.busy_count != busy:
                # A BUSY credit reply fails every arrival in flight.
                busy = client.busy_count
                self._fail_in_flight()
            if not sender.is_alive() and \
                    now > self.due[-1] + DEADLINE_S:
                break

    def _fail_in_flight(self):
        for k in list(self.pending.values()):
            self.failed[k] = True

    def latencies_ms(self, bottleneck):
        """Per-arrival latency; ``inf`` for a failed arrival."""
        lat = 1e3 * (np.array(self.got) - np.array(self.due))
        rate = np.array(self.rate)
        ok = (np.isfinite(lat) & (lat <= 1e3 * DEADLINE_S)
              & np.isfinite(rate) & (rate > 0) & (rate <= bottleneck)
              & ~np.array(self.failed))
        return np.where(ok, lat, np.inf), ok


def run(seed, seconds, trace):
    from repro import TwoTierClos
    from repro.service import FlowtuneService

    topology = TwoTierClos(n_racks=9, hosts_per_rack=16, n_spines=4)
    capacity = topology.link_set().capacity
    source = RouteSource(topology, seed)
    standing = source.take(N_STANDING)
    source.verify(standing)
    rng = np.random.default_rng(seed)
    cal = Calibrator()
    setups = Bracketed(cal, reps=3)
    for _ in range(0 if trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        child, client = _start(False, standing)
        secs = time.perf_counter() - t0
        child.stop(client)
        setups.add(secs)
    child, client = _start(trace, standing)

    tracer = Tracer()
    phases, traced_flags, cpu, factors = [], [], [], []
    next_end = 0
    try:
        timed = Bracketed(cal, reps=CALIB_PASSES,
                          around=lambda: child.paused(client))
        run_until = time.perf_counter() + WARMUP_PHASES * PHASE_S + seconds
        while (time.perf_counter() < run_until
               or len(phases) < WARMUP_PHASES + (2 if trace else 1)):
            n = max(1, int(rng.poisson(ARRIVALS_PER_S * PHASE_S)))
            offsets = np.cumsum(rng.exponential(1.0 / ARRIVALS_PER_S, n))
            routes = source.take(n)
            phase = _Phase(routes, offsets, next_end)
            next_end += n
            traced = trace and len(phases) >= WARMUP_PHASES and \
                (len(phases) - WARMUP_PHASES) % 2 == 1
            if traced:
                _install_client(tracer, client)
                child.signal(signal.SIGUSR1)
                tracer.op = len(phases)
                tracer.enabled = True
            sender = threading.Thread(target=phase.send_all,
                                      args=(client, tracer))
            cpu0 = child.cpu_s()
            t0 = time.perf_counter()
            sender.start()
            try:
                phase.receive(client, sender, tracer)
            finally:
                sender.join()
            wall = time.perf_counter() - t0
            cpu.append(child.cpu_s() - cpu0)
            if traced:
                tracer.enabled = False
                child.signal(signal.SIGUSR2)
                tracer.restore()
            phases.append(phase)
            traced_flags.append(traced)
            factors.append(timed.add(wall))
        rss = peak_rss_mb(child.proc.pid)
    finally:
        child_out = child.stop(client)
    del phases[:WARMUP_PHASES], traced_flags[:WARMUP_PHASES]
    del cpu[:WARMUP_PHASES], factors[:WARMUP_PHASES]
    lat_ms, raw_ms, ok_all = [], [], []
    for phase, factor in zip(phases, factors):
        routes = phase.routes
        bottleneck = np.array([capacity[routes.route(k)].min()
                               for k in range(len(routes))])
        lat, ok = phase.latencies_ms(bottleneck)
        raw_ms.append(lat)
        lat_ms.append(lat * factor)
        ok_all.append(ok)
    late = 1e3 * np.concatenate([
        factor * np.subtract(phase.sent, phase.due)
        for phase, factor in zip(phases, factors)])

    knobs = {name: p.default for name, p in inspect.signature(
        FlowtuneService.__init__).parameters.items()
        if p.default is not inspect.Parameter.empty
        and name not in ("host", "port", "token", "utility", "sockbuf")}
    knobs.update(topology="TwoTierClos(9, 16, 4)", n_standing=N_STANDING,
                 arrivals_per_s=ARRIVALS_PER_S, phase_s=PHASE_S,
                 warmup_phases=WARMUP_PHASES, deadline_s=DEADLINE_S,
                 client_threads="sender + receiver")
    attempted = int(sum(len(ok) for ok in ok_all))
    failed = int(sum(int((~ok).sum()) for ok in ok_all))
    record = {"knobs": knobs, "setup_s_raw": setups.raw_s,
              "service_cpu_s": cpu, "phase_factors": factors}
    plain = [i for i, t in enumerate(traced_flags) if not t]
    lat = np.concatenate([lat_ms[i] for i in plain])
    if not trace:
        metrics = {
            "setup_s": float(np.median(setups.ref_s)),
            "ops_per_s": sum(len(phases[i].offsets) for i in plain)
            / sum(cpu[i] * factors[i] for i in plain),
            "op_p50_ms": percentile(lat, 50),
            "op_p90_ms": percentile(lat, 90),
            "op_p99_ms": percentile(lat, 99),
            "rss_mb": rss,
            "ok_frac": 1.0 - failed / attempted,
            "updates_per_op": sum(phases[i].entries for i in plain)
            / len(lat),
        }
        record["late_p99_ms"] = percentile(late, 99)
        raw_lat = np.concatenate([raw_ms[i] for i in plain])
        record["raw"] = {
            "setup_s": float(np.median(setups.raw_s)),
            "ops_per_s": sum(len(phases[i].offsets) for i in plain)
            / sum(cpu[i] for i in plain),
            "op_p50_ms": percentile(raw_lat, 50),
            "op_p90_ms": percentile(raw_lat, 90),
            "op_p99_ms": percentile(raw_lat, 99)}
        return Outcome(attempted, failed, metrics, record, cal)

    traced_idx = [i for i, t in enumerate(traced_flags) if t]
    n_traced = sum(len(lat_ms[i]) for i in traced_idx)
    factor = float(np.mean([factors[i] for i in traced_idx]))
    layers = _client_layers(tracer, n_traced, factor)
    layers.update(_server_layers(child_out, n_traced, factor))
    traced_lat = np.concatenate([lat_ms[i] for i in traced_idx])
    layers.update({
        "bench.late_p99_ms": percentile(late, 99),
        "bench.trace_overhead_pct": 100.0 * (
            percentile(traced_lat, 50) / percentile(lat, 50) - 1.0),
    })
    return Outcome(attempted, failed, layers, record, cal)


def _install_client(tracer, client):
    from repro.service import wire
    from repro.service.wire import FrameBuffer

    tracer.patch(client, "apply_churn", "client.send")
    tracer.patch(client, "poll", "client.poll")
    tracer.patch(wire, "decode_message", "wire.decode")
    tracer.patch(FrameBuffer, "feed", "wire.decode")


def _client_layers(tracer, n_arrivals, factor):
    """Client-side self time per arrival (reference units).
    ``bench.send``/``bench.poll`` are the benchmark's own loop around
    the client calls."""
    totals, _ = self_times(tracer.spans())
    per = {name: factor * total / n_arrivals
           for name, total in totals.items()}
    return {
        "client.send_ms": 1e3 * per.get("client.send", 0.0),
        "client.poll_ms": 1e3 * per.get("client.poll", 0.0),
        "wire.decode_us": 1e6 * per.get("wire.decode", 0.0),
    }


def _server_layers(child_out, n_arrivals, factor):
    """Server-side self time per arrival (reference units), from the
    launcher's summary.

    The service's wall time in the traced windows splits into the
    allocator calls, the per-client update push and its encoding, the
    selector wait (idle) and the rest of the duty cycle
    (``bench.unattributed_pct``)."""
    import json

    lines = [line for line in child_out.splitlines()
             if line.startswith("TRACE ")]
    if not lines:
        raise RuntimeError("traced service printed no TRACE summary")
    summary = json.loads(lines[-1][len("TRACE "):])
    totals, calls, wall = (summary["self_s"], summary["calls"],
                           summary["wall_s"])
    per = {name: factor * total / n_arrivals
           for name, total in totals.items()}
    covered = sum(totals.values())
    return {
        "service.push_ms": 1e3 * per.get("service.push", 0.0),
        "service.apply_ms": 1e3 * per.get("service.apply", 0.0),
        "service.iterate_ms": 1e3 * per.get("service.iterate", 0.0),
        "service.updates_ms": 1e3 * per.get("service.updates", 0.0),
        "wire.encode_us": 1e6 * per.get("wire.encode", 0.0),
        "service.idle_frac": totals.get("service.idle", 0.0) / wall,
        "service.arrivals_per_cycle": n_arrivals / max(
            1, calls.get("service.iterate", 0)),
        "bench.unattributed_pct": 100.0 * (wall - covered) / wall,
    }
