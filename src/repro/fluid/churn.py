"""Flowlet-level (fluid) simulation of allocator dynamics.

The allocator-side experiments (figures 5-7, 12, 13) depend only on
the *flowlet event stream* — arrivals, departures, allocated rates —
not on per-packet behaviour.  This module simulates exactly that: time
advances in allocator iterations (10 µs in §6.2); between iterations
every flow transmits at the rate its endpoint was last *notified* of,
which is how Flowtune endpoints actually behave between updates.

The fluid model makes the large-network experiments tractable (fig. 7
runs 2048 servers) while using the very same allocator object the
packet-level simulation embeds — nothing is reimplemented.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..control.messages import (FLOWLET_END_BYTES, FLOWLET_START_BYTES,
                                RATE_UPDATE_BYTES, batched_wire_bytes,
                                wire_bytes)
from ..core.optimizer import solve_to_optimal
from ..sampling.scheduler import RateScheduler

__all__ = ["FluidFlowRecord", "FluidMetrics", "FluidSimulator"]


@dataclass
class FluidFlowRecord:
    """Lifetime bookkeeping for one flowlet in the fluid model."""

    flow_id: int
    src: int
    dst: int
    arrival: float
    size_bytes: float
    remaining_bytes: float
    completion: float | None = None

    @property
    def fct(self):
        if self.completion is None:
            return None
        return self.completion - self.arrival


@dataclass
class FluidMetrics:
    """Per-tick series and aggregate counters from a fluid run."""

    tick: float
    times: list = field(default_factory=list)
    n_active: list = field(default_factory=list)
    #: Gbit/s allocated above capacity, summed over links (fig. 12).
    over_allocation: list = field(default_factory=list)
    #: total allocated throughput (Gbit/s) after normalization.
    total_rate: list = field(default_factory=list)
    #: total throughput of a converged NED solve (fig. 13 "optimal");
    #: sampled every ``optimal_every`` ticks, aligned to optimal_times.
    optimal_times: list = field(default_factory=list)
    optimal_rate: list = field(default_factory=list)
    achieved_at_optimal: list = field(default_factory=list)
    #: wire bytes of control traffic, by direction.
    bytes_to_allocator: float = 0.0
    bytes_from_allocator: float = 0.0
    n_start_messages: int = 0
    n_end_messages: int = 0
    n_rate_updates: int = 0
    completed: list = field(default_factory=list)
    duration: float = 0.0

    # ------------------------------------------------------------------
    # derived quantities used by the figures
    # ------------------------------------------------------------------
    def fraction_of_capacity(self, network_capacity_gbps, direction="from"):
        """Control traffic as a fraction of network capacity (fig. 5)."""
        if self.duration <= 0:
            return 0.0
        byte_count = (self.bytes_from_allocator if direction == "from"
                      else self.bytes_to_allocator)
        gbits = byte_count * 8.0 / 1e9
        return gbits / (network_capacity_gbps * self.duration)

    def mean_over_allocation(self):
        """Mean over-capacity allocation in Gbit/s (fig. 12 y-axis)."""
        if not self.over_allocation:
            return 0.0
        return float(np.mean(self.over_allocation))

    def peak_over_allocation(self):
        if not self.over_allocation:
            return 0.0
        return float(np.max(self.over_allocation))

    def throughput_fraction_of_optimal(self):
        """Mean achieved/optimal throughput ratio (fig. 13 y-axis)."""
        if not self.optimal_rate:
            return float("nan")
        achieved = np.asarray(self.achieved_at_optimal)
        optimal = np.maximum(np.asarray(self.optimal_rate), 1e-12)
        return float(np.mean(achieved / optimal))

    def fcts(self):
        """Completed flowlet FCTs in seconds."""
        return np.array([r.fct for r in self.completed])


class FluidSimulator:
    """Drive a :class:`~repro.sampling.RateScheduler` with Poisson churn.

    Parameters
    ----------
    topology:
        Provides routes and the capacity denominator.
    allocator:
        The scheduler under test — full Flowtune, sampled Flowtune or
        pure ECMP (see :func:`repro.make_scheduler`).  When the
        scheduler consumes the §6.2 usage stream (``wants_usage``),
        the transmit phase reports each flow's cumulative sent bytes
        every tick, which is what feeds elephant detection.
    generator:
        A :class:`~repro.workloads.PoissonFlowletGenerator`.
    tick:
        Allocator iteration period; §6.2 uses 10 µs.
    optimal_every:
        If > 0, every that many ticks solve the NUM problem to
        convergence on a cloned flow table and record achieved vs
        optimal throughput (fig. 13's methodology).  Expensive, and
        only meaningful for schedulers that *have* a NUM problem (a
        full priced flow table) — pure ECMP or sampled schedulers are
        rejected.
    """

    def __init__(self, topology, allocator: RateScheduler, generator,
                 tick: float = 10e-6, optimal_every: int = 0):
        self.topology = topology
        self.allocator = allocator
        self.generator = generator
        self.tick = float(tick)
        self.optimal_every = int(optimal_every)
        if self.optimal_every and not hasattr(allocator, "optimizer"):
            raise ValueError(
                "optimal_every needs a scheduler with a NUM optimizer "
                f"over all flows; {type(allocator).__name__} has none")
        self._wants_usage = bool(getattr(allocator, "wants_usage", False))
        self._active: dict[int, FluidFlowRecord] = {}
        self._notified_rates: dict[int, float] = {}
        self._now = 0.0

    @property
    def now(self):
        return self._now

    @property
    def n_active(self):
        return len(self._active)

    def run(self, duration, warmup: float = 0.0) -> FluidMetrics:
        """Advance the fluid model by ``duration`` seconds.

        Metrics are only accumulated after ``warmup`` (flow population
        ramp-up would otherwise bias overhead fractions downward).
        """
        metrics = FluidMetrics(tick=self.tick)
        end_time = self._now + duration
        measure_from = self._now + warmup
        tick_index = 0
        while self._now < end_time:
            self._now = min(self._now + self.tick, end_time)
            measuring = self._now > measure_from
            self._admit_arrivals(metrics, measuring)
            result = self.allocator.iterate(1)
            self._account_updates(result, metrics, measuring)
            if measuring:
                # Sample while the rate vector is still aligned with the
                # flow table (transmit below removes finished flows).
                self._sample(result, metrics, tick_index)
            self._transmit(metrics, measuring)
            tick_index += 1
        metrics.duration = max(0.0, end_time - measure_from)
        return metrics

    # ------------------------------------------------------------------
    # per-tick phases
    # ------------------------------------------------------------------
    def _admit_arrivals(self, metrics, measuring):
        starts = []
        for arrival in self.generator.arrivals_until(self._now):
            route = self.topology.route(arrival.src, arrival.dst,
                                        arrival.flow_id)
            starts.append((arrival.flow_id, route))
            self._active[arrival.flow_id] = FluidFlowRecord(
                flow_id=arrival.flow_id, src=arrival.src, dst=arrival.dst,
                arrival=arrival.time, size_bytes=arrival.size_bytes,
                remaining_bytes=arrival.size_bytes)
            if measuring:
                metrics.n_start_messages += 1
                metrics.bytes_to_allocator += wire_bytes(FLOWLET_START_BYTES)
        if starts:
            self.allocator.apply_churn(starts=starts)

    def _account_updates(self, result, metrics, measuring):
        if result.updates:
            per_destination: dict[int, list] = {}
            for flow_id, rate in result.updates:
                self._notified_rates[flow_id] = rate
                record = self._active.get(flow_id)
                if record is None:
                    continue
                per_destination.setdefault(record.src, []).append(
                    RATE_UPDATE_BYTES)
            if measuring:
                metrics.n_rate_updates += len(result.updates)
                for payloads in per_destination.values():
                    metrics.bytes_from_allocator += batched_wire_bytes(payloads)

    def _transmit(self, metrics, measuring):
        """Send one tick at the rates just notified.

        The tick modelled is ``[now, now + tick]``: it starts at the
        notification, never before it, so a flow that arrived mid-tick
        is not credited bytes it sent before it had a rate.  A flow
        that drains completes when its last byte leaves, part-way into
        the tick.
        """
        finished = []
        tick = self.tick
        report = (self.allocator.report_usage if self._wants_usage
                  else None)
        for flow_id, record in self._active.items():
            rate_gbps = self._notified_rates.get(flow_id, 0.0)
            sent = rate_gbps * 1e9 * tick / 8.0
            before = record.remaining_bytes
            record.remaining_bytes -= sent
            if report is not None:
                report(flow_id, record.size_bytes
                       - max(record.remaining_bytes, 0.0))
            if record.remaining_bytes <= 1e-9:
                fraction = min(1.0, before / sent) if sent > 0 else 0.0
                record.completion = self._now + tick * fraction
                finished.append(flow_id)
        for flow_id in finished:
            record = self._active.pop(flow_id)
            self._notified_rates.pop(flow_id, None)
            if measuring:
                metrics.completed.append(record)
                metrics.n_end_messages += 1
                metrics.bytes_to_allocator += wire_bytes(FLOWLET_END_BYTES)
        if finished:
            self.allocator.apply_churn(ends=finished)

    def _sample(self, result, metrics, tick_index):
        rates = np.asarray(result.rate_vector)
        load = self.allocator.link_load(rates)
        # Over-allocation is measured against the scheduler's effective
        # capacities — what it believes it may use (the full allocator
        # reports its headroom-adjusted links, ECMP the physical ones).
        excess = np.maximum(load - self.allocator.links.capacity, 0.0)
        metrics.times.append(self._now)
        metrics.n_active.append(len(self._active))
        metrics.over_allocation.append(float(excess.sum()))
        metrics.total_rate.append(float(rates.sum()))
        if self.optimal_every and tick_index % self.optimal_every == 0 \
                and self.allocator.n_flows > 0:
            table = self.allocator.table
            optimal_rates, _ = solve_to_optimal(table.clone(),
                                                self.allocator.optimizer.utility,
                                                tol=1e-6,
                                                max_iterations=3000)
            metrics.optimal_times.append(self._now)
            metrics.optimal_rate.append(float(np.sum(optimal_rates)))
            metrics.achieved_at_optimal.append(float(rates.sum()))
