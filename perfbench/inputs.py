"""Seeded workload inputs, held as flat numpy arrays.

Routes are made by the same ECMP hash :meth:`TwoTierClos.route` uses,
evaluated over whole arrays instead of one Python call per flow (260k
``route`` calls cost 1.5-2.4 s here and would crowd out the measured
work), and :meth:`RouteSource.verify` checks a sample against
``TwoTierClos.route`` itself so the two cannot drift apart.  Nothing is
kept per flow as a Python object: a batch is a flat link array plus
offsets, and a per-flow route is a view cut from it just before the
call that consumes it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ROUTE_WIDTH", "RouteSource", "RouteBatch"]

_MASK32 = 0xFFFFFFFF
#: Hops of the longest route in a two-tier Clos (host-ToR-spine-ToR-host).
ROUTE_WIDTH = 4


class RouteBatch:
    """Routes of flows ``first .. first+count-1``: flat links + offsets."""

    def __init__(self, first, flat, offsets):
        self.first = first
        self.flat = flat
        self.offsets = offsets

    def __len__(self):
        return len(self.offsets) - 1

    def route(self, j):
        return self.flat[self.offsets[j]: self.offsets[j + 1]]

    def starts(self):
        """``(flow_id, route)`` tuples for ``apply_churn``."""
        flat, off, first = self.flat, self.offsets.tolist(), self.first
        return [(first + j, flat[off[j]: off[j + 1]])
                for j in range(len(off) - 1)]

    def padded(self, pad):
        """``(count, ROUTE_WIDTH)`` route matrix, short routes padded
        with ``pad``."""
        lengths = np.diff(self.offsets)
        mat = np.full((len(lengths), ROUTE_WIDTH), pad, dtype=np.int64)
        mat[np.arange(ROUTE_WIDTH) < lengths[:, None]] = self.flat
        return mat


class RouteSource:
    """Uniform random src/dst pairs on a :class:`TwoTierClos`, drawn in
    flow-id order from one seeded generator, so the same seed gives the
    same routes for every flow id."""

    def __init__(self, topology, seed):
        self.topology = topology
        self.rng = np.random.default_rng(seed)
        self.next_id = 0

    def take(self, count):
        """Routes for the next ``count`` flow ids."""
        topo = self.topology
        first = self.next_id
        self.next_id += count
        n_hosts = topo.n_hosts
        src = self.rng.integers(0, n_hosts, size=count)
        dst = self.rng.integers(0, n_hosts - 1, size=count)
        dst += dst >= src
        fid = np.arange(first, first + count, dtype=np.int64)
        key = (src * 2654435761 + dst * 40503 + fid * 2246822519) & _MASK32
        key ^= key >> 13
        spine = key % topo.n_spines
        hpr, n_racks, n_spines = (topo.hosts_per_rack, topo.n_racks,
                                  topo.n_spines)
        src_rack, dst_rack = src // hpr, dst // hpr
        up = 2 * n_hosts + src_rack * n_spines + spine
        down = 2 * n_hosts + n_racks * n_spines + dst_rack * n_spines + spine
        cross = src_rack != dst_rack
        lengths = np.where(cross, 4, 2)
        mat = np.stack([src, up, down, n_hosts + dst], axis=1)
        mat[~cross, 1] = n_hosts + dst[~cross]
        flat = mat[np.arange(ROUTE_WIDTH) < lengths[:, None]]
        offsets = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return RouteBatch(first, flat, offsets)

    def verify(self, batch, n_checks=200):
        """Raise if a sample of ``batch`` differs from ``topology.route``.

        Needs the src/dst of each flow, which the route encodes: the
        first hop is the source's uplink and the last the destination's
        downlink.
        """
        topo = self.topology
        step = max(1, len(batch) // n_checks)
        for j in range(0, len(batch), step):
            route = batch.route(j)
            src, dst = int(route[0]), int(route[-1]) - topo.n_hosts
            expected = topo.route(src, dst, batch.first + j)
            if not np.array_equal(route, expected):
                raise RuntimeError(
                    f"route of flow {batch.first + j} is {route.tolist()}, "
                    f"topology.route gives {expected.tolist()}")
