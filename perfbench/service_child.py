"""Traced launcher for the service child of ``service-1k``.

Installs span wrappers around the service's allocator calls, its
per-client rate push, the rate encoder and the selector wait, then
hands over to the service's own entry point
(``repro.service.__main__.main``) with the same arguments and token
environment as ``python -m repro.service``.
SIGUSR1 starts a traced window and SIGUSR2 ends it, so only the
benchmark's traced phases are recorded.  When the service exits, one
``TRACE {...}`` line on stdout carries the self time per layer and the
traced wall time.
"""

from __future__ import annotations

import json
import selectors
import signal
import sys
import time

from spans import Tracer, self_times


def main():
    from repro.core.allocator import AllocationResult
    from repro.service import server, wire
    from repro.service.__main__ import main as service_main

    tracer = Tracer()
    make_scheduler = server.make_scheduler

    def traced_make_scheduler(*args, **kwargs):
        scheduler = make_scheduler(*args, **kwargs)
        tracer.patch(scheduler, "apply_churn", "service.apply")
        tracer.patch(scheduler, "iterate", "service.iterate")
        return scheduler

    tracer.swap(server, "make_scheduler", traced_make_scheduler)
    tracer.patch_property(AllocationResult, "updates", "service.updates")
    tracer.patch(server.FlowtuneService, "_push_updates", "service.push")
    tracer.patch(wire, "encode_rates", "wire.encode")
    tracer.patch(selectors.DefaultSelector, "select", "service.idle")

    windows = []

    def start_window(_signum, _frame):
        windows.append([time.perf_counter(), None])
        tracer.enabled = True

    def end_window(_signum, _frame):
        tracer.enabled = False
        if windows and windows[-1][1] is None:
            windows[-1][1] = time.perf_counter()

    def terminate(_signum, _frame):
        raise SystemExit(0)

    signal.signal(signal.SIGUSR1, start_window)
    signal.signal(signal.SIGUSR2, end_window)
    signal.signal(signal.SIGTERM, terminate)
    try:
        service_main(sys.argv[1:])
    except SystemExit:
        pass
    totals, calls = self_times(tracer.spans())
    wall = sum(end - start for start, end in windows if end is not None)
    print("TRACE " + json.dumps({"self_s": totals, "calls": calls,
                                 "wall_s": wall, "windows": len(windows)}),
          flush=True)


if __name__ == "__main__":
    main()
