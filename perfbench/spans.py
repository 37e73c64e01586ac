"""In-memory span recorder for the traced (``--trace 1``) runs.

Spans are recorded from the benchmark's own files, around calls into
each layer's public functions: :meth:`Tracer.patch` swaps an attribute
(an instance method, a module function, a class property) for a
wrapper and :meth:`Tracer.restore` puts every original back, so the
program under ``src/`` is never edited and the untraced windows run
unwrapped code.

A span is ``(name, start, end, parent, op)``.  Each thread keeps its
own list (the service client traces a sender and a receiver thread),
so a parent index always refers to a span of the same thread.  A
layer's self time is its span's duration minus the durations of its
direct children; the self times of all spans under a root sum to the
root's duration, which is what lets the per-layer table add up to the
traced wall time.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

__all__ = ["Tracer", "self_times"]

_MISSING = object()


class Tracer:
    """Records spans while :attr:`enabled`; wrappers stay cheap when off.

    :attr:`op` is the id stamped on new spans: the op (or, for the
    service, the phase) they belong to.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.op = -1
        self._local = threading.local()
        self._lists: list[list[tuple]] = []
        self._lists_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans = []
            local.stack = []
            with self._lists_lock:
                self._lists.append(local.spans)
        return local.spans, local.stack

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        spans, stack = self._state()
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[idx] = (name, start, end, parent, self.op)

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def patch(self, owner, attr, name):
        """Wrap ``owner.attr`` (a callable) so each call is a span."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, original, *args, **kwargs)

        self.swap(owner, attr, traced)

    def patch_property(self, cls, attr, name):
        """Wrap the property ``cls.attr`` so each read is a span."""
        prop = cls.__dict__[attr]
        tracer = self
        self.swap(cls, attr, property(
            lambda obj: tracer.call(name, prop.fget, obj)))

    def swap(self, owner, attr, value):
        """Set ``owner.attr = value`` until :meth:`restore`."""
        own = vars(owner).get(attr, _MISSING) \
            if hasattr(owner, "__dict__") else _MISSING
        self._patches.append((owner, attr, own))
        setattr(owner, attr, value)

    def restore(self):
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def spans(self):
        """Every span, as one list per thread (``None`` marks a span
        still open; parent indices refer to list positions)."""
        with self._lists_lock:
            return [list(spans) for spans in self._lists]


def self_times(span_lists, keep=None):
    """Total self time (seconds) and call count per span name.

    ``keep(span)`` filters which spans are counted (children of a
    dropped span still subtract from it, since it is dropped whole).
    """
    totals: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for spans in span_lists:
        child = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        for i, span in enumerate(spans):
            if span is None or (keep is not None and not keep(span)):
                continue
            name, start, end = span[0], span[1], span[2]
            totals[name] += (end - start) - child[i]
            calls[name] += 1
    return dict(totals), dict(calls)
