"""Span tracer for the benchmark: wraps calls into the program from outside.

Each wrapped call becomes a span with a duration and a self time (its
duration minus the part its child spans cover).  Parentage is per thread:
``cli._parallel`` evaluates sweep rows on a thread pool, and a single shared
stack would make a row started in one thread the child of a span running in
another, giving self times that are neither the parent's nor the child's.

The package binds most functions with ``from .x import y``, so patching only
the defining module misses the calls; :meth:`Tracer.instrument` replaces the
function object under every name that holds it in every loaded module of the
package (typically by a :meth:`Tracer.wrap` of it), and :meth:`Tracer.restore`
puts the originals back.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: int = 0


class Tracer:
    """In-memory span aggregates keyed by span name."""

    def __init__(self, keep_spans: bool = False) -> None:
        self.stats: dict[str, SpanStats] = {}
        # With keep_spans, every span is also kept as
        # (span id, parent span id or None, name, duration, self time).
        self.spans: list[tuple] | None = [] if keep_spans else None
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, total_s: float, self_s: float, error: bool = False) -> None:
        with self._lock:
            st = self.stats.setdefault(name, SpanStats())
            st.calls += 1
            st.total_s += total_s
            st.self_s += self_s
            st.errors += error

    def call(self, name: str, func, *args, **kwargs):
        """Run ``func`` as a span named ``name`` in the calling thread."""
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        frame = [next(self._ids), 0.0]  # span id, time covered by children
        stack.append(frame)
        error = True
        t0 = time.perf_counter()
        try:
            result = func(*args, **kwargs)
            error = False
            return result
        finally:
            duration = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][1] += duration
            self_s = duration - frame[1]
            self.record(name, duration, self_s, error)
            if self.spans is not None:
                self.spans.append((frame[0], parent, name, duration, self_s))

    def wrap(self, func, name: str):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            return self.call(name, func, *args, **kwargs)

        return traced

    def instrument(self, package: str, func, traced) -> None:
        """Replace ``func`` by ``traced`` wherever ``package`` binds it."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._patched.append((module, attr, func))
                    setattr(module, attr, traced)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def span_count(self) -> int:
        return sum(st.calls for st in self.stats.values())

    def group(self, prefix: str) -> SpanStats:
        """Sum of every span whose name is ``prefix`` or starts with ``prefix.``."""
        out = SpanStats()
        for name, st in self.stats.items():
            if name == prefix or name.startswith(prefix + "."):
                out.calls += st.calls
                out.total_s += st.total_s
                out.self_s += st.self_s
                out.errors += st.errors
        return out


def span_cost_s(calls: int = 20_000, repeats: int = 7) -> float:
    """Seconds a wrapped call costs over a plain one, median of ``repeats``.

    Times ``calls`` calls of a no-op through :meth:`Tracer.wrap`, nested in
    an outer span as instrumented calls are, against the same calls made
    plainly.  Span count times this cost estimates what tracing adds to a
    traced run, without comparing two noisy runs of the workload.
    """

    def noop():
        return None

    def plain():
        for _ in range(calls):
            noop()

    samples = []
    for _ in range(repeats):
        tracer = Tracer()
        traced_noop = tracer.wrap(noop, "inner")

        def traced():
            for _ in range(calls):
                traced_noop()

        t0 = time.perf_counter()
        plain()
        t1 = time.perf_counter()
        tracer.call("outer", traced)
        t2 = time.perf_counter()
        samples.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(samples)
