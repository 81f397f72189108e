"""In-memory span tracing around gatedflow's public entry points, plus the
statistics the benchmark reports from spans and samples.

A ``Tracer`` replaces each entry point with a wrapper that records one span
(name, start, end, thread, parent span, note) and puts the original back
when tracing ends. Nothing inside the library changes: the spans sit at the
boundaries the benchmark can see from outside.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    thread: int
    parent: int | None
    note: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from any thread; the parent is the innermost open span
    of the calling thread, so self time is always computed per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, note=None):
        """Return ``fn`` wrapped in a span; ``note(args, kwargs, result)`` may
        attach a count or key to the span."""
        spans = self.spans
        ids = self._ids
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans.append(Span(span_id, name, start, end, threading.get_ident(),
                                  parent, note(args, kwargs, result) if note else None))

        return traced

    def patch_method(self, cls, attr, name, note=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, note))
        self._restore.append(lambda: setattr(cls, attr, original))

    def patch_function(self, package, fn, name, note=None):
        """Rebind ``fn`` in every loaded module of ``package`` that holds it,
        so callers that imported it by name see the wrapper too."""
        wrapped = self.wrap(name, fn, note)
        prefix = package + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
                    self._restore.append(
                        lambda m=module, a=attr: setattr(m, a, fn))

    def restore(self):
        while self._restore:
            self._restore.pop()()

    @contextmanager
    def installed(self, install):
        """Run ``install(self)`` to patch the entry points, restore on exit."""
        install(self)
        try:
            yield self
        finally:
            self.restore()

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


# -- statistics -------------------------------------------------------------


def _covered(intervals, start, end) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover.

    A child is a span whose parent is this span; parents come from the
    recording thread's own stack, so only same-thread work is subtracted.
    """
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - _covered(children.get(span.id, ()), span.start,
                                          span.end)
        for span in spans
    }


def percentile(samples, level: float) -> float:
    """Nearest-rank percentile of ``samples`` at ``level`` (0 < level <= 100)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(level / 100.0 * len(ordered)))
    return ordered[rank - 1]


TAIL_LEVELS = (50.0, 90.0, 99.0, 99.9)


def tail_level(n: int, cap: float = 100.0) -> float | None:
    """The highest level in TAIL_LEVELS, not above ``cap``, that leaves at
    least ten of ``n`` samples beyond it; None when even the median does not."""
    best = None
    for level in TAIL_LEVELS:
        if level <= cap and n * (1.0 - level / 100.0) >= 10 - 1e-9:
            best = level
    return best


def tail(samples, cap: float = 100.0) -> tuple[float | None, float | None]:
    """(level, value) of the highest percentile with ten samples beyond it."""
    level = tail_level(len(samples), cap)
    if level is None:
        return None, None
    return level, percentile(samples, level)


def late_over_early(chunks) -> float:
    """Per-record time of the last tenth of chunks over that of the first.

    ``chunks`` are (duration, records) pairs in append order; a tenth is at
    least one chunk.
    """
    if not chunks:
        raise ValueError("no chunks")
    k = max(1, len(chunks) // 10)

    def per_record(part):
        return sum(d for d, _ in part) / sum(n for _, n in part)

    return per_record(chunks[-k:]) / per_record(chunks[:k])
