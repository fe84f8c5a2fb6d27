"""In-memory span tracing for the benchmark's traced runs.

The tracer installs wrappers on the names a caller looks up (a method on its
class, a function in the namespace of the module that calls it) and restores
the originals afterwards, so the library under test is never edited. Each
wrapped call records one span: name, start, end, the span that caused it, and
optional counts such as rows or FLOPs. Spans stay in memory until the run
ends; self time is derived from them afterwards.
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict
from time import perf_counter_ns


class Span:
    __slots__ = ("name", "parent", "start", "end", "counts")

    def __init__(self, name, parent=None, start=0, end=0, counts=None):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.counts = counts


class Tracer:
    """Records spans from wrapped callables.

    Parents come from a per-thread stack of open spans. A span opened on a
    worker thread with nothing open on that thread is parented to the span
    open on the main thread, which is the call that started the worker
    (table generation fans its blocks out to a thread pool).
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._local = threading.local()
        self._main_stack = []
        self._lock = threading.Lock()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        if stack is not self._main_stack and self._main_stack:
            return self._main_stack[-1]
        return None

    def wrap(self, owner, attr, name, counts=None, absorbed_by=()):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``counts(args, kwargs, result)`` returns a dict of counts for the
        span. A call made directly inside a span named in ``absorbed_by``
        records nothing, so its time stays with that span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            if parent is not None and parent.name in absorbed_by:
                return original(*args, **kwargs)
            span = Span(name, parent)
            tracer.spans.append(span)
            stack.append(span)
            span.start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = perf_counter_ns()
                stack.pop()
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        self._patch(owner, attr, original, traced)

    def count(self, owner, attr, name):
        """Replace ``owner.attr`` with a wrapper that only counts calls."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            with tracer._lock:
                tracer.counts[name] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, original, counted)

    def _patch(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def covered_ns(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times_ns(spans):
    """Self time of each span: its duration minus the part of that interval
    its child spans cover. Returns a list aligned with ``spans``."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append((s.start, s.end))
    return [
        (s.end - s.start) - covered_ns(children.get(id(s), ()), s.start, s.end)
        for s in spans
    ]


def spans_table(spans):
    """Spans as plain rows ``[name, start_ns, end_ns, parent_index]`` with
    times relative to the first span, for writing out."""
    index = {id(s): i for i, s in enumerate(spans)}
    t0 = min((s.start for s in spans), default=0)
    return [
        [s.name, s.start - t0, s.end - t0,
         index[id(s.parent)] if s.parent is not None else -1]
        for s in spans
    ]
