"""In-memory spans around the package's public functions.

The benchmark wraps each traced name in every ``fermatpath`` module that
holds a reference to it (``fermatpath.solver.gradient_batch`` and
``fermatpath.batching.gradient_batch`` are one function, so both are
wrapped). A name the package no longer defines is skipped and reports zero
calls. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    request: object


class Tracer:
    """Records spans and counters while a request (or set-up) is open."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: list[tuple[object, str, float]] = []
        self.request = None
        self._stack: list[int] = []

    @property
    def enabled(self) -> bool:
        return self.request is not None

    def begin(self, request) -> None:
        self.request = request
        self._stack.clear()

    def end(self) -> None:
        self.request = None

    def count(self, key: str, value: float) -> None:
        if self.enabled:
            self.counts.append((self.request, key, value))

    def wrap(self, name: str, fn, span: bool = True, hook=None):
        """Return `fn` wrapped to record a span named `name`.

        `hook(tracer, args, kwargs, result)` runs after the call and may
        record counters. With span=False only the hook runs, so the wrapped
        function's time stays in its caller's self time.
        """

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = -1
            if span:
                idx = len(self.spans)
                parent = self._stack[-1] if self._stack else -1
                self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.request))
                self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                if span:
                    self.spans[idx].end = time.perf_counter()
                    self._stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in children[i]
        ):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def per_request(tracer: Tracer) -> dict:
    """{request: {name: [calls, self seconds]}} plus counter sums under their keys."""
    table = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
    for s, st in zip(tracer.spans, self_times(tracer.spans)):
        cell = table[s.request][s.name]
        cell[0] += 1
        cell[1] += st
    for request, key, value in tracer.counts:
        table[request][key][1] += value
        table[request][key][0] += 1
    return table


def install(tracer: Tracer, targets) -> list:
    """Wrap every target found; returns the undo list for `uninstall`.

    `targets` holds (span name, module, attribute, span, hook) tuples, where
    attribute may be ``Class.method`` for a classmethod.
    """
    undo = []
    for name, module, attr, span, hook in targets:
        try:
            mod = importlib.import_module(f"fermatpath.{module}")
        except ImportError:
            continue
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name, None)
            raw = None if owner is None else owner.__dict__.get(method)
            if not isinstance(raw, classmethod):
                continue
            wrapped = classmethod(tracer.wrap(name, raw.__func__, span, hook))
            setattr(owner, method, wrapped)
            undo.append((owner, method, raw))
            continue
        original = getattr(mod, attr, None)
        if original is None:
            continue
        wrapped = tracer.wrap(name, original, span, hook)
        for mname, m in list(sys.modules.items()):
            if mname == "fermatpath" or mname.startswith("fermatpath."):
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
                        undo.append((m, key, original))
    return undo


def uninstall(undo: list) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)
