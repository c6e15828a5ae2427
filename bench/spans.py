"""In-memory spans around calls into the delaes package.

A :class:`Tracer` wraps a function so that each call records a span
``[label, start, end, parent]``, where ``parent`` is the index of the span
that was open when the call began (-1 at top level).  :func:`instrument`
installs such wrappers as module attributes, at the names the callers look
up, and restores the originals on exit.  Nothing inside the package changes.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.samples: dict[str, list[float]] = {}
        self._open: list[int] = []

    def wrap(self, label: str, fn, on_call=None):
        """``fn`` recording a span per call; ``on_call(args, kwargs, result)``
        runs after the span closes, so its cost is not charged to ``label``."""
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([label, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        return traced

    def record(self, key: str, value: float) -> None:
        """Keep one per-call count, such as the essays a call scored."""
        self.samples.setdefault(key, []).append(value)

    def total(self, key: str) -> float:
        return sum(self.samples.get(key, ()))

    def durations(self, label: str) -> list[float]:
        return [end - start for name, start, end, _ in self.spans if name == label]

    def layers(self) -> dict[str, dict[str, float]]:
        """Per label: summed span seconds, call count and self seconds (span
        minus the time covered by its direct children)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            row = out.setdefault(name, {"s": 0.0, "calls": 0, "self_s": 0.0})
            row["s"] += end - start
            row["calls"] += 1
            row["self_s"] += end - start - covered
        return out


@contextmanager
def instrument(tracer: Tracer, targets):
    """Patch ``(module, attribute, label, on_call)`` targets for the block.

    Two attributes bound to the same function (for example a name imported
    into a second module) both get a wrapper around the original, never a
    wrapper around a wrapper.
    """
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
    try:
        for (module, attr, label, on_call), (_, _, original) in zip(targets, saved):
            setattr(module, attr, tracer.wrap(label, original, on_call))
        yield tracer
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)
