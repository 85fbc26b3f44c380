"""In-memory span recorder that wraps functions from outside the program.

A span is (name, start, end, parent, value): parent is the index of the
enclosing span or -1, and value is an optional number a wrapper noted about
the call (a node count, a byte count). Wrappers are installed by replacing
attributes on modules and classes and are removed by restoring the exact
objects that were there before, so code measured after ``uninstall`` runs
unwrapped.
"""

from __future__ import annotations

import functools
import time
from typing import Callable

Span = tuple[str, float, float, int, float | None]


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str,
             label: Callable | None = None, note: Callable | None = None) -> None:
        """Replace ``owner.attr`` by a wrapper that records one span per call.

        ``label(args, kwargs)`` may refine the span name; ``note(args,
        kwargs, result)`` may return a number stored on the span of a call
        that returned.
        """
        original = vars(owner)[attr]
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_name = label(args, kwargs) if label else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (span_name, t0, t1, parent, None)
            if note is not None:
                spans[idx] = (span_name, t0, t1, parent, note(args, kwargs, result))
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def finished_spans(self) -> list[Span]:
        if self._stack or any(s is None for s in self.spans):
            raise RuntimeError("spans are still open")
        return list(self.spans)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def ancestors(spans: list[Span], idx: int):
    """Names of the spans enclosing span ``idx``, innermost first."""
    parent = spans[idx][3]
    while parent >= 0:
        yield spans[parent][0]
        parent = spans[parent][3]


def write_spans(path, spans: list[Span]) -> None:
    """One tab-separated line per span: name, start, end, parent, value."""
    with open(path, "w", encoding="utf-8") as f:
        for name, start, end, parent, value in spans:
            f.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t"
                    f"{'' if value is None else repr(value)}\n")
