"""In-memory spans recorded around calls into the package, from outside it.

A span has a name, a start, an end, the index of the span that caused it
and the id of the job it belongs to.  `Tracer.wrap` replaces a function at
the module attribute where its caller looks it up (`stve.cli.estimate` is
the name cli.py calls, `stve.estimator.eigendecompose` the one estimator.py
calls), so the package is measured without being edited.  Spans stay in
memory until `write` at the end of the run.
"""
from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    job: int | None
    end: float = 0.0
    error: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_time(start: float, end: float, children: list[tuple[float, float]]) -> float:
    """Duration of [start, end] minus the part of it the child intervals cover."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(children):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (end - start) - covered


class Tracer:
    """Records spans for one single-threaded run and patches functions to open them."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._clock = clock
        self._stack: list[int] = []
        self._job: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self._clock(), parent, self._job))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int, error: bool = False) -> None:
        span = self.spans[index]
        span.end = self._clock()
        span.error = error
        self._stack.pop()

    @contextmanager
    def _span(self, name: str):
        index = self._open(name)
        try:
            yield index
        except Exception:
            self._close(index, error=True)
            raise
        self._close(index)

    @contextmanager
    def job(self, job_id: int):
        """Root span of one job; spans opened inside carry its id."""
        self._job = job_id
        try:
            with self._span("job"):
                yield
        finally:
            self._job = None

    def wrap(self, owner, attr: str, name: str, annotate=None) -> None:
        """Replace owner.attr by a wrapper that records a span named `name`.

        annotate(args, kwargs, result) returns a dict of counts stored on the
        span; it runs after the span has closed, so its cost is not timed.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self._span(name) as index:
                result = original(*args, **kwargs)
            if annotate is not None:
                self.spans[index].attrs.update(annotate(args, kwargs, result))
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap(self) -> None:
        """Restore every function `wrap` replaced."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self) -> list[float]:
        """Self time of every span, in the order of `spans`."""
        children: list[list[tuple[float, float]]] = [[] for _ in self.spans]
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        return [self_time(s.start, s.end, kids) for s, kids in zip(self.spans, children)]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(span) for span in self.spans], fh)
