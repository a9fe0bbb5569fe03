"""In-memory span and count recorder used by the traced benchmark runs.

A span is (name, start, end, parent, run): `parent` is the index of the
enclosing span or -1, `run` the id of the benchmark round that caused it.
Counts are recorded at the same boundaries, keyed by (run, name). Calls are
traced by replacing a function at the attribute its caller looks up;
`restore` puts every original back and must run in a `finally` block.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    run: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.run = 0
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        # reserve the slot now so children can name it as their parent
        self.spans.append(Span(name, 0.0, 0.0, parent, self.run))
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self.run)

    def add(self, name: str, value: float = 1.0) -> None:
        self.counts[(self.run, name)] += value

    def patch(self, owner, attr: str, name, counts=None) -> None:
        """Trace every call of `owner.attr`.

        `name` is a span name or a function of the call's positional
        arguments returning one; `counts(args, kwargs, result)` returns a
        dict of counts to add after the call.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            with tracer.span(label):
                result = original(*args, **kwargs)
            if counts is not None:
                for key, value in counts(args, kwargs, result).items():
                    tracer.add(key, value)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children.

        Spans come from one thread and nest properly, so children never
        overlap and their durations add up to the part of the parent they
        cover.
        """
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own
