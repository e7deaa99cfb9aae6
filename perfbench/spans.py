"""Span tracing from outside the library, by swapping module attributes.

The library looks its public functions up through module globals (the CLI
calls ``sigma.analyze``, ``analyze`` calls ``closure``, ``group.validate``
calls ``zmod.mult_order``, ...), so replacing those attributes with a timing
wrapper sees every call without touching the library's code.  Spans stay in
memory and are written out when the run ends.  Private helpers are never
wrapped: their cost shows as the self time of the public function above.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict


class Tracer:
    """Collects spans (name, start, end, parent, case) and result counters.

    A span inherits the case id of its parent.  A span with no case whose
    name is one of ``case_openers`` starts a new case, so every call below
    it (one commutation side, one oracle check, ...) shares that id.
    """

    def __init__(self, case_openers=()):
        self.case_openers = frozenset(case_openers)
        self.spans: list[list] = []  # [name, t0, t1, parent, case]
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._cases = 0
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        case = self.spans[parent][4] if parent is not None else None
        if case is None and name in self.case_openers:
            case = self._cases
            self._cases += 1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, case])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, module, attr: str, *, count=None, label=None) -> None:
        """Replace ``module.attr`` with a span-recording wrapper.

        ``count(counters, result, args, kwargs)`` derives counters from the
        returned value; ``label(args, kwargs)`` appends a suffix to the span
        name.  A name the module no longer has is recorded as absent.
        """
        name = f"{module.__name__.rpartition('.')[2]}.{attr}"
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.append(name)
            return
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name if label is None else f"{name}.{label(args, kwargs)}"
            idx = tracer.open(span_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                count(tracer.counters, out, args, kwargs)
            return out

        setattr(module, attr, wrapper)
        self._saved.append((module, attr, fn))

    def restore(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def totals(self):
        """Per span name: total duration, self time and call count, plus
        the same per case id."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        per_case: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for idx, (name, t0, t1, _, case) in enumerate(self.spans):
            total[name] += t1 - t0
            self_time[name] += t1 - t0 - child[idx]
            calls[name] += 1
            if case is not None:
                per_case[case][name] += t1 - t0
                per_case[case][name + ".self"] += t1 - t0 - child[idx]
        return total, self_time, calls, per_case

    def durations(self, name: str) -> list[float]:
        return [t1 - t0 for n, t0, t1, _, _ in self.spans if n == name]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"absent": self.absent, "spans": self.spans}, fh)

