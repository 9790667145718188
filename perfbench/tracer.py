"""External tracer: wraps poptree's public functions from the outside.

Each boundary keeps aggregates only (calls, total time, self time), because
one control run crosses the boundaries millions of times.  Self time is a
boundary's own duration minus the durations of the traced boundaries it
called, found through a stack of open calls.  Coarse boundaries (one
realization, run_experiment, write_outputs) also record full spans.

The wrappers read the clock and nothing else: they draw from no RNG and
mutate no simulation state, so a traced run must write the same bytes as an
untraced one.
"""

from __future__ import annotations

import time


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self._stack: list[float] = []  # time spent in traced callees, per open call
        self._span_stack: list[int] = []
        self._origin = time.perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def patch(self, owner, attr: str, name: str, *, span=False, before=None, after=None):
        """Replace `owner.attr` (a module global or a class method, patched
        where its caller looks it up) with a timing wrapper reporting under
        `name`.  Several functions may share one name.  `before(*args)` and
        `after(result, *args)` run outside the timed window and are charged
        to no boundary's self time."""
        fn = getattr(owner, attr)
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        if span or before or after:
            def wrapper(*args, **kwargs):
                entered = clock()
                if before is not None:
                    before(*args)
                if span:
                    span_id = self._open_span(name)
                stack.append(0.0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    elapsed = end - start
                    callees = stack.pop()
                    stat[0] += 1
                    stat[1] += elapsed
                    stat[2] += elapsed - callees
                    if span:
                        self._close_span(span_id, start, end)
                if after is not None:
                    after(result, *args)
                if stack:  # hook time counts as callee time, so no self time holds it
                    stack[-1] += clock() - entered
                return result
        else:
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    callees = stack.pop()
                    stat[0] += 1
                    stat[1] += elapsed
                    stat[2] += elapsed - callees
                    if stack:
                        stack[-1] += elapsed

        setattr(owner, attr, wrapper)

    def _open_span(self, name: str) -> int:
        span_id = len(self.spans)
        parent = self._span_stack[-1] if self._span_stack else None
        self.spans.append({"id": span_id, "parent": parent, "name": name})
        self._span_stack.append(span_id)
        return span_id

    def _close_span(self, span_id: int, start: float, end: float) -> None:
        self._span_stack.pop()
        self.spans[span_id]["start_s"] = start - self._origin
        self.spans[span_id]["end_s"] = end - self._origin

    def report(self) -> dict:
        return {
            "boundaries": {
                name: {"calls": calls, "total_s": total, "self_s": self_s}
                for name, (calls, total, self_s) in self.stats.items()
            },
            "counters": self.counters,
            "spans": self.spans,
        }
