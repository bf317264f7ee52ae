"""Benchmark-side spans around the calls into each layer.

A traced run wraps the public methods the harness (or the program, on the
harness's behalf) calls at each layer boundary; every call records one
span ``[name, start, end, parent, tick, tag]``. Spans stay in memory and
are dumped when the run ends. A layer's *self time* is its spans'
duration minus the part their direct children cover, so the per-layer
ledger sums to the traced wall time exactly; what the structural spans
(``run``, ``tick``, ``platform.*``) keep for themselves is the share the
ledger cannot attribute to a layer.

Only the thread that drives the platform records spans (the platform runs
its actors deterministically on that thread), so there is one span stack.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

NAME, START, END, PARENT, TICK, TAG = range(6)

#: Spans that group work without belonging to a layer; their self time is
#: harness and glue the ledger leaves unattributed.
STRUCTURAL = ("run", "tick", "platform.")


class Tracer:
    """In-memory span recorder with instance-method wrapping."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        #: Sums of the integers wrapped methods returned (``wrap(...,
        #: count=True)``), keyed by span name: work done as a count.
        self.counts: dict[str, int] = defaultdict(int)
        #: Identifier shared by every span of one request (a stream tick
        #: or a query sweep); set by the workload loop.
        self.tick = -1

    @contextmanager
    def span(self, name: str, tag: str | None = None):
        record = self._begin(name, tag)
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            self._open.pop()

    def _begin(self, name: str, tag: str | None) -> list:
        parent = self._open[-1] if self._open else -1
        record = [name, 0.0, 0.0, parent, self.tick, tag]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter()
        return record

    def wrap(self, obj, attr: str, name: str, tag: str | None = None,
             count: bool = False) -> None:
        """Replace ``obj.attr`` (a bound public method) by a version that
        records a span per call. Set on the instance, so calls the program
        makes through ``self.attr`` are traced as well. With ``count`` the
        method's integer results are summed into ``counts[name]``."""
        inner = getattr(obj, attr)
        begin, stack, clock = self._begin, self._open, time.perf_counter
        counts = self.counts

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            record = begin(name, tag)
            try:
                result = inner(*args, **kwargs)
                if count:
                    counts[name] += result
                return result
            finally:
                record[END] = clock()
                stack.pop()

        setattr(obj, attr, traced)

    # -- the ledger ---------------------------------------------------------------------

    def self_times(self) -> list[float]:
        spans = self.spans
        own = [s[END] - s[START] for s in spans]
        for span in spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def ledger(self) -> dict:
        """``(name, tag) -> {"self_s", "total_s", "calls"}``. Walks every
        span: call it once, after the run."""
        rows: dict = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0,
                                          "calls": 0})
        for span, own in zip(self.spans, self.self_times()):
            row = rows[span[NAME], span[TAG]]
            row["self_s"] += own
            row["total_s"] += span[END] - span[START]
            row["calls"] += 1
        return dict(rows)

    def shares(self, by_name: dict, root: str = "run") -> dict[str, float]:
        """The numbers that say how far to trust the ledger: the share of
        the root span's wall time no layer span accounts for, and the
        share the span recording itself is estimated to cost."""
        wall = by_name[root]["total_s"]
        attributed = sum(row["self_s"] for name, row in by_name.items()
                         if not name.startswith(STRUCTURAL))
        return {
            "ledger.unaccounted_share": 1.0 - attributed / wall,
            "trace.overhead_share": len(self.spans) * self.span_cost_s()
            / wall,
            "trace.spans": len(self.spans),
        }

    def span_cost_s(self, samples: int = 20_000) -> float:
        """Measured cost of one recorded span (an empty wrapped call)."""
        probe = Tracer()

        class _Target:
            def call(self) -> None:
                pass

        target = _Target()
        probe.wrap(target, "call", "probe")
        bare = _Target()
        start = time.perf_counter()
        for _ in range(samples):
            target.call()
        traced = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(samples):
            bare.call()
        return max(traced - (time.perf_counter() - start), 0.0) / samples

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"fields": ["name", "start", "end", "parent", "tick",
                                  "tag"],
                       "spans": self.spans}, out)


def by_name(ledger: dict) -> dict:
    """Collapse a ledger over its tags: ``name -> row``."""
    rows: dict = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0,
                                      "calls": 0})
    for (name, _tag), row in ledger.items():
        for key, value in row.items():
            rows[name][key] += value
    return rows


class NullTracer:
    """The untraced run: no spans, no wrappers, no overhead."""

    enabled = False
    tick = -1

    def span(self, name: str, tag: str | None = None):
        return nullcontext()

    def wrap(self, obj, attr: str, name: str, tag: str | None = None,
             count: bool = False) -> None:
        pass
