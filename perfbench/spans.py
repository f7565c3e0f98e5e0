"""Spans around the program's layer entry points, recorded from outside
the program.

``Tracer.install`` replaces each entry point listed in ``_targets`` by a
wrapper that records one span per call: wall time, Spark jobs launched,
persisted-RDD count and, for metered KV methods, the meter delta.
``uninstall`` puts the originals back. Nothing under ``src/`` changes.

Spark job counts come from the highest job id the status tracker
reports, read after the listener bus has drained, so they repeat exactly
between runs. Self time and self jobs of a span are its own minus those
of its child spans, the tracer's own work on them included (calls are
single-threaded, so children never overlap).
"""
from __future__ import annotations

import functools
import gc
import re
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    tag: str | None  # client operation the span ran under
    t0: float
    jobs0: int
    rdds0: frozenset[int]  # ids of persisted RDDs at entry (RDD spans only)
    meter0: dict | None
    obj: object = None  # the metered instance, if any
    t1: float = 0.0
    jobs1: int = 0
    new_rdds: int = 0  # RDDs the call persisted that are alive at its exit
    meter: dict = field(default_factory=dict)  # meter delta
    child_s: float = 0.0
    child_jobs: int = 0
    top: bool = False  # no enclosing span
    bookkeeping_s: float = 0.0  # tracer time spent on this span

    @property
    def dur_s(self) -> float:
        return self.t1 - self.t0

    @property
    def jobs(self) -> int:
        return self.jobs1 - self.jobs0

    @property
    def self_s(self) -> float:
        return self.dur_s - self.child_s

    @property
    def self_jobs(self) -> int:
        return self.jobs - self.child_jobs


# Spans that count the RDDs they persist.
_RDD_SPANS = {"kvstore.fetch"}


def _targets():
    """(owner, attribute, span name, metered) for every traced entry
    point; a metered one is a method whose instance carries a ``Meter``."""
    from repro import runner
    from repro.core import plan as planmod
    from repro.nosql import kvstore, zidian

    return [
        (runner, "build_context", "runner.build", False),
        (runner, "warm", "runner.warm", False),
        (runner, "evaluate_baseline", "sqllayer", False),
        (zidian, "evaluate_baseline", "sqllayer", False),  # M1 fallback path
        (zidian.Zidian, "answer", "zidian.answer", False),
        (zidian.Zidian, "plan", "plangen", False),
        (zidian.Zidian, "degrees", "zidian.bound_check", False),
        (zidian, "plan_is_bounded", "zidian.bound_check", False),
        (planmod, "execute", "plan.execute", False),
        (kvstore.KVInstance, "fetch", "kvstore.fetch", True),
        (kvstore.KVInstance, "scan", "kvstore.scan", True),
        (kvstore.KVInstance, "put", "kvstore.put", True),
    ]


class SparkCounters:
    """Exact Spark job and persisted-RDD counts of one SparkContext."""

    def __init__(self, sc) -> None:
        self._tracker = sc.statusTracker()
        self._bus = sc._jsc.sc().listenerBus()
        self._jsc = sc._jsc
        self._jvm = sc._jvm

    def jobs(self) -> int:
        """Jobs submitted so far: highest job id + 1."""
        self._bus.waitUntilEmpty()
        ids = self._tracker.getJobIdsForGroup(None)
        return max(ids) + 1 if ids else 0

    def persisted_rdds(self) -> int:
        """Persisted RDDs still reachable. Spark keeps them in a map with
        weak values, so the count is read after a full collection on
        both sides; without it, it depends on when the JVM last
        collected."""
        gc.collect()
        self._jvm.System.gc()
        return self._jsc.getPersistentRDDs().size()

    def persisted_rdd_ids(self) -> frozenset[int]:
        """Ids of the persisted RDDs, in one round trip to the JVM."""
        keys = self._jsc.getPersistentRDDs().keySet().toString()
        return frozenset(int(k) for k in re.findall(r"\d+", keys))


class Tracer:
    def __init__(self, counters: SparkCounters) -> None:
        self.counters = counters
        self.spans: list[Span] = []
        self.tag: str | None = None
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------
    def install(self) -> None:
        for owner, attr, name, metered in _targets():
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(name, orig, metered))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _wrap(self, name: str, fn, metered: bool):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            obj = args[0] if metered else None
            span = tracer._enter(name, obj)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(span)

        return traced

    # -- spans ---------------------------------------------------------
    def _enter(self, name: str, obj) -> Span:
        b0 = time.perf_counter()
        c = self.counters
        span = Span(
            name,
            self.tag,
            0.0,
            c.jobs(),
            c.persisted_rdd_ids() if name in _RDD_SPANS else frozenset(),
            obj.meter.snapshot() if obj is not None else None,
            obj,
            top=not self._stack,
        )
        self._stack.append(span)
        span.t0 = time.perf_counter()
        span.bookkeeping_s = span.t0 - b0
        return span

    def _exit(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        c = self.counters
        span.jobs1 = c.jobs()
        if span.name in _RDD_SPANS:
            span.new_rdds = len(c.persisted_rdd_ids() - span.rdds0)
        if span.obj is not None:
            after = span.obj.meter.snapshot()
            span.meter = {k: after[k] - span.meter0[k] for k in after}
        self._stack.pop()
        self.spans.append(span)
        span.bookkeeping_s += time.perf_counter() - span.t1
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += span.dur_s + span.bookkeeping_s
            parent.child_jobs += span.jobs

    def select(self, name: str, tags: set[str]) -> list[Span]:
        return [s for s in self.spans if s.name == name and s.tag in tags]
