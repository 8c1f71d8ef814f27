"""Per-layer self time, recorded by wrapping the simulator's public calls.

The ledger never edits the program: :func:`instrumented` swaps a timing
wrapper onto each public method that marks a layer boundary (the event
heap, the queue policy, allocators, Eq. 6 pricing, ``ClusterState``
writes and overlays, the engine loop) and puts the originals back on
exit. Spans live in memory only; a layer's *self* time is its spans'
duration minus the time their child spans cover, so self times of all
layers add up to the wall time the outermost spans cover.

Pool workers forked while the wrappers are installed inherit them and a
copy of the ledger; :meth:`Ledger.take_delta` lets such a worker hand
back what it recorded since the fork (see ``workloads.py``).
"""

from __future__ import annotations

import importlib
import time
from contextlib import ExitStack, contextmanager
from functools import partial
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

ENGINE = "scheduler.engine"
ALLOCATION = "allocation"
COUNTERFACTUAL = "allocation.counterfactual"
POLICY = "scheduler.queue_policy"

#: (import path, class name, method, layer) of every wrapped boundary
BOUNDARIES = (
    ("repro.scheduler.events", "EventQueue", "push", "scheduler.events"),
    ("repro.scheduler.events", "EventQueue", "pop_simultaneous", "scheduler.events"),
    ("repro.scheduler.events", "EventQueue", "peek", "scheduler.events"),
    ("repro.scheduler.queue_policy", "EasyBackfillPolicy", "begin_pass", POLICY),
    ("repro.scheduler.queue_policy", "EasyBackfillPolicy", "extend_pass", POLICY),
    ("repro.scheduler.queue_policy", "EasyBackfillPolicy", "select_startable", POLICY),
    ("repro.scheduler.engine", "SchedulerEngine", "__init__", ENGINE),
    ("repro.scheduler.engine", "SchedulerEngine", "run", ENGINE),
    ("repro.scheduler.engine", "SchedulerEngine", "start_job", ENGINE),
    ("repro.allocation.base", "Allocator", "allocate", ALLOCATION),
    ("repro.cost.model", "CostModel", "allocation_cost", "cost"),
    ("repro.cluster.state", "ClusterState", "allocate", "cluster.state.write"),
    ("repro.cluster.state", "ClusterState", "release", "cluster.state.write"),
    ("repro.cluster.state", "ClusterState", "release_many", "cluster.state.write"),
    ("repro.cluster.state", "ClusterState", "comm_overlay", "cluster.state.overlay"),
    ("repro.experiments.runner", "ExperimentConfig", "topology", "topology"),
)


class Ledger:
    """Self seconds and call counts per layer, plus start-job latencies."""

    def __init__(self, recorder: Optional[Any] = None) -> None:
        #: the program's ``PerfRecorder`` whose counters ride along
        self.recorder = recorder
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        #: inclusive seconds of every ``SchedulerEngine.start_job`` call
        self.start_job_s: List[float] = []
        #: perf counters merged in from pool workers
        self.merged_counters: Dict[str, float] = {}
        #: open spans, innermost last: ``[layer, child_seconds]``
        self._stack: List[List[Any]] = []
        #: allocator of the engine currently running (tells the run's
        #: allocator apart from the engine's counterfactual default)
        self.run_allocator: Optional[object] = None
        self._mark: Optional[Dict[str, Any]] = None

    # -- recording -------------------------------------------------------

    def _close(self, layer: str, t0: float) -> float:
        dt = time.perf_counter() - t0
        child = self._stack.pop()[1]
        self.self_s[layer] = self.self_s.get(layer, 0.0) + dt - child
        self.calls[layer] = self.calls.get(layer, 0) + 1
        if self._stack:
            self._stack[-1][1] += dt
        return dt

    def call(self, layer: str, fn: Callable, *args: Any) -> Any:
        """Run ``fn`` inside one span of ``layer``."""
        return self.wrap(layer, fn)(*args)

    def wrap(self, layer: str, fn: Callable, samples: Optional[List[float]] = None) -> Callable:
        """``fn`` with every call recorded as a span of ``layer``.

        ``samples``, when given, also receives each call's inclusive
        seconds.
        """
        stack, close, clock = self._stack, self._close, time.perf_counter

        def spanned(*args: Any, **kwargs: Any) -> Any:
            stack.append([layer, 0.0])
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = close(layer, t0)
                if samples is not None:
                    samples.append(dt)

        return spanned

    def wrap_run(self, fn: Callable) -> Callable:
        """Engine span around ``SchedulerEngine.run``; notes its allocator."""
        inner = self.wrap(ENGINE, fn)

        def spanned(engine: Any, *args: Any, **kwargs: Any) -> Any:
            self.run_allocator = engine.allocator
            return inner(engine, *args, **kwargs)

        return spanned

    def wrap_allocate(self, fn: Callable) -> Callable:
        """``Allocator.allocate``: the run's allocator, or the counterfactual.

        A call straight from the engine (the innermost open span is an
        engine span) by an allocator other than the run's own is the
        engine's default-placement counterfactual; everything else,
        including allocators nested inside the run's, is allocation.
        """
        stack, close, clock = self._stack, self._close, time.perf_counter

        def spanned(allocator: Any, *args: Any, **kwargs: Any) -> Any:
            counterfactual = (
                allocator is not self.run_allocator
                and bool(stack)
                and stack[-1][0] == ENGINE
            )
            layer = COUNTERFACTUAL if counterfactual else ALLOCATION
            stack.append([layer, 0.0])
            t0 = clock()
            try:
                return fn(allocator, *args, **kwargs)
            finally:
                close(layer, t0)

        return spanned

    def iterate(self, layer: str, items: Iterable[Any]) -> Iterator[Any]:
        """Yield from ``items`` with each ``next()`` recorded as a span."""
        it = iter(items)
        while True:
            self._stack.append([layer, 0.0])
            t0 = time.perf_counter()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._close(layer, t0)
            yield item

    # -- totals ------------------------------------------------------------

    @property
    def counters(self) -> Dict[str, float]:
        """The recorder's counters plus those merged from workers."""
        merged = dict(self.merged_counters)
        if self.recorder is not None:
            for k, v in self.recorder.counters.items():
                merged[k] = merged.get(k, 0) + v
        return merged

    def totals(self) -> Dict[str, Any]:
        """A copy of everything recorded so far."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "start_job_s": list(self.start_job_s),
            "counters": self.counters,
        }

    def mark(self) -> None:
        """Remember the current totals; :meth:`take_delta` reports from here."""
        self._mark = self.totals()

    def take_delta(self) -> Dict[str, Any]:
        """What was recorded since the last mark, and mark again."""
        now = self.totals()
        base = self._mark or {"self_s": {}, "calls": {}, "start_job_s": [], "counters": {}}
        delta = {
            "self_s": {k: v - base["self_s"].get(k, 0.0) for k, v in now["self_s"].items()},
            "calls": {k: v - base["calls"].get(k, 0) for k, v in now["calls"].items()},
            "start_job_s": now["start_job_s"][len(base["start_job_s"]):],
            "counters": {
                k: v - base["counters"].get(k, 0) for k, v in now["counters"].items()
            },
        }
        self._mark = now
        return delta

    def merge(self, delta: Dict[str, Any]) -> None:
        """Add a delta recorded elsewhere (a pool worker) to this ledger."""
        for k, v in delta["self_s"].items():
            self.self_s[k] = self.self_s.get(k, 0.0) + v
        for k, v in delta["calls"].items():
            self.calls[k] = self.calls.get(k, 0) + v
        self.start_job_s.extend(delta["start_job_s"])
        for k, v in delta["counters"].items():
            self.merged_counters[k] = self.merged_counters.get(k, 0) + v


@contextmanager
def patched(cls: type, method: str, make: Callable[[Callable], Callable]) -> Iterator[None]:
    """Replace ``cls.method`` by ``make(current)``; restore it on exit."""
    original = vars(cls).get(method)
    setattr(cls, method, make(getattr(cls, method)))
    try:
        yield
    finally:
        if original is None:
            delattr(cls, method)
        else:
            setattr(cls, method, original)


@contextmanager
def instrumented(ledger: Ledger) -> Iterator[Ledger]:
    """Install the ledger's wrappers on every boundary for the duration."""
    special = {
        ("SchedulerEngine", "start_job"): partial(
            ledger.wrap, ENGINE, samples=ledger.start_job_s
        ),
        ("SchedulerEngine", "run"): ledger.wrap_run,
        ("Allocator", "allocate"): ledger.wrap_allocate,
    }
    with ExitStack() as stack:
        for module, cls_name, method, layer in BOUNDARIES:
            cls = getattr(importlib.import_module(module), cls_name)
            make = special.get((cls_name, method)) or partial(ledger.wrap, layer)
            stack.enter_context(patched(cls, method, make))
        yield ledger
