"""The ledger's four workloads, each split into seeded segments.

A *segment* is one self-contained simulation drawn from
``(seed, segment index)``: a fresh topology, a fresh trace and a fresh
engine, run to completion with every record hashed. A run repeats
segments until its time is up, so more work is measured per run and
trace-to-trace variation averages out; the first ``digest_segments``
segments are always run and pin the output (digest, simulated hours).

In-process workloads (``theta-adaptive``, ``mira-adaptive``,
``stream-default``) drive :class:`~repro.scheduler.engine.SchedulerEngine`
directly; ``paper-table3`` goes through
:func:`~repro.experiments.runner.continuous_runs` with two pool workers.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import struct
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.cost import clear_leaf_pair_cache
from repro.experiments.runner import ExperimentConfig, continuous_runs, prepare_jobs
from repro.scheduler.engine import EngineConfig, SchedulerEngine
from repro.topology import mira_like, theta_like
from repro.workloads import single_pattern_mix, stream_trace
from repro.workloads.classify import assign_kinds, assign_kinds_stream
from repro.workloads.logs import MIRA_SPEC, generate_log

from run_bench import LADDER_ALLOCATOR, LADDER_PERCENT_COMM, LADDER_POLICY
from spans import Ledger, patched

PAPER_PERCENT_COMM = 90.0
RHVD = single_pattern_mix("rhvd")
TABLE3_LOGS = ("intrepid", "theta", "mira")
TABLE3_JOBS = 1000
TABLE3_WORKERS = 2


def segment_seed(seed: int, k: int) -> int:
    """Seed of segment ``k`` of a run seeded with ``seed``."""
    return seed * 1000 + k


def trace_and_label_seeds(seed: int) -> tuple:
    """Distinct generator seeds for a segment's trace and its comm labels.

    Both the generators and the labellers seed numpy with the bare value
    (``stream_trace`` with ``[seed, chunk]``, which draws the same first
    chunk), so one shared seed would reuse the size draws as label
    draws: every job under the comm threshold is then a one-node job,
    and none is labelled communication-intensive.
    """
    return 2 * seed, 2 * seed + 1


class DigestSink:
    """Record sink: hashes each finished record and sums simulated hours.

    The digest covers start, finish, node list and both Eq. 6 cost maps
    of every record in arrival order, bit for bit. ``keep`` collects the
    records themselves when a caller wants to compare them one by one.
    """

    def __init__(self, keep: Optional[List[Any]] = None) -> None:
        self._hash = hashlib.sha256()
        self.keep = keep
        self.records = 0
        self.exec_s = 0.0
        self.wait_s = 0.0

    def __call__(self, record: Any) -> None:
        update = self._hash.update
        update(struct.pack("<qdd", record.job.job_id, record.start_time, record.finish_time))
        update(record.nodes.astype("<i8", copy=False).tobytes())
        for costs in (record.cost_jobaware, record.cost_default):
            for name in sorted(costs):
                update(name.encode())
                update(struct.pack("<d", costs[name]))
        self.records += 1
        self.exec_s += record.finish_time - record.start_time
        self.wait_s += record.start_time - record.job.submit_time
        if self.keep is not None:
            self.keep.append(record)

    def hexdigest(self) -> str:
        """Digest of everything hashed so far."""
        return self._hash.hexdigest()


@dataclass
class Segment:
    """Outcome of one segment."""

    index: int
    jobs: int
    unstarted: int
    digest: str
    exec_h: float
    wait_h: float
    #: host seconds from the first set-up step to the simulation's start
    setup_s: float
    #: host seconds of the simulation itself (the jobs/s denominator)
    run_s: float
    #: host seconds of the whole segment, set-up included
    wall_s: float
    records: List[Any] = field(default_factory=list, repr=False)
    #: pool workloads: per-call walls and the cell work they contained
    calls: List[Dict[str, Any]] = field(default_factory=list, repr=False)


def _spanned(ledger: Optional[Ledger], layer: str, fn: Callable, *args: Any) -> Any:
    return fn(*args) if ledger is None else ledger.call(layer, fn, *args)


def streamed_jobs(seed: int, *, n: int, percent_comm: float) -> Iterator[Any]:
    """``n`` Theta-shaped jobs from :func:`stream_trace`, labelled lazily."""
    trace_seed, label_seed = trace_and_label_seeds(seed)
    return assign_kinds_stream(
        stream_trace(n, seed=trace_seed),
        percent_comm=percent_comm,
        mix=RHVD,
        seed=label_seed,
    )


def mira_jobs(seed: int, *, n: int) -> List[Any]:
    """``n`` jobs of the paper's Mira mix, materialised eagerly."""
    trace_seed, label_seed = trace_and_label_seeds(seed)
    return assign_kinds(
        generate_log(MIRA_SPEC, n, seed=trace_seed),
        percent_comm=PAPER_PERCENT_COMM,
        mix=RHVD,
        seed=label_seed,
    )


@dataclass(frozen=True)
class EngineWorkload:
    """A workload simulated in this process, one engine per segment."""

    name: str
    topology: Callable[[], Any]
    allocator: str
    policy: str
    #: segment seed -> the segment's jobs
    jobs: Callable[[int], Any]
    #: ``jobs`` is lazy and goes to ``run(stream=...)``
    streaming: bool
    digest_segments: int
    warmup: bool = True

    def segment(
        self, seed: int, k: int, ledger: Optional[Ledger] = None, keep: bool = False
    ) -> Segment:
        """Set up and simulate segment ``k``."""
        t0 = time.perf_counter()
        clear_leaf_pair_cache()
        topo = _spanned(ledger, "topology", self.topology)
        if self.streaming:
            stream = self.jobs(segment_seed(seed, k))
            if ledger is not None:
                stream = ledger.iterate("workloads", stream)
            # the first job draws the stream's first chunk: set-up, since
            # no job can be simulated before it exists
            head = next(stream)
            jobs = itertools.chain((head,), stream)
        else:
            jobs = _spanned(ledger, "workloads", self.jobs, segment_seed(seed, k))
        engine = SchedulerEngine(topo, self.allocator, EngineConfig(policy=self.policy))
        records: List[Any] = []
        sink = DigestSink(records if keep else None)
        record_sink = sink if ledger is None else ledger.wrap("sink", sink)
        t1 = time.perf_counter()
        if self.streaming:
            result = engine.run(stream=jobs, record_sink=record_sink)
        else:
            result = engine.run(jobs, record_sink=record_sink)
        t2 = time.perf_counter()
        unstarted = len(result.unstarted)
        return Segment(
            index=k,
            jobs=sink.records + unstarted,
            unstarted=unstarted,
            digest=sink.hexdigest(),
            exec_h=sink.exec_s / 3600.0,
            wait_h=sink.wait_s / 3600.0,
            setup_s=t1 - t0,
            run_s=t2 - t1,
            wall_s=t2 - t0,
            records=records,
        )


def _cell_hook(ledger: Optional[Ledger]) -> Callable[[Callable], Callable]:
    """Outer ``SchedulerEngine.run`` wrapper for forked pool workers.

    Stamps when each cell's simulation started (``perf_counter`` is
    system-wide on Linux, so stamps compare across processes) and, when
    tracing, what the worker's ledger recorded for the cell. Both ride
    back to the parent on the returned result.
    """
    owner = os.getpid()

    def make(run: Callable) -> Callable:
        def hooked(engine: Any, *args: Any, **kwargs: Any) -> Any:
            t0 = time.perf_counter()
            result = run(engine, *args, **kwargs)
            if result is not None and os.getpid() != owner:
                result.ledger_cell = {
                    "run_start": t0,
                    "delta": None if ledger is None else ledger.take_delta(),
                }
            return result

        return hooked

    return make


@dataclass(frozen=True)
class PoolWorkload:
    """The paper's Table 3 continuous runs through the 2-worker pool."""

    name: str
    digest_segments: int = 1
    warmup: bool = False

    def segment(
        self, seed: int, k: int, ledger: Optional[Ledger] = None, keep: bool = False
    ) -> Segment:
        """All three logs x the four paper allocators, one call per log."""
        sseed = segment_seed(seed, k)
        hasher = hashlib.sha256()
        jobs = unstarted = 0
        exec_h = wait_h = setup_s = run_s = 0.0
        calls: List[Dict[str, Any]] = []
        records: List[Any] = []
        t_first = time.perf_counter()
        with patched(SchedulerEngine, "run", _cell_hook(ledger)):
            for log in TABLE3_LOGS:
                cfg = ExperimentConfig(
                    log=log,
                    n_jobs=TABLE3_JOBS,
                    percent_comm=PAPER_PERCENT_COMM,
                    mix=RHVD,
                    seed=sseed,
                )
                t0 = time.perf_counter()
                job_list = _spanned(ledger, "workloads", prepare_jobs, cfg)
                if ledger is not None:
                    ledger.mark()
                t1 = time.perf_counter()
                results = continuous_runs(cfg, job_list, workers=TABLE3_WORKERS)
                t2 = time.perf_counter()
                cells = [getattr(r, "ledger_cell", None) for r in results.values()]
                if None in cells:
                    raise RuntimeError(
                        "paper-table3 times cells in pool workers forked from "
                        "this process; continuous_runs ran them elsewhere"
                    )
                first_start = min(cell["run_start"] for cell in cells)
                setup_s += (t1 - t0) + (first_start - t1)
                run_s += t2 - t1
                calls.append({"wall_s": t2 - t1, "cells": cells})
                for name, res in results.items():
                    sink = DigestSink()
                    for record in res.records:
                        sink(record)
                    hasher.update(f"{log}/{name}:{sink.hexdigest()}".encode())
                    jobs += len(res.records) + len(res.unstarted)
                    unstarted += len(res.unstarted)
                    exec_h += res.total_execution_hours
                    wait_h += res.total_wait_hours
                    if keep:
                        records.extend(res.records)
        return Segment(
            index=k,
            jobs=jobs,
            unstarted=unstarted,
            digest=hasher.hexdigest(),
            exec_h=exec_h,
            wait_h=wait_h,
            setup_s=setup_s,
            run_s=run_s,
            wall_s=time.perf_counter() - t_first,
            records=records,
            calls=calls,
        )


WORKLOADS: Dict[str, Any] = {
    wl.name: wl
    for wl in (
        EngineWorkload(
            name="theta-adaptive",
            topology=theta_like,
            allocator="adaptive",
            policy="backfill",
            jobs=partial(streamed_jobs, n=3000, percent_comm=PAPER_PERCENT_COMM),
            streaming=True,
            digest_segments=4,
        ),
        EngineWorkload(
            name="mira-adaptive",
            topology=mira_like,
            allocator="adaptive",
            policy="backfill",
            jobs=partial(mira_jobs, n=500),
            streaming=False,
            digest_segments=4,
        ),
        EngineWorkload(
            name="stream-default",
            topology=theta_like,
            allocator=LADDER_ALLOCATOR,
            policy=LADDER_POLICY,
            jobs=partial(streamed_jobs, n=5000, percent_comm=LADDER_PERCENT_COMM),
            streaming=True,
            digest_segments=4,
        ),
        PoolWorkload(name="paper-table3"),
    )
}
