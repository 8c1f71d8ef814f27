"""Interactive SLURM-style controller (``sbatch`` / ``squeue`` / ``sinfo``).

The batch engine (:mod:`repro.scheduler.engine`) replays a fixed job
log; this facade offers the *online* mode a SLURM user expects: submit
jobs as virtual time advances, inspect the queue and per-switch
occupancy, cancel jobs, fail and repair nodes. It has no scheduling
logic of its own: it holds one open
:class:`~repro.scheduler.engine.SchedulerEngine` run and drives it
through the engine's step API, so every start, completion,
interruption and scheduling pass is the engine's.

**The instant contract.** The engine handles simultaneous events as one
batch followed by one scheduling pass, and the facade maps commands
onto those batches. ``sbatch`` joins the open instant's batch; every
other command and every query first closes the instant by running its
batch; ``advance(s)`` closes the instant, then runs the batches
strictly before ``now + s``. So a script that advances only when time
moves, submits each job at its submit time and then drains gets the
records :func:`~repro.scheduler.engine.simulate` gives for the same
jobs (equal :func:`~repro.runs.digest.result_digest`), and
``scontrol_down`` / ``scontrol_resume`` (NODE_DOWN / NODE_UP events at
``now``) match ``simulate(faults=...)`` at instants no other event
shares. A query between two ``sbatch`` calls at one instant splits
that instant's batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

import numpy as np

from ..allocation.base import Allocator
from ..cluster.job import CommComponent, Job, JobKind
from ..cluster.state import AVAIL_DOWN, AVAIL_DRAINING, AVAIL_UP, ClusterState
from ..cost.model import CostModel
from ..faults.events import FAULT_DOWN, FAULT_UP, FaultEvent
from ..patterns.base import CommunicationPattern
from ..patterns.registry import get_pattern
from ..scheduler.engine import EngineConfig, SchedulerEngine
from ..scheduler.metrics import JobRecord
from ..topology.tree import TreeTopology

__all__ = ["SlurmCluster", "QueueEntry", "SinfoRow", "JobState"]


@dataclass(frozen=True)
class QueueEntry:
    """One ``squeue`` line."""

    job_id: int
    state: str  # "RUNNING" or "PENDING"
    nodes: int
    submit_time: float
    start_time: Optional[float]
    expected_end: Optional[float]


@dataclass(frozen=True)
class SinfoRow:
    """One ``sinfo`` line: occupancy and availability of a leaf switch."""

    switch: str
    nodes: int
    free: int
    busy: int
    comm_busy: int
    io_busy: int = 0
    down: int = 0
    draining: int = 0


class JobState:
    """squeue-style job state labels."""
    RUNNING = "RUNNING"
    PENDING = "PENDING"
    COMPLETED = "COMPLETED"
    CANCELLED = "CANCELLED"
    FAILED = "FAILED"


class SlurmCluster:
    """An online mini-SLURM over the paper's allocation algorithms.

    A command facade over one open engine run, under the module's
    instant contract: ``sbatch`` joins the open instant, ``advance``
    runs the batches before the new time, and every other command or
    query first closes the instant.

    Example::

        cluster = SlurmCluster(theta_like(), allocator="balanced")
        jid = cluster.sbatch(nodes=64, runtime=3600.0, kind="comm",
                             pattern="rhvd")
        cluster.advance(600.0)
        print(cluster.squeue())
    """

    def __init__(
        self,
        topology: TreeTopology,
        allocator: Union[str, Allocator] = "default",
        *,
        policy: str = "backfill",
        cost_model: Optional[CostModel] = None,
        interrupt_policy: str = "requeue",
        checkpoint_interval: float = 3600.0,
    ) -> None:
        self.topology = topology
        config = EngineConfig(policy=policy, cost_model=cost_model or CostModel(),
                              interrupt_policy=interrupt_policy,
                              checkpoint_interval=checkpoint_interval)
        self.engine = SchedulerEngine(topology, allocator, config)
        self.engine.open_run(record_sink=self._finished)
        self._now = 0.0
        self._next_id = 1
        self._history: List[JobRecord] = []
        self._done: Dict[int, str] = {}

    def _finished(self, record: JobRecord) -> None:
        self._history.append(record)
        done = JobState.FAILED if record.failed else JobState.COMPLETED
        self._done[record.job.job_id] = done

    def _close(self):
        """Run the open instant's batch; returns the engine's run state."""
        self.engine.advance_to(self._now)
        return self.engine.run_state

    # ------------------------------------------------------------------
    # commands
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def state(self) -> ClusterState:
        """The cluster state at :attr:`now` (closes the open instant)."""
        return self._close().state

    def sbatch(
        self,
        *,
        nodes: int,
        runtime: float,
        kind: str = "compute",
        pattern: Union[str, CommunicationPattern, None] = None,
        comm_fraction: float = 0.7,
    ) -> int:
        """Submit a job at the current virtual time; returns its job id.

        ``kind`` is ``"compute"``, ``"comm"``, or ``"io"``;
        communication-intensive jobs need a ``pattern`` (registry name
        or instance) and use ``comm_fraction`` of their runtime for it.
        The job joins the open instant's batch.
        """
        try:
            job_kind = JobKind(kind)
        except ValueError:
            raise ValueError(
                f"kind must be 'compute', 'comm', or 'io', got {kind!r}"
            ) from None
        comm = ()
        if job_kind is JobKind.COMM:
            if pattern is None:
                raise ValueError("communication-intensive jobs need a pattern")
            if isinstance(pattern, str):
                pattern = get_pattern(pattern)
            comm = (CommComponent(pattern, comm_fraction),)
        job = Job(self._next_id, self._now, nodes, runtime, job_kind, comm)
        self.engine.submit(job)  # rejects jobs larger than the cluster
        self._next_id += 1
        return job.job_id

    def scancel(self, job_id: int) -> str:
        """Cancel a pending or running job, reschedule; returns its previous state.

        A job id that was never submitted raises ``KeyError``; one that
        already reached a terminal state (COMPLETED / CANCELLED /
        FAILED) raises ``ValueError`` naming that state, matching real
        ``scancel``'s distinct "invalid job id" vs "job already done"
        diagnostics.
        """
        self._close()
        finished = self._done.get(job_id)
        if finished is not None:
            raise ValueError(f"job {job_id} is already {finished}")
        if job_id not in range(1, self._next_id):
            raise KeyError(f"unknown job {job_id}")
        was_running = self.engine.cancel(job_id)
        self._done[job_id] = JobState.CANCELLED
        return JobState.RUNNING if was_running else JobState.PENDING

    def squeue(self) -> List[QueueEntry]:
        """Running jobs (by expected end) then pending jobs (FIFO)."""
        rs = self._close()
        running = sorted(rs.running.values(), key=lambda r: r.finish_time)
        return [
            QueueEntry(r.job.job_id, JobState.RUNNING, r.job.nodes,
                       r.job.submit_time, r.start_time, r.finish_time)
            for r in running
        ] + [
            QueueEntry(j.job_id, JobState.PENDING, j.nodes, j.submit_time, None, None)
            for j in rs.queue
        ]

    def sinfo(self) -> List[SinfoRow]:
        """Per-leaf-switch occupancy and availability."""
        state, topo = self.state, self.topology
        down, draining = (
            np.bincount(topo.leaf_of_node[state.node_avail == avail],
                        minlength=topo.n_leaves)
            for avail in (AVAIL_DOWN, AVAIL_DRAINING)
        )
        return [
            SinfoRow(
                switch=topo.leaf(k).name,
                nodes=int(topo.leaf_sizes[k]),
                free=int(state.leaf_free[k]),
                busy=int(state.leaf_busy[k]),
                comm_busy=int(state.leaf_comm[k]),
                io_busy=int(state.leaf_io[k]),
                down=int(down[k]),
                draining=int(draining[k]),
            )
            for k in range(topo.n_leaves)
        ]

    def job_state(self, job_id: int) -> str:
        """PENDING / RUNNING / COMPLETED / CANCELLED / FAILED."""
        rs = self._close()
        if job_id in self._done:
            return self._done[job_id]
        if job_id in rs.running:
            return JobState.RUNNING
        if job_id in range(1, self._next_id):
            return JobState.PENDING
        raise KeyError(f"unknown job {job_id}")

    @property
    def history(self) -> List[JobRecord]:
        """Records of completed and failed jobs, completion order."""
        self._close()
        return list(self._history)

    # ------------------------------------------------------------------
    # node availability (scontrol update state=DOWN / DRAIN / RESUME)
    # ------------------------------------------------------------------

    def _resolve_nodes(self, nodes) -> np.ndarray:
        """Node ids from an int, node name, leaf-switch name, or sequence."""
        if isinstance(nodes, (int, np.integer)):
            return np.asarray([int(nodes)], dtype=np.int64)
        if isinstance(nodes, str):
            try:
                return np.asarray([self.topology.node_id(nodes)], dtype=np.int64)
            except KeyError:
                pass
            info = self.topology.switch(nodes)  # raises KeyError if unknown
            if not info.is_leaf:
                raise ValueError(
                    f"switch {nodes!r} is not a leaf; name a leaf switch or nodes"
                )
            return self.topology.leaf_nodes(info.leaf_lo)
        out: List[int] = []
        for n in nodes:
            out.extend(int(x) for x in self._resolve_nodes(n))
        return np.asarray(sorted(set(out)), dtype=np.int64)

    def _transition(self, action: str, nodes, settled: int) -> np.ndarray:
        """Apply a NODE_DOWN/UP event now; returns the nodes not already ``settled``."""
        arr = self._resolve_nodes(nodes)
        if arr.size == 0:
            return arr
        before = self._close().state.node_avail.copy()
        self.engine.inject(FaultEvent(self._now, action, tuple(arr.tolist())))
        self._close()
        return arr[before[arr] != settled]

    def scontrol_down(self, nodes) -> np.ndarray:
        """Fail nodes now (``scontrol update state=DOWN reason=...``).

        ``nodes`` may be a node id, a node name, a leaf-switch name
        (failing the whole switch), or a sequence of those. Running jobs
        touching the nodes are interrupted per ``interrupt_policy``
        (requeued at the current time, checkpoint-resumed, or FAILED).
        Returns the node ids newly marked DOWN.
        """
        return self._transition(FAULT_DOWN, nodes, AVAIL_DOWN)

    def scontrol_drain(self, nodes) -> np.ndarray:
        """Drain nodes: running jobs finish, nothing new lands on them."""
        arr = self._resolve_nodes(nodes)
        return self._close().state.mark_drain(arr)

    def scontrol_resume(self, nodes) -> np.ndarray:
        """Return DOWN/DRAINING nodes to service and reschedule."""
        return self._transition(FAULT_UP, nodes, AVAIL_UP)

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------

    def advance(self, seconds: float) -> None:
        """Advance virtual time, processing completions along the way.

        Batches strictly before ``now + seconds`` run; the instant at
        ``now + seconds`` stays open for the next ``sbatch``.
        """
        if seconds < 0:
            raise ValueError(f"cannot advance by {seconds} seconds")
        self._close()
        self.engine.advance_to(self._now + seconds, inclusive=False)
        self._now += seconds

    def drain(self, max_seconds: float = float("inf")) -> None:
        """Advance until no event is left (or ``max_seconds`` have passed).

        Uncapped, the clock stops at the last event processed; capped,
        it moves by exactly ``max_seconds``. Raises ``RuntimeError``
        when pending jobs are left with nothing running to free nodes.
        """
        self.engine.advance_to(self._now + max_seconds)  # closes the instant too
        rs = self.engine.run_state
        self._now = rs.clock
        if rs.queue and not rs.running:
            raise RuntimeError(
                f"{len(rs.queue)} pending jobs can never start "
                "(no running job will free nodes)"
            )
