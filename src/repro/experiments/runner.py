"""Continuous and individual experiment runs (paper §5.4).

*Continuous runs* replay a full 1000-job log through the event-driven
scheduler once per allocator. Every allocator sees identical jobs
(same trace seed, same comm/compute labels) but evolves its own cluster
state, exactly as in the paper.

*Individual runs* give every allocator the *same* starting state: the
cluster is partially occupied by warm-up jobs placed with the default
algorithm, then each sampled job is priced independently against that
frozen snapshot under every allocator. This isolates the allocation
quality from queueing dynamics — the paper's device for a fair
job-by-job comparison (§5.4, Table 4, Figure 7 right panel).

Both harnesses split into independent (allocator, …) cells and hand
them to :func:`repro.runs.run_tasks`, the one dispatch path for every
mode. ``workers > 1`` fans the cells out over a process pool; a batch
whose pool would hold one worker runs in-process instead, unless a
retry or timeout policy needs the process boundary to survive a killed
or hung cell. Task specs are plain picklable values and results are
reassembled by key in ``cfg.allocators`` order, so every mode is
bit-identical to a direct :class:`~repro.scheduler.engine.SchedulerEngine`
run per allocator.

Crash resilience (``docs/resilience.md``): ``max_retries``,
``on_task_error``, ``task_timeout``, and ``journal`` configure that
same call — worker crashes rebuild the pool and resubmit only
unfinished cells, failed cells retry with exponential backoff, and
every task spec/attempt/result digest is journaled so
``repro-sched verify-run`` can replay and diff the run later. Config
errors (an unknown allocator, policy or log, a bad interrupt knob) are
raised once in the caller before any cell exists: they are neither
retried nor journaled.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..allocation.base import Allocator
from ..allocation.default_slurm import DefaultSlurmAllocator
from ..allocation.registry import PAPER_ALLOCATORS, get_allocator
from ..cluster.job import Job
from ..cluster.state import ClusterState
from ..cost.contention import ContentionModel
from ..cost.model import CostModel
from ..faults.events import FaultEvent
from ..obs.progress import ProgressReporter
from ..runs import (
    PartialResults,
    RetryPolicy,
    RunJournal,
    TaskSpec,
    digest_obj,
    result_digest,
    run_tasks,
)
from ..runs.retry import ON_ERROR_RETRY
from ..scheduler.engine import EngineConfig, SchedulerEngine
from ..scheduler.metrics import SimulationResult
from ..scheduler.queue_policy import get_policy
from ..scheduler.serialize import fault_from_dict, fault_to_dict, job_to_dict
from ..topology.shared import shared_topology
from ..topology.tree import TreeTopology
from ..workloads.classify import CommMix, assign_kinds, single_pattern_mix
from ..workloads.logs import LOG_SPECS, generate_log

__all__ = [
    "ExperimentConfig",
    "config_to_dict",
    "config_from_dict",
    "continuous_runs",
    "IndividualOutcome",
    "IndividualRunResult",
    "individual_runs",
    "evaluate_single_job",
    "outcomes_digest",
    "warm_state",
    "prepare_jobs",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's workload and scheduler settings.

    Defaults follow the paper's headline configuration: 1000 jobs, 90%
    communication-intensive, RHVD at a 0.7 communication fraction,
    the four paper allocators, EASY backfill, no faults.

    ``faults`` injects the same failure schedule into every allocator's
    continuous run (individual runs price frozen snapshots and ignore
    it); ``interrupt_policy`` / ``checkpoint_interval`` configure what
    happens to interrupted jobs (see :mod:`repro.faults.policy`).
    """

    log: str = "theta"
    n_jobs: int = 1000
    percent_comm: float = 90.0
    mix: CommMix = field(default_factory=lambda: single_pattern_mix("rhvd"))
    allocators: Tuple[str, ...] = PAPER_ALLOCATORS
    seed: int = 0
    policy: str = "backfill"
    cost_model: CostModel = field(default_factory=CostModel)
    faults: Tuple[FaultEvent, ...] = ()
    interrupt_policy: str = "requeue"
    checkpoint_interval: float = 3600.0

    def topology(self) -> TreeTopology:
        """The configured log's machine topology.

        In a pool worker whose initializer attached a shared-memory
        topology under this log's name
        (:func:`repro.topology.install_topology_handles`), that
        zero-copy instance is returned; otherwise the topology is built
        from :data:`~repro.workloads.logs.LOG_SPECS`, once per process
        and log, and reused by every later call. Topologies are
        immutable and the two sources are equal, so results never
        depend on which path served the call.
        """
        shared = shared_topology(self.log)
        if shared is not None:
            return shared
        return _built_topology(self.log)

    def engine_config(self) -> EngineConfig:
        """Translate the experiment knobs into an :class:`EngineConfig`."""
        return EngineConfig(
            policy=self.policy,
            cost_model=self.cost_model,
            interrupt_policy=self.interrupt_policy,
            checkpoint_interval=self.checkpoint_interval,
        )

    def with_(self, **kwargs) -> "ExperimentConfig":
        """Functional update (thin wrapper over dataclasses.replace)."""
        return replace(self, **kwargs)


@functools.lru_cache(maxsize=None)
def _built_topology(log: str) -> TreeTopology:
    """One log's topology, built on first use (bounded by ``LOG_SPECS``)."""
    return LOG_SPECS[log].topology()


def config_to_dict(cfg: ExperimentConfig) -> Dict[str, Any]:
    """Plain-JSON representation of a config (for run journals)."""
    return {
        "log": cfg.log,
        "n_jobs": cfg.n_jobs,
        "percent_comm": cfg.percent_comm,
        "mix": [[name, fraction] for name, fraction in cfg.mix],
        "allocators": list(cfg.allocators),
        "seed": cfg.seed,
        "policy": cfg.policy,
        "cost_model": {
            "weight_by_msize": cfg.cost_model.weight_by_msize,
            "contention": {
                "uplink_discount": cfg.cost_model.contention.uplink_discount,
                "per_level": cfg.cost_model.contention.per_level,
            },
        },
        "faults": [fault_to_dict(f) for f in cfg.faults],
        "interrupt_policy": cfg.interrupt_policy,
        "checkpoint_interval": cfg.checkpoint_interval,
    }


def config_from_dict(data: Dict[str, Any]) -> ExperimentConfig:
    """Inverse of :func:`config_to_dict` (``verify-run`` replays)."""
    cm = data["cost_model"]
    return ExperimentConfig(
        log=str(data["log"]),
        n_jobs=int(data["n_jobs"]),
        percent_comm=float(data["percent_comm"]),
        mix=tuple((str(name), float(fraction)) for name, fraction in data["mix"]),
        allocators=tuple(str(a) for a in data["allocators"]),
        seed=int(data["seed"]),
        policy=str(data["policy"]),
        cost_model=CostModel(
            weight_by_msize=bool(cm["weight_by_msize"]),
            contention=ContentionModel(
                uplink_discount=float(cm["contention"]["uplink_discount"]),
                per_level=bool(cm["contention"]["per_level"]),
            ),
        ),
        faults=tuple(fault_from_dict(f) for f in data["faults"]),
        interrupt_policy=str(data["interrupt_policy"]),
        checkpoint_interval=float(data["checkpoint_interval"]),
    )


def _journal_context(
    cfg: ExperimentConfig,
    explicit_jobs: Optional[Sequence[Job]],
    **extra: Any,
) -> Dict[str, Any]:
    """Everything a journal needs to replay its tasks from scratch.

    Explicitly supplied job lists are embedded; ``jobs: null`` means
    :func:`prepare_jobs` regenerates them from the config.
    """
    context: Dict[str, Any] = {
        "config": config_to_dict(cfg),
        "jobs": (
            [job_to_dict(j) for j in explicit_jobs]
            if explicit_jobs is not None
            else None
        ),
    }
    context.update(extra)
    return context


def _check_config(cfg: ExperimentConfig) -> None:
    """Raise ``cfg``'s config errors in the caller, before any cell runs.

    Every cell of a harness would fail identically on a bad log name,
    queue policy, interrupt knob or allocator spec; checked here, such
    an error surfaces once as its own ``KeyError``/``ValueError``
    instead of as a retried, journaled :class:`~repro.runs.TaskFailedError`.
    """
    if cfg.log not in LOG_SPECS:
        raise KeyError(f"unknown log {cfg.log!r}; known: {sorted(LOG_SPECS)}")
    get_policy(cfg.engine_config().policy)
    for name in cfg.allocators:
        get_allocator(name)


def prepare_jobs(cfg: ExperimentConfig) -> List[Job]:
    """Generate the trace and apply comm/compute labels, reproducibly.

    The trace seed and the labelling seed both derive from ``cfg.seed``
    so two configs differing only in allocator lists see identical jobs.
    """
    spec = LOG_SPECS[cfg.log]
    trace = generate_log(spec, cfg.n_jobs, seed=cfg.seed + 1)
    return assign_kinds(
        trace, percent_comm=cfg.percent_comm, mix=cfg.mix, seed=cfg.seed + 2
    )


def _continuous_worker(
    cfg: ExperimentConfig, name: str, jobs: List[Job]
) -> SimulationResult:
    """One allocator's continuous run (module-level so it pickles)."""
    engine = SchedulerEngine(cfg.topology(), name, cfg.engine_config())
    return engine.run(jobs, faults=cfg.faults)


def continuous_runs(
    cfg: ExperimentConfig,
    jobs: Optional[Sequence[Job]] = None,
    *,
    workers: Optional[int] = None,
    max_retries: int = 0,
    on_task_error: str = ON_ERROR_RETRY,
    journal: Optional[Union[str, "os.PathLike"]] = None,
    task_timeout: Optional[float] = None,
    progress: Optional[ProgressReporter] = None,
) -> Dict[str, SimulationResult]:
    """Replay the log once per allocator; returns results keyed by name.

    Each allocator is one :func:`~repro.runs.run_tasks` cell that evolves
    its own engine from the same job list. ``workers > 1`` runs the cells
    in parallel processes; results are bit-identical in every mode and
    returned in ``cfg.allocators`` order.

    ``max_retries`` / ``on_task_error`` / ``task_timeout`` / ``journal``
    set the executor's policy (crashed workers rebuild the pool, failed
    cells retry with backoff, attempts and digests are journaled). A
    cell that exhausts its attempts raises
    :class:`~repro.runs.TaskFailedError`; with ``on_task_error="skip"``
    the return value is instead a :class:`~repro.runs.PartialResults`
    whose ``missing`` names those allocators. Config errors raise
    before any cell runs and are never retried or journaled.

    ``progress`` (or an ambient reporter installed via
    :func:`repro.obs.progressing`) receives one update per finished
    allocator cell; purely diagnostic.
    """
    _check_config(cfg)
    explicit_jobs = None if jobs is None else list(jobs)
    job_list = prepare_jobs(cfg) if explicit_jobs is None else explicit_jobs
    tasks = [
        TaskSpec(
            key=name,
            fn=_continuous_worker,
            args=(cfg, name, job_list),
            spec={"allocator": name},
        )
        for name in cfg.allocators
    ]
    with (
        RunJournal(
            journal,
            run_type="continuous_runs",
            context=_journal_context(cfg, explicit_jobs),
        )
        if journal is not None
        else contextlib.nullcontext()
    ) as jrn:
        batch = run_tasks(
            tasks,
            workers=workers,
            policy=RetryPolicy(max_retries=max_retries, timeout=task_timeout),
            on_task_error=on_task_error,
            journal=jrn,
            digest=result_digest,
            progress=progress,
        )
    ordered = {
        name: batch.results[name] for name in cfg.allocators if name in batch.results
    }
    if batch.complete:
        return ordered
    return PartialResults(ordered, batch.missing, batch.quarantined)


# ----------------------------------------------------------------------
# individual runs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class IndividualOutcome:
    """One (job, allocator) evaluation against the shared snapshot."""

    job_id: int
    allocator: str
    execution_time: float
    cost_jobaware: float
    cost_default: float


@dataclass
class IndividualRunResult:
    """All individual-run outcomes plus convenience aggregation.

    ``missing`` is only populated by resilient runs under
    ``on_task_error="skip"``: it maps each allocator whose evaluations
    exhausted their attempts to the error that ended them; its outcomes
    are absent from ``outcomes``. ``quarantined`` is its
    ``on_task_error="quarantine"`` counterpart.
    """

    outcomes: List[IndividualOutcome]
    sampled_job_ids: List[int]
    missing: Dict[str, str] = field(default_factory=dict)
    quarantined: Dict[str, str] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """True when no sampled job is missing a result."""
        return not self.missing and not self.quarantined

    def execution_times(self, allocator: str) -> np.ndarray:
        """Per-sampled-job execution times under ``allocator``, in job order."""
        by_job = {
            o.job_id: o.execution_time
            for o in self.outcomes
            if o.allocator == allocator
        }
        return np.array([by_job[j] for j in self.sampled_job_ids], dtype=np.float64)

    def mean_improvement_pct(self, allocator: str, baseline: str = "default") -> float:
        """Paper Table 4: mean per-job % execution-time improvement."""
        base = self.execution_times(baseline)
        cand = self.execution_times(allocator)
        with np.errstate(divide="ignore", invalid="ignore"):
            pct = np.where(base > 0, 100.0 * (base - cand) / base, 0.0)
        return float(pct.mean())


def evaluate_single_job(
    state: ClusterState,
    job: Job,
    allocator: Union[str, Allocator],
    cost_model: Optional[CostModel] = None,
) -> IndividualOutcome:
    """Price one job against a frozen cluster state under one allocator.

    Prices the allocation on a cheap
    :meth:`~repro.cluster.state.ClusterState.comm_overlay` view with
    Eq. 6 (and the counterfactual default allocation from the same
    state), and returns the Eq.-7-adjusted execution time. ``state`` is
    not mutated; because it stays frozen, its version-tagged cost cache
    makes the shared default counterfactual of a job a one-time cost
    across all allocators.
    """
    allocator = get_allocator(allocator) if isinstance(allocator, str) else allocator
    cost_model = cost_model or CostModel()
    default_alloc = DefaultSlurmAllocator()

    nodes = allocator.allocate(state, job)
    view = state.comm_overlay(nodes, job.kind)  # validates the node set

    if not job.is_comm_intensive:
        return IndividualOutcome(
            job_id=job.job_id,
            allocator=allocator.name,
            execution_time=job.runtime,
            cost_jobaware=0.0,
            cost_default=0.0,
        )

    aware = {
        comp.pattern: cost_model.allocation_cost(view, nodes, comp.pattern)
        for comp in job.comm
    }
    if allocator.name == default_alloc.name:
        default = dict(aware)
    else:
        default_nodes = default_alloc.allocate(state, job)
        default_view = state.comm_overlay(default_nodes, job.kind)
        default = {
            comp.pattern: cost_model.allocation_cost(
                default_view, default_nodes, comp.pattern
            )
            for comp in job.comm
        }
    runtime = cost_model.adjusted_runtime(job, aware, default)
    return IndividualOutcome(
        job_id=job.job_id,
        allocator=allocator.name,
        execution_time=runtime,
        cost_jobaware=float(sum(aware.values())),
        cost_default=float(sum(default.values())),
    )


def warm_state(
    topology: TreeTopology,
    jobs: Sequence[Job],
    *,
    target_occupancy: float = 0.5,
    allocator: Optional[Allocator] = None,
) -> Tuple[ClusterState, List[int]]:
    """Partially occupy a fresh cluster with leading jobs (§5.4).

    Walks the job list in submission order, placing each job with the
    default allocator until the target occupancy is reached. Returns the
    state and the ids of the placed (warm-up) jobs.
    """
    if not 0.0 <= target_occupancy < 1.0:
        raise ValueError(f"target_occupancy must be in [0, 1), got {target_occupancy}")
    allocator = allocator or DefaultSlurmAllocator()
    state = ClusterState(topology)
    placed: List[int] = []
    target_busy = int(topology.n_nodes * target_occupancy)
    for job in jobs:
        if state.total_busy >= target_busy:
            break
        if job.nodes > state.total_free:
            continue
        nodes = allocator.allocate(state, job)
        state.allocate(job.job_id, nodes, job.kind)
        placed.append(job.job_id)
    return state, placed


def _individual_worker(
    state: ClusterState,
    sampled: List[Job],
    name: str,
    cost_model: Optional[CostModel],
) -> List[IndividualOutcome]:
    """All sampled jobs under one allocator (module-level so it pickles)."""
    return [evaluate_single_job(state, job, name, cost_model) for job in sampled]


def outcomes_digest(outcomes: Sequence[IndividualOutcome]) -> str:
    """Canonical digest of one allocator's individual-run outcomes."""
    return digest_obj(
        [
            [o.job_id, o.allocator, o.execution_time, o.cost_jobaware, o.cost_default]
            for o in outcomes
        ]
    )


def _individual_setup(
    cfg: ExperimentConfig,
    *,
    n_samples: int,
    target_occupancy: float,
    jobs: Sequence[Job],
) -> Tuple[ClusterState, List[Job]]:
    """Warm the cluster and draw the sampled jobs (shared with replay)."""
    topology = cfg.topology()
    state, warm_ids = warm_state(topology, jobs, target_occupancy=target_occupancy)
    warm = set(warm_ids)
    candidates = [
        j for j in jobs if j.job_id not in warm and 1 < j.nodes <= state.total_free
    ]
    if not candidates:
        raise ValueError("no candidate jobs fit the warmed cluster; lower occupancy")
    rng = np.random.default_rng(cfg.seed + 3)
    take = min(n_samples, len(candidates))
    idx = rng.choice(len(candidates), size=take, replace=False)
    sampled = [candidates[i] for i in sorted(idx)]
    return state, sampled


def individual_runs(
    cfg: ExperimentConfig,
    *,
    n_samples: int = 200,
    target_occupancy: float = 0.5,
    jobs: Optional[Sequence[Job]] = None,
    workers: Optional[int] = None,
    max_retries: int = 0,
    on_task_error: str = ON_ERROR_RETRY,
    journal: Optional[Union[str, "os.PathLike"]] = None,
    task_timeout: Optional[float] = None,
    progress: Optional[ProgressReporter] = None,
) -> IndividualRunResult:
    """§5.4 individual runs: one shared snapshot, one job at a time.

    ``n_samples`` jobs are drawn (seeded) from the non-warm-up portion
    of the log; every allocator in ``cfg.allocators`` prices each of
    them against the same warm snapshot. Each allocator's column is one
    :func:`~repro.runs.run_tasks` cell, and ``workers > 1`` fans the
    cells out over processes. Every evaluation is a pure function of
    the frozen snapshot, and outcomes are reassembled in job-major,
    allocator-minor order, so results are bit-identical in every mode.

    The resilience and ``progress`` arguments behave as in
    :func:`continuous_runs` (one progress update per allocator cell);
    under ``on_task_error="skip"`` the result's ``missing`` names
    allocators whose column could not be computed.
    """
    _check_config(cfg)
    explicit_jobs = None if jobs is None else list(jobs)
    job_list = prepare_jobs(cfg) if explicit_jobs is None else explicit_jobs
    state, sampled = _individual_setup(
        cfg, n_samples=n_samples, target_occupancy=target_occupancy, jobs=job_list
    )
    tasks = [
        TaskSpec(
            key=name,
            fn=_individual_worker,
            args=(state, sampled, name, cfg.cost_model),
            spec={"allocator": name},
        )
        for name in cfg.allocators
    ]
    with (
        RunJournal(
            journal,
            run_type="individual_runs",
            context=_journal_context(
                cfg,
                explicit_jobs,
                n_samples=n_samples,
                target_occupancy=target_occupancy,
            ),
        )
        if journal is not None
        else contextlib.nullcontext()
    ) as jrn:
        batch = run_tasks(
            tasks,
            workers=workers,
            policy=RetryPolicy(max_retries=max_retries, timeout=task_timeout),
            on_task_error=on_task_error,
            journal=jrn,
            digest=outcomes_digest,
            progress=progress,
        )
    columns = [batch.results[name] for name in cfg.allocators if name in batch.results]
    return IndividualRunResult(
        outcomes=[col[i] for i in range(len(sampled)) for col in columns],
        sampled_job_ids=[j.job_id for j in sampled],
        missing=dict(batch.missing),
        quarantined=dict(batch.quarantined),
    )
