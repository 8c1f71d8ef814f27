"""Test-only references for the experiment harnesses.

Every harness mode (serial, pooled, retrying, journaled) dispatches
through :func:`repro.runs.run_tasks`, so none of them can serve as the
reference for the others. These build the same outputs without the
executor: one direct :class:`~repro.scheduler.engine.SchedulerEngine`
run per allocator, and a job-major loop of
:func:`~repro.experiments.runner.evaluate_single_job` calls against the
warmed snapshot.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.experiments.runner import (
    ExperimentConfig,
    _individual_setup,
    evaluate_single_job,
    prepare_jobs,
)
from repro.experiments.sweeps import expand_grid, point_config, point_rows
from repro.scheduler.engine import SchedulerEngine

#: every dispatch mode a harness call can take: (workers, resilient)
DISPATCH_MODES = [
    (workers, resilient)
    for workers in (None, 1, 2, 3)
    for resilient in (False, True)
]


def mode_kwargs(workers: Optional[int], resilient: bool, journal) -> Dict:
    """Harness keyword arguments for one :data:`DISPATCH_MODES` entry."""
    kwargs: Dict = {"workers": workers}
    if resilient:
        kwargs.update(max_retries=1, journal=journal)
    return kwargs


def record_tuples(result) -> List[tuple]:
    """Every record of a result as plain, exactly comparable values."""
    return [
        (
            r.job.job_id,
            r.start_time,
            r.finish_time,
            r.nodes.tolist(),
            sorted(r.cost_jobaware.items()),
            sorted(r.cost_default.items()),
        )
        for r in result.records
    ]


def reference_continuous(cfg: ExperimentConfig, jobs=None) -> Dict:
    """One direct engine run per allocator, in ``cfg.allocators`` order."""
    jobs = prepare_jobs(cfg) if jobs is None else list(jobs)
    return {
        name: SchedulerEngine(cfg.topology(), name, cfg.engine_config()).run(
            jobs, faults=cfg.faults
        )
        for name in cfg.allocators
    }


def reference_individual(
    cfg: ExperimentConfig, *, n_samples: int, target_occupancy: float = 0.5
) -> tuple:
    """(sampled job ids, job-major outcomes) of a §5.4 individual run."""
    state, sampled = _individual_setup(
        cfg,
        n_samples=n_samples,
        target_occupancy=target_occupancy,
        jobs=prepare_jobs(cfg),
    )
    outcomes = [
        evaluate_single_job(state, job, name, cfg.cost_model)
        for job in sampled
        for name in cfg.allocators
    ]
    return [j.job_id for j in sampled], outcomes


def reference_sweep(
    grid: Mapping[str, Sequence],
    *,
    allocators: Sequence[str],
    defaults: Optional[Mapping[str, object]] = None,
) -> List[Dict[str, object]]:
    """Sweep rows in cross-product order from direct engine runs."""
    rows: List[Dict[str, object]] = []
    for point in expand_grid(grid, defaults):
        rows.extend(
            point_rows(point, reference_continuous(point_config(point, allocators)))
        )
    return rows
