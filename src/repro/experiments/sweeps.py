"""Generic parameter sweeps producing tidy rows.

The paper's evaluation is a handful of fixed grids; research use needs
arbitrary ones ("how do the gains move with comm_fraction x load x
seed?"). :func:`sweep` runs the continuous-run harness over the cross
product of parameter lists and emits one flat dict per (configuration,
allocator) — ready for CSV export (:func:`rows_to_csv`) or any
dataframe library.
"""

from __future__ import annotations

import contextlib
import csv
import io
from itertools import product
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

from ..runs import (
    PartialRows,
    RetryPolicy,
    RunJournal,
    TaskSpec,
    digest_obj,
    result_digest,
    run_tasks,
)
from ..runs.retry import ON_ERROR_RETRY
from ..scheduler.metrics import SimulationResult, percent_improvement
from ..topology.shared import install_topology_handles, publish_topology
from ..workloads.classify import single_pattern_mix
from ..workloads.logs import LOG_SPECS
from .runner import ExperimentConfig, _check_config, continuous_runs

__all__ = [
    "sweep",
    "rows_to_csv",
    "point_config",
    "point_rows",
    "expand_grid",
    "SWEEPABLE",
]

#: parameters `sweep` understands, with how they map onto the config
SWEEPABLE = ("log", "n_jobs", "percent_comm", "pattern", "comm_fraction", "seed", "policy")


def point_config(
    point: Mapping[str, object], allocators: Sequence[str]
) -> ExperimentConfig:
    """Build the config for one fully resolved sweep point."""
    return ExperimentConfig(
        log=str(point["log"]),
        n_jobs=int(point["n_jobs"]),
        percent_comm=float(point["percent_comm"]),
        mix=single_pattern_mix(str(point["pattern"]), float(point["comm_fraction"])),
        allocators=tuple(allocators),
        seed=int(point["seed"]),
        policy=str(point["policy"]),
    )


def _sweep_point_worker(cfg: ExperimentConfig) -> Dict[str, SimulationResult]:
    """One grid point's continuous runs (module-level so it pickles)."""
    return continuous_runs(cfg)


def expand_grid(
    grid: Mapping[str, Sequence],
    defaults: Optional[Mapping[str, object]] = None,
) -> List[Dict[str, object]]:
    """Expand a sweep grid into fully resolved points, cross-product order.

    Validates parameter names against :data:`SWEEPABLE` and fills
    unswept parameters from ``defaults`` (then the built-in baseline).
    This single expansion is shared by the serial :func:`sweep` path
    and the distributed fabric (:mod:`repro.fabric`), so both walk the
    identical cell list in the identical order.
    """
    unknown = set(grid) - set(SWEEPABLE)
    if unknown:
        raise ValueError(f"unknown sweep parameters: {sorted(unknown)}")
    if not grid:
        raise ValueError("grid must name at least one parameter")
    base: Dict[str, object] = {
        "log": "theta",
        "n_jobs": 200,
        "percent_comm": 90.0,
        "pattern": "rhvd",
        "comm_fraction": 0.7,
        "seed": 0,
        "policy": "backfill",
    }
    if defaults:
        bad = set(defaults) - set(SWEEPABLE)
        if bad:
            raise ValueError(f"unknown default parameters: {sorted(bad)}")
        base.update(defaults)
    points: List[Dict[str, object]] = []
    for values in product(*(grid[n] for n in grid)):
        point = dict(base)
        point.update(dict(zip(list(grid), values)))
        points.append(point)
    return points


def point_rows(
    point: Mapping[str, object],
    results: Dict[str, SimulationResult],
) -> List[Dict[str, object]]:
    """Flatten one grid point's per-allocator results into sweep rows.

    One row per allocator, in ``results`` order: the sweep point, the
    paper's aggregate metrics, and the percent improvement over the
    ``"default"`` allocator when it is part of the run. Every value is
    a JSON-safe scalar, which is what lets the fabric compute rows in a
    worker process, ship them as JSON, and still merge a report
    bit-identical to the serial path (JSON round-trips floats exactly).
    """
    base_exec = (
        results["default"].total_execution_hours if "default" in results else None
    )
    rows: List[Dict[str, object]] = []
    for name, res in results.items():
        row: Dict[str, object] = {k: point[k] for k in SWEEPABLE}
        row["allocator"] = name
        row.update(res.summary())
        row["exec_improvement_pct"] = (
            percent_improvement(base_exec, res.total_execution_hours)
            if base_exec is not None
            else None
        )
        rows.append(row)
    return rows


def _point_digest(results: Dict[str, SimulationResult]) -> str:
    """Digest of one point's per-allocator results (journal / replay)."""
    return digest_obj({name: result_digest(res) for name, res in results.items()})


def _point_key(point: Mapping[str, object], names: Sequence[str]) -> str:
    """Stable human-readable journal key for one grid point."""
    return "|".join(f"{n}={point[n]}" for n in names)


def sweep(
    grid: Mapping[str, Sequence],
    *,
    allocators: Sequence[str] = ("default", "balanced"),
    defaults: Optional[Mapping[str, object]] = None,
    workers: Optional[int] = None,
    max_retries: int = 0,
    on_task_error: str = ON_ERROR_RETRY,
    journal: Optional[Union[str, "os.PathLike"]] = None,
    task_timeout: Optional[float] = None,
) -> List[Dict[str, object]]:
    """Run every combination in ``grid``; one row per (point, allocator).

    ``grid`` maps parameter names (a subset of :data:`SWEEPABLE`) to the
    values to sweep; unswept parameters come from ``defaults`` or the
    :class:`ExperimentConfig` defaults. Every row carries the sweep
    point, the paper's aggregate metrics, and the percent improvement
    over the ``"default"`` allocator when it is part of the run.

    Each grid point is one :func:`~repro.runs.run_tasks` cell (its
    allocators run serially inside the cell). ``workers > 1`` runs the
    points in parallel processes; each distinct log's topology —
    including its precomputed leaf-pair LCA matrix — is then published
    once into shared memory and attached zero-copy by every worker,
    instead of being rebuilt per process. Rows come back in
    cross-product order, bit-identical in every mode.

    The resilience arguments behave as in
    :func:`~repro.experiments.runner.continuous_runs`, per grid point;
    under ``on_task_error="skip"`` (or ``"quarantine"``) the return
    value is a :class:`~repro.runs.PartialRows` whose ``missing`` (or
    ``quarantined``) names the grid points whose rows are absent.
    """
    names = list(grid)
    points = expand_grid(grid, defaults)
    configs = [point_config(point, allocators) for point in points]
    for cfg in configs:
        _check_config(cfg)
    keys = [_point_key(point, names) for point in points]
    tasks = [
        TaskSpec(
            key=key,
            fn=_sweep_point_worker,
            args=(cfg,),
            spec={"point": point, "allocators": list(allocators)},
        )
        for key, point, cfg in zip(keys, points, configs)
    ]

    published = {}
    initializer = None
    initargs = ()
    if workers is not None and workers > 1 and len(configs) > 1:
        for log in dict.fromkeys(cfg.log for cfg in configs):
            published[log] = publish_topology(LOG_SPECS[log].topology())
        initializer = install_topology_handles
        initargs = ({log: pub.handle for log, pub in published.items()},)
    try:
        with (
            RunJournal(journal, run_type="sweep", context={})
            if journal is not None
            else contextlib.nullcontext()
        ) as jrn:
            batch = run_tasks(
                tasks,
                workers=workers,
                policy=RetryPolicy(max_retries=max_retries, timeout=task_timeout),
                on_task_error=on_task_error,
                journal=jrn,
                digest=_point_digest,
                initializer=initializer,
                initargs=initargs,
            )
    finally:
        # Unlinking while a terminated worker may still be exiting is
        # safe: repro.shm attachments are not registered with the
        # resource tracker, and a POSIX unlink only removes the name —
        # live mappings stay valid until their process unmaps them.
        for pub in published.values():
            pub.unlink()

    rows: List[Dict[str, object]] = []
    for key, point in zip(keys, points):
        if key in batch.results:
            rows.extend(point_rows(point, batch.results[key]))
    if batch.complete:
        return rows
    return PartialRows(rows, batch.missing, batch.quarantined)


def rows_to_csv(rows: Iterable[Dict[str, object]]) -> str:
    """Render sweep rows as CSV text (columns from the first row)."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to render")
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
