"""Resilient task execution over a process pool.

The experiment harnesses (`continuous_runs`, `individual_runs`,
`sweep`) decompose into independent, pure, picklable tasks — one per
(allocator, grid-point, …) cell. This module runs such a batch to
completion *despite* worker crashes, hung workers, and transient
errors:

* a task that raises is retried with exponential backoff
  (:class:`~repro.runs.retry.RetryPolicy`), up to ``max_retries``;
* a worker that dies (OOM kill, ``os._exit``, segfault) breaks the
  whole ``ProcessPoolExecutor`` — the pool is rebuilt and only the
  tasks without results are resubmitted;
* a worker that hangs past the per-task ``timeout`` is terminated, the
  pool rebuilt, and the batch continues;
* ``on_task_error="skip"`` degrades gracefully: cells that exhaust
  their attempts are reported as *missing* instead of sinking the whole
  batch;
* ``on_task_error="quarantine"`` degrades *loudly*: exhausted cells are
  recorded as quarantined (key → last error) on the result, journaled,
  counted as ``runs.quarantined_cells`` in :mod:`repro.obs`, and listed
  in a ``UserWarning`` when the batch ends.

Recovery activity is observable: ``runs.task_retries`` counts retried
attempts and ``runs.pool_rebuilds`` counts pool reconstructions, both
through the ambient :mod:`repro.obs` recorder.

Because every task is a pure function of its spec, results are
reassembled by key — the output is bit-identical to a serial run no
matter how many crashes and retries happened along the way. Attempts
and result digests are optionally recorded in a
:class:`~repro.runs.journal.RunJournal`.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs import runtime as obs_runtime
from ..obs.progress import ProgressReporter
from .journal import RunJournal
from .retry import (
    ON_ERROR_QUARANTINE,
    ON_ERROR_RAISE,
    ON_ERROR_SKIP,
    RetryPolicy,
    require_on_error,
)

__all__ = [
    "TaskSpec",
    "TaskBatchResult",
    "TaskFailedError",
    "run_tasks",
    "PartialResults",
    "PartialRows",
]


@dataclass(frozen=True)
class TaskSpec:
    """One independent unit of work.

    ``fn`` must be a module-level callable and ``args`` picklable —
    both cross a process boundary. ``spec`` is the JSON payload written
    to the journal's ``task`` entry; it should contain whatever
    ``verify-run`` needs to re-execute the task.
    """

    key: str
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    spec: Optional[Dict[str, Any]] = None


class TaskFailedError(RuntimeError):
    """A task exhausted its attempts (or failed fast under ``raise``)."""

    def __init__(self, key: str, attempts: int, error: str) -> None:
        super().__init__(
            f"task {key!r} failed after {attempts} attempt(s): {error}"
        )
        self.key = key
        self.attempts = attempts
        self.error = error


@dataclass
class TaskBatchResult:
    """Outcome of one batch: values by key, plus what never finished."""

    results: Dict[str, Any] = field(default_factory=dict)
    #: cells that exhausted their attempts under ``on_task_error="skip"``,
    #: mapped to the last error message
    missing: Dict[str, str] = field(default_factory=dict)
    #: attempts used per key (including the successful one)
    attempts: Dict[str, int] = field(default_factory=dict)
    #: cells that exhausted their attempts under
    #: ``on_task_error="quarantine"``, mapped to the last error message
    quarantined: Dict[str, str] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """True when every task produced a result."""
        return not self.missing and not self.quarantined


class PartialResults(dict):
    """A dict of completed cells that also names the missing ones.

    Returned by the resilient harness paths so callers keep plain
    ``dict`` ergonomics; ``missing`` maps the absent keys to the error
    that exhausted their attempts, and ``quarantined`` the keys dropped
    by the quarantine mode (both empty when the run is complete).
    """

    def __init__(
        self,
        values: Dict[str, Any],
        missing: Dict[str, str],
        quarantined: Optional[Dict[str, str]] = None,
    ) -> None:
        super().__init__(values)
        self.missing: Dict[str, str] = dict(missing)
        self.quarantined: Dict[str, str] = dict(quarantined or {})

    @property
    def complete(self) -> bool:
        """True when every task produced a result."""
        return not self.missing and not self.quarantined


class PartialRows(list):
    """A list of result rows that also names the missing cells."""

    def __init__(
        self,
        rows: Sequence[Any],
        missing: Dict[str, str],
        quarantined: Optional[Dict[str, str]] = None,
    ) -> None:
        super().__init__(rows)
        self.missing: Dict[str, str] = dict(missing)
        self.quarantined: Dict[str, str] = dict(quarantined or {})

    @property
    def complete(self) -> bool:
        """True when every task produced a result."""
        return not self.missing and not self.quarantined


# ----------------------------------------------------------------------


class _Batch:
    """Shared bookkeeping between the serial and pooled drivers."""

    def __init__(
        self,
        policy: RetryPolicy,
        mode: str,
        journal: Optional[RunJournal],
        digest: Optional[Callable[[Any], str]],
        total: int = 0,
        progress: Optional[ProgressReporter] = None,
    ) -> None:
        self.policy = policy
        self.mode = mode
        self.journal = journal
        self.digest = digest
        self.total = total
        self.progress = progress
        self.out = TaskBatchResult()

    def _notify(self, key: str) -> None:
        if self.progress is not None:
            done = (
                len(self.out.results)
                + len(self.out.missing)
                + len(self.out.quarantined)
            )
            self.progress.task_update(done, self.total, key)

    def start(self, task: TaskSpec, attempt: int) -> None:
        self.out.attempts[task.key] = attempt
        if self.journal is not None:
            self.journal.attempt_start(task.key, attempt)

    def succeed(self, task: TaskSpec, attempt: int, value: Any) -> None:
        self.out.results[task.key] = value
        if self.journal is not None:
            digest = self.digest(value) if self.digest is not None else ""
            self.journal.result(task.key, attempt, digest)
        self._notify(task.key)

    def fail(self, task: TaskSpec, attempt: int, error: str) -> bool:
        """Account one failed attempt; returns True when a retry is due.

        Raises :class:`TaskFailedError` when the task is out of attempts
        and the mode is neither ``skip`` nor ``quarantine``.
        """
        if self.journal is not None:
            self.journal.attempt_error(task.key, attempt, error)
        exhausted = self.mode == ON_ERROR_RAISE or attempt >= self.policy.max_attempts
        if not exhausted:
            obs_runtime.count("runs.task_retries")
            return True
        if self.mode == ON_ERROR_SKIP:
            self.out.missing[task.key] = error
            self._notify(task.key)
            return False
        if self.mode == ON_ERROR_QUARANTINE:
            self.out.quarantined[task.key] = error
            obs_runtime.count("runs.quarantined_cells")
            if self.journal is not None:
                self.journal.note("quarantined", key=task.key, error=error)
            self._notify(task.key)
            return False
        raise TaskFailedError(task.key, attempt, error)


def _run_serial(tasks: Sequence[TaskSpec], batch: _Batch) -> None:
    for task in tasks:
        attempt = 0
        while True:
            attempt += 1
            batch.start(task, attempt)
            try:
                value = task.fn(*task.args)
            except Exception as exc:  # noqa: BLE001 — retry boundary
                if batch.fail(task, attempt, f"{type(exc).__name__}: {exc}"):
                    time.sleep(batch.policy.delay(attempt, salt=task.key))
                    continue
                break
            batch.succeed(task, attempt, value)
            break


@dataclass
class _InFlight:
    task: TaskSpec
    attempt: int
    deadline: Optional[float]


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Hard-stop a pool whose workers may be hung or dead."""
    for proc in list(getattr(pool, "_processes", {}).values()):
        try:
            proc.terminate()
        except Exception:  # pragma: no cover - best effort
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _run_pooled(
    tasks: Sequence[TaskSpec],
    workers: int,
    batch: _Batch,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple[Any, ...] = (),
) -> None:
    policy = batch.policy

    def make_pool() -> ProcessPoolExecutor:
        # rebuilt pools must re-run the initializer too — fresh workers
        # need the same shared-memory attachments the first ones had
        return ProcessPoolExecutor(
            max_workers=workers, initializer=initializer, initargs=initargs
        )

    pool = make_pool()
    in_flight: Dict[Future, _InFlight] = {}
    #: (eligible_at, task, failed_attempts) — backoff queue
    waiting: List[Tuple[float, TaskSpec, int]] = []
    ready: List[Tuple[TaskSpec, int]] = [(t, 0) for t in tasks]

    def submit(task: TaskSpec, prior_attempts: int) -> bool:
        """Submit one attempt; False when the pool turned out to be broken."""
        attempt = prior_attempts + 1
        batch.start(task, attempt)
        deadline = (
            time.monotonic() + policy.timeout if policy.timeout is not None else None
        )
        try:
            future = pool.submit(task.fn, *task.args)
        except BrokenProcessPool as exc:
            if batch.fail(task, attempt, f"worker pool broke: {exc}"):
                waiting.append(
                    (time.monotonic() + policy.delay(attempt, salt=task.key), task, attempt)
                )
            return False
        in_flight[future] = _InFlight(task, attempt, deadline)
        return True

    def rebuild_pool(reason: str, extra_error: Dict[Future, str]) -> None:
        """Fail every unfinished in-flight task, then start a fresh pool.

        Futures that already completed successfully are harvested — a
        crash elsewhere in the pool must not discard finished work (or
        burn one of that task's attempts).
        """
        nonlocal pool
        obs_runtime.count("runs.pool_rebuilds")
        if batch.journal is not None:
            batch.journal.note("pool-rebuilt", reason=reason)
        _terminate_pool(pool)
        casualties = list(in_flight.items())
        in_flight.clear()
        pool = make_pool()
        for future, live in casualties:
            if future.done() and not future.cancelled():
                try:
                    value = future.result()
                except Exception:  # noqa: BLE001 — died with the pool
                    pass
                else:
                    batch.succeed(live.task, live.attempt, value)
                    continue
            error = extra_error.get(future, reason)
            if batch.fail(live.task, live.attempt, error):
                waiting.append(
                    (
                        time.monotonic()
                        + policy.delay(live.attempt, salt=live.task.key),
                        live.task,
                        live.attempt,
                    )
                )

    try:
        while ready or waiting or in_flight:
            now = time.monotonic()
            due = [w for w in waiting if w[0] <= now]
            if due:
                waiting[:] = [w for w in waiting if w[0] > now]
                ready.extend((task, failed) for _, task, failed in due)
            while ready:
                task, failed = ready.pop(0)
                if not submit(task, failed):
                    rebuild_pool("worker pool broke before submission", {})
            if not in_flight:
                if waiting:
                    time.sleep(max(0.0, min(w[0] for w in waiting) - time.monotonic()))
                continue

            tick = 0.5
            if waiting:
                tick = min(tick, max(0.0, min(w[0] for w in waiting) - now))
            deadlines = [l.deadline for l in in_flight.values() if l.deadline]
            if deadlines:
                tick = min(tick, max(0.0, min(deadlines) - now))
            done, _ = wait(
                list(in_flight), timeout=tick, return_when=FIRST_COMPLETED
            )

            broken: Optional[str] = None
            for future in done:
                live = in_flight.pop(future)
                try:
                    value = future.result()
                except BrokenProcessPool as exc:
                    # The pool is gone; every other in-flight task died
                    # with it. Re-queue this one alongside them.
                    in_flight[future] = live
                    broken = f"worker pool broke: {exc}"
                    break
                except Exception as exc:  # noqa: BLE001 — retry boundary
                    if batch.fail(
                        live.task, live.attempt, f"{type(exc).__name__}: {exc}"
                    ):
                        waiting.append(
                            (
                                time.monotonic()
                                + policy.delay(live.attempt, salt=live.task.key),
                                live.task,
                                live.attempt,
                            )
                        )
                    continue
                batch.succeed(live.task, live.attempt, value)
            if broken is not None:
                rebuild_pool(broken, {})
                continue

            if policy.timeout is not None:
                now = time.monotonic()
                expired = {
                    future: (
                        f"task exceeded its {policy.timeout:g}s timeout"
                    )
                    for future, live in in_flight.items()
                    if live.deadline is not None and live.deadline <= now
                }
                if expired:
                    # A hung worker cannot be preempted individually —
                    # terminate the whole pool and resubmit survivors.
                    rebuild_pool("pool rebuilt after a task timeout", expired)
    finally:
        _terminate_pool(pool)


def run_tasks(
    tasks: Sequence[TaskSpec],
    *,
    workers: Optional[int] = None,
    policy: Optional[RetryPolicy] = None,
    on_task_error: str = "retry",
    journal: Optional[RunJournal] = None,
    digest: Optional[Callable[[Any], str]] = None,
    progress: Optional[ProgressReporter] = None,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple[Any, ...] = (),
) -> TaskBatchResult:
    """Run a batch of tasks to completion with retry and crash recovery.

    ``workers <= 1`` runs serially in-process (retries still apply;
    per-task timeouts cannot be enforced without a pool and are
    ignored). So does a batch whose pool would hold a single worker
    (one task), unless ``policy`` can retry or time out: only a process
    boundary survives a killed or hung cell. Task keys must be unique.
    Results come back keyed, so callers reassemble them in any
    deterministic order they choose.

    ``progress`` receives one ``task_update(done, total, key)`` per
    settled cell (succeeded, or skipped after exhausting attempts);
    when omitted, :func:`repro.obs.progress` is polled so an ambient
    reporter installed via :func:`repro.obs.progressing` is used.

    ``initializer(*initargs)`` runs once in every pooled worker before
    its first task — including workers of pools rebuilt after a crash
    or timeout (e.g. to attach shared-memory topologies, see
    :func:`repro.topology.install_topology_handles`). Both must be
    picklable; ignored on the serial path, where the process is the
    caller's own.
    """
    require_on_error(on_task_error)
    policy = policy or RetryPolicy()
    keys = [t.key for t in tasks]
    if len(set(keys)) != len(keys):
        raise ValueError("task keys must be unique")
    if journal is not None:
        for task in tasks:
            journal.task(task.key, task.spec or {})
    if progress is None:
        progress = obs_runtime.progress()
    batch = _Batch(policy, on_task_error, journal, digest, len(tasks), progress)
    if not tasks:
        return batch.out
    pool_size = min(workers or 1, len(tasks))
    can_fail_over = policy.max_retries > 0 or policy.timeout is not None
    if pool_size > 1 or (workers is not None and workers > 1 and can_fail_over):
        _run_pooled(tasks, pool_size, batch, initializer, initargs)
    else:
        _run_serial(tasks, batch)
    if batch.out.quarantined:
        dropped = ", ".join(sorted(batch.out.quarantined))
        warnings.warn(
            f"{len(batch.out.quarantined)} cell(s) quarantined after "
            f"exhausting their attempts: {dropped}",
            stacklevel=2,
        )
    return batch.out
