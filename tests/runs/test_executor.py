"""Resilient executor: retries, skip/raise modes, worker-crash recovery.

The crash-injection helpers must live at module level: they cross the
process boundary by pickle-by-reference. Each uses a marker file to
fail only on its first attempt, so retries provably recover.
"""

import os

import pytest

from repro.runs import (
    RetryPolicy,
    RunJournal,
    TaskFailedError,
    TaskSpec,
    load_journal,
    run_tasks,
)

FAST = RetryPolicy(max_retries=2, backoff_base=0.01)


def _ok(x):
    return x * 2


def _pid():
    return os.getpid()


def _fail_always(key):
    raise ValueError(f"{key} never works")


def _flaky(key, marker_dir):
    marker = os.path.join(marker_dir, key)
    if not os.path.exists(marker):
        open(marker, "w").close()
        raise RuntimeError("transient")
    return f"{key}-done"


def _crash_once(key, marker_dir):
    marker = os.path.join(marker_dir, key)
    if not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)  # simulates an OOM kill / segfault: no exception, no cleanup
    return f"{key}-ok"


def _hang_once(key, marker_dir):
    import time

    marker = os.path.join(marker_dir, key)
    if not os.path.exists(marker):
        open(marker, "w").close()
        time.sleep(30.0)
    return f"{key}-ok"


class TestSerial:
    def test_plain_success(self):
        out = run_tasks([TaskSpec("a", _ok, (3,)), TaskSpec("b", _ok, (4,))])
        assert out.results == {"a": 6, "b": 8}
        assert out.complete
        assert out.attempts == {"a": 1, "b": 1}

    def test_retry_recovers_transient_failure(self, tmp_path):
        tasks = [TaskSpec(k, _flaky, (k, str(tmp_path))) for k in ("a", "b")]
        out = run_tasks(tasks, policy=FAST)
        assert out.results == {"a": "a-done", "b": "b-done"}
        assert out.attempts == {"a": 2, "b": 2}

    def test_retry_exhaustion_raises(self):
        with pytest.raises(TaskFailedError) as info:
            run_tasks([TaskSpec("a", _fail_always, ("a",))], policy=FAST)
        assert info.value.key == "a"
        assert info.value.attempts == FAST.max_attempts

    def test_raise_mode_fails_fast(self):
        with pytest.raises(TaskFailedError) as info:
            run_tasks(
                [TaskSpec("a", _fail_always, ("a",))],
                policy=FAST,
                on_task_error="raise",
            )
        assert info.value.attempts == 1

    def test_skip_mode_reports_missing(self, tmp_path):
        tasks = [
            TaskSpec("good", _ok, (1,)),
            TaskSpec("bad", _fail_always, ("bad",)),
        ]
        out = run_tasks(tasks, policy=FAST, on_task_error="skip")
        assert out.results == {"good": 2}
        assert not out.complete
        assert list(out.missing) == ["bad"]
        assert "never works" in out.missing["bad"]

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            run_tasks([TaskSpec("a", _ok, (1,)), TaskSpec("a", _ok, (2,))])

    def test_empty_batch(self):
        out = run_tasks([])
        assert out.results == {}
        assert out.complete

    def test_journal_records_attempts_and_digests(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path, run_type="tasks") as jrn:
            run_tasks(
                [TaskSpec("a", _flaky, ("a", str(tmp_path)), spec={"n": 1})],
                policy=FAST,
                journal=jrn,
                digest=lambda v: f"sha256:{v}",
            )
        data = load_journal(path)
        assert data.tasks == {"a": {"n": 1}}
        assert data.attempt_count("a") == 2
        assert data.digests == {"a": "sha256:a-done"}


class TestOneWorkerBatch:
    """A pool that would hold one worker runs in-process, unless the
    policy can retry or time out: only a process boundary survives a
    killed or hung cell."""

    def test_plain_one_task_batch_runs_in_process(self):
        out = run_tasks([TaskSpec("a", _pid)], workers=4)
        assert out.results == {"a": os.getpid()}

    @pytest.mark.parametrize(
        "policy",
        [RetryPolicy(max_retries=1), RetryPolicy(timeout=30.0)],
        ids=["retries", "timeout"],
    )
    def test_failover_policy_keeps_the_process_boundary(self, policy):
        out = run_tasks([TaskSpec("a", _pid)], workers=4, policy=policy)
        assert out.results["a"] != os.getpid()

    def test_serial_workers_stay_in_process_with_retries(self):
        out = run_tasks(
            [TaskSpec("a", _pid), TaskSpec("b", _pid)],
            workers=1,
            policy=RetryPolicy(max_retries=1),
        )
        assert out.results == {"a": os.getpid(), "b": os.getpid()}


class TestPooled:
    def test_worker_crash_recovered(self, tmp_path):
        # os._exit(1) kills the worker process outright, breaking the
        # whole pool; the executor must rebuild it and resubmit only
        # what never finished.
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        journal_path = tmp_path / "run.jsonl"
        tasks = [TaskSpec(k, _crash_once, (k, str(marker_dir))) for k in "abc"]
        with RunJournal(journal_path, run_type="tasks") as jrn:
            out = run_tasks(
                tasks,
                workers=2,
                policy=RetryPolicy(max_retries=3, backoff_base=0.01),
                journal=jrn,
            )
        assert out.results == {"a": "a-ok", "b": "b-ok", "c": "c-ok"}
        assert out.complete
        data = load_journal(journal_path)
        # Each task crashed once, so each shows at least two submissions
        # and the executor logged at least one pool rebuild.
        assert all(data.attempt_count(k) >= 2 for k in "abc")
        assert any(n["event"] == "pool-rebuilt" for n in data.notes)

    def test_skip_mode_survives_persistent_crash(self, tmp_path):
        tasks = [
            TaskSpec("good", _ok, (21,)),
            TaskSpec("bad", _fail_always, ("bad",)),
        ]
        out = run_tasks(
            tasks, workers=2, policy=FAST, on_task_error="skip"
        )
        assert out.results == {"good": 42}
        assert list(out.missing) == ["bad"]

    def test_timeout_rebuilds_pool_and_retries(self, tmp_path):
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        tasks = [TaskSpec("slow", _hang_once, ("slow", str(marker_dir)))]
        out = run_tasks(
            tasks,
            workers=2,
            policy=RetryPolicy(max_retries=2, backoff_base=0.01, timeout=0.75),
        )
        assert out.results == {"slow": "slow-ok"}
        assert out.attempts["slow"] >= 2
