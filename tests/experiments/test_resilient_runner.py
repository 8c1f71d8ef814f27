"""Resilient harness paths: crash recovery never changes the numbers.

The crash injectors live at module level (pickled by reference across
the process boundary) and capture the *real* workers at import time so
monkeypatching the harness cannot recurse into the injector.
"""

import os

import pytest

from repro.experiments import ExperimentConfig, continuous_runs, individual_runs
from repro.experiments import runner as runner_module
from repro.experiments.runner import _continuous_worker as _real_continuous_worker
from repro.experiments.sweeps import sweep
from repro.runs import PartialResults, TaskFailedError, load_journal
from repro.workloads import single_pattern_mix

from .harness_reference import (
    record_tuples,
    reference_continuous,
    reference_individual,
    reference_sweep,
)


@pytest.fixture(scope="module")
def cfg():
    return ExperimentConfig(
        log="theta",
        n_jobs=30,
        seed=3,
        mix=single_pattern_mix("rd"),
        allocators=("default", "greedy"),
    )


def crash_once_worker(cfg, name, jobs):
    """Die like an OOM-killed worker the first time 'greedy' runs."""
    if name == "greedy":
        marker = os.path.join(os.environ["REPRO_TEST_CRASH_DIR"], name)
        if not os.path.exists(marker):
            open(marker, "w").close()
            os._exit(1)
    return _real_continuous_worker(cfg, name, jobs)


def always_fail_worker(cfg, name, jobs):
    if name == "greedy":
        raise ValueError("greedy is cursed today")
    return _real_continuous_worker(cfg, name, jobs)


class TestContinuousCrashRecovery:
    def test_killed_worker_recovered_bit_identical(
        self, cfg, tmp_path, monkeypatch
    ):
        serial = reference_continuous(cfg)
        monkeypatch.setenv("REPRO_TEST_CRASH_DIR", str(tmp_path))
        monkeypatch.setattr(runner_module, "_continuous_worker", crash_once_worker)
        journal_path = tmp_path / "run.jsonl"
        recovered = continuous_runs(
            cfg, workers=2, max_retries=2, journal=journal_path
        )
        # A fully recovered run comes back as a plain dict, not partial.
        assert not isinstance(recovered, PartialResults)
        assert list(recovered) == list(serial)
        for name in serial:
            assert record_tuples(recovered[name]) == record_tuples(serial[name])
            assert recovered[name].summary() == serial[name].summary()
        data = load_journal(journal_path)
        assert data.run_type == "continuous_runs"
        assert data.attempt_count("greedy") >= 2
        assert data.missing_keys() == []
        assert any(n["event"] == "pool-rebuilt" for n in data.notes)

    def test_skip_mode_names_missing_cells(self, cfg, monkeypatch):
        monkeypatch.setattr(runner_module, "_continuous_worker", always_fail_worker)
        out = continuous_runs(cfg, max_retries=0, on_task_error="skip")
        assert isinstance(out, PartialResults)
        assert not out.complete
        assert list(out.missing) == ["greedy"]
        assert "cursed" in out.missing["greedy"]
        assert list(out) == ["default"]

    def test_raise_mode_propagates(self, cfg, monkeypatch):
        monkeypatch.setattr(runner_module, "_continuous_worker", always_fail_worker)
        with pytest.raises(TaskFailedError, match="greedy"):
            continuous_runs(cfg, max_retries=0, on_task_error="raise")


class TestResilientParity:
    """With no failures injected, retries and the journal are pure plumbing."""

    def test_continuous_resilient_equals_serial(self, cfg, tmp_path):
        reference = reference_continuous(cfg)
        resilient = continuous_runs(
            cfg, max_retries=1, journal=tmp_path / "run.jsonl"
        )
        assert list(resilient) == list(reference)
        for name in reference:
            assert record_tuples(resilient[name]) == record_tuples(reference[name])
        data = load_journal(tmp_path / "run.jsonl")
        assert data.run_type == "continuous_runs"
        assert data.missing_keys() == []

    def test_individual_resilient_equals_serial(self, cfg, tmp_path):
        sampled, outcomes = reference_individual(cfg, n_samples=4)
        resilient = individual_runs(
            cfg, n_samples=4, max_retries=1, journal=tmp_path / "run.jsonl"
        )
        assert resilient.complete
        assert resilient.sampled_job_ids == sampled
        assert resilient.outcomes == outcomes
        data = load_journal(tmp_path / "run.jsonl")
        assert data.run_type == "individual_runs"
        assert data.missing_keys() == []

    def test_sweep_resilient_equals_serial(self, tmp_path):
        grid = {"n_jobs": [10, 20], "seed": [1]}
        reference = reference_sweep(grid, allocators=("default", "greedy"))
        resilient = sweep(
            grid,
            allocators=("default", "greedy"),
            max_retries=1,
            journal=tmp_path / "run.jsonl",
        )
        assert resilient == reference
        data = load_journal(tmp_path / "run.jsonl")
        assert data.run_type == "sweep"
        assert len(data.completed_keys()) == 2


#: serial, pooled, retrying, journaled
CONFIG_ERROR_MODES = ["serial", "workers2", "retries", "journal"]


def _mode_kwargs(mode, journal_path):
    return {
        "serial": {},
        "workers2": {"workers": 2},
        "retries": {"max_retries": 1},
        "journal": {"journal": journal_path},
    }[mode]


def _journal_attempts(path):
    """Attempt entries of a journal; none when it was never created."""
    if not path.exists():
        return []
    return [a for tries in load_journal(path).attempts.values() for a in tries]


class TestConfigErrorsBeforeFanOut:
    """A bad knob raises its own error once, never as a failed cell."""

    @pytest.mark.parametrize("mode", CONFIG_ERROR_MODES)
    @pytest.mark.parametrize("harness", ["continuous", "individual"])
    def test_bad_interrupt_knob_raises_value_error(
        self, cfg, tmp_path, harness, mode
    ):
        bad = cfg.with_(interrupt_policy="checkpoint", checkpoint_interval=-1.0)
        path = tmp_path / "run.jsonl"
        run = (
            continuous_runs
            if harness == "continuous"
            else lambda c, **kw: individual_runs(c, n_samples=3, **kw)
        )
        with pytest.raises(ValueError, match="checkpoint_interval"):
            run(bad, **_mode_kwargs(mode, path))
        assert _journal_attempts(path) == []

    @pytest.mark.parametrize("mode", CONFIG_ERROR_MODES)
    def test_sweep_unknown_allocator_raises_key_error(self, tmp_path, mode):
        path = tmp_path / "run.jsonl"
        with pytest.raises(KeyError, match="nosuch"):
            sweep({"seed": [0, 1]}, allocators=("nosuch",),
                  defaults={"n_jobs": 10}, **_mode_kwargs(mode, path))
        assert _journal_attempts(path) == []

    def test_unknown_log_with_explicit_jobs_raises_key_error(self, cfg):
        jobs = runner_module.prepare_jobs(cfg)
        with pytest.raises(KeyError, match="unknown log"):
            continuous_runs(cfg.with_(log="nosuch"), jobs, max_retries=1)
