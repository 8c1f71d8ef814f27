"""Every dispatch mode of the harnesses equals a direct reference run.

Each (allocator, …) cell is an independent pure function of its inputs,
so the number of workers and the retry/journal policy must change
nothing — not the values, not the ordering. The reference shares no
dispatch code with the harness (``harness_reference``), and every
comparison is exact equality.
"""

import os

import pytest

from repro.experiments import (
    ExperimentConfig,
    continuous_runs,
    individual_runs,
)
from repro.experiments import runner as runner_module
from repro.experiments.sweeps import sweep
from repro.runs import result_digest
from repro.workloads import single_pattern_mix

from .harness_reference import (
    DISPATCH_MODES,
    mode_kwargs,
    record_tuples,
    reference_continuous,
    reference_individual,
    reference_sweep,
)


@pytest.fixture(scope="module")
def cfg():
    return ExperimentConfig(
        log="theta",
        n_jobs=40,
        seed=3,
        mix=single_pattern_mix("rd"),
        allocators=("default", "balanced", "greedy"),
    )


class TestContinuousParallel:
    def test_bit_identical_to_serial(self, cfg, tmp_path):
        reference = reference_continuous(cfg)
        for i, (workers, resilient) in enumerate(DISPATCH_MODES):
            out = continuous_runs(
                cfg, **mode_kwargs(workers, resilient, tmp_path / f"{i}.jsonl")
            )
            mode = (workers, resilient)
            assert list(out) == list(reference), mode  # cfg.allocators order
            for name in reference:
                assert record_tuples(out[name]) == record_tuples(reference[name]), mode
                assert result_digest(out[name]) == result_digest(reference[name]), mode
                assert out[name].summary() == reference[name].summary(), mode

    def test_single_worker_stays_serial(self, cfg, monkeypatch):
        pids = []
        real = runner_module._continuous_worker

        def spy(*args):  # a closure: it cannot cross a process boundary
            pids.append(os.getpid())
            return real(*args)

        monkeypatch.setattr(runner_module, "_continuous_worker", spy)
        reference = reference_continuous(cfg)
        out = continuous_runs(cfg, workers=1)
        assert pids == [os.getpid()] * len(cfg.allocators)
        for name in reference:
            assert record_tuples(out[name]) == record_tuples(reference[name])


class TestIndividualParallel:
    def test_bit_identical_to_serial(self, cfg, tmp_path):
        sampled, outcomes = reference_individual(cfg, n_samples=12)
        for i, (workers, resilient) in enumerate(DISPATCH_MODES):
            out = individual_runs(
                cfg,
                n_samples=12,
                **mode_kwargs(workers, resilient, tmp_path / f"{i}.jsonl"),
            )
            assert out.complete, (workers, resilient)
            assert out.sampled_job_ids == sampled, (workers, resilient)
            assert out.outcomes == outcomes, (workers, resilient)

    def test_mean_improvement_matches(self, cfg):
        serial = individual_runs(cfg, n_samples=12)
        parallel = individual_runs(cfg, n_samples=12, workers=3)
        for name in ("balanced", "greedy"):
            assert serial.mean_improvement_pct(name) == (
                parallel.mean_improvement_pct(name)
            )

    @pytest.mark.parametrize("workers", [None, 2])
    def test_progress_reports_one_update_per_allocator_cell(
        self, cfg, workers
    ):
        updates = []

        class Recorder:
            def task_update(self, done, total, key):
                updates.append((done, total))

        individual_runs(cfg, n_samples=5, workers=workers, progress=Recorder())
        n = len(cfg.allocators)
        assert sorted(updates) == [(k, n) for k in range(1, n + 1)]


class TestSweepParallel:
    def test_bit_identical_to_serial(self, tmp_path):
        grid = {"seed": [0, 1], "percent_comm": [50.0, 90.0]}
        allocators = ("default", "balanced")
        reference = reference_sweep(
            grid, allocators=allocators, defaults={"n_jobs": 20}
        )
        for i, (workers, resilient) in enumerate(DISPATCH_MODES):
            rows = sweep(
                grid,
                allocators=allocators,
                defaults={"n_jobs": 20},
                **mode_kwargs(workers, resilient, tmp_path / f"{i}.jsonl"),
            )
            assert rows == reference, (workers, resilient)

    def test_row_order_is_cross_product_order(self):
        grid = {"seed": [0, 1]}
        rows = sweep(grid, allocators=("default",), defaults={"n_jobs": 10},
                     workers=2)
        assert [r["seed"] for r in rows] == [0, 1]


class TestCliWorkersFlag:
    def test_simulate_accepts_workers(self, capsys):
        from repro.cli import main

        code = main(
            [
                "simulate",
                "--log", "theta",
                "--allocator", "balanced",
                "--jobs", "15",
                "--workers", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "default" in out and "balanced" in out
