"""Tests for FIFO and EASY-backfill queue policies."""

import pytest

from repro.scheduler import (
    EasyBackfillPolicy,
    EngineConfig,
    FifoPolicy,
    RunningJobView,
    get_policy,
    simulate,
)
from repro.topology import tree_from_leaf_sizes

from ..conftest import make_compute_job


def jobs(*sizes, runtime=100.0):
    return [
        make_compute_job(job_id=i, nodes=n, runtime=runtime) for i, n in enumerate(sizes)
    ]


class TestFifo:
    def test_starts_head_run(self):
        picks = FifoPolicy().select_startable(0.0, jobs(2, 3, 10), 6, [])
        assert picks == [0, 1]

    def test_head_blocks_queue(self):
        picks = FifoPolicy().select_startable(0.0, jobs(10, 1), 6, [])
        assert picks == []

    def test_empty_queue(self):
        assert FifoPolicy().select_startable(0.0, [], 6, []) == []


class TestEasyBackfill:
    def test_backfills_short_job_ending_before_shadow(self):
        queue = [
            make_compute_job(job_id=0, nodes=10, runtime=100.0),  # head, blocked
            make_compute_job(job_id=1, nodes=2, runtime=40.0),    # fits + short
        ]
        running = [RunningJobView(finish_estimate=50.0, nodes=8)]
        picks = EasyBackfillPolicy().select_startable(0.0, queue, 4, running)
        assert picks == [1]

    def test_rejects_job_that_would_delay_head(self):
        queue = [
            make_compute_job(job_id=0, nodes=10, runtime=100.0),
            make_compute_job(job_id=1, nodes=4, runtime=500.0),  # runs past shadow
        ]
        running = [RunningJobView(finish_estimate=50.0, nodes=8)]
        # shadow = 50, extra = 4 + 8 - 10 = 2 < 4 -> cannot take reserved nodes
        picks = EasyBackfillPolicy().select_startable(0.0, queue, 4, running)
        assert picks == []

    def test_long_job_fits_in_extra_nodes(self):
        queue = [
            make_compute_job(job_id=0, nodes=10, runtime=100.0),
            make_compute_job(job_id=1, nodes=2, runtime=10_000.0),  # long but small
        ]
        running = [RunningJobView(finish_estimate=50.0, nodes=8)]
        # extra = 12 - 10 = 2 >= 2 -> allowed
        picks = EasyBackfillPolicy().select_startable(0.0, queue, 4, running)
        assert picks == [1]

    def test_extra_nodes_consumed_by_backfills(self):
        queue = [
            make_compute_job(job_id=0, nodes=11, runtime=100.0),
            make_compute_job(job_id=1, nodes=2, runtime=10_000.0),
            make_compute_job(job_id=2, nodes=2, runtime=10_000.0),  # extra now gone
        ]
        running = [RunningJobView(finish_estimate=50.0, nodes=8)]
        # shadow = 50, extra = (6 free + 8 finishing) - 11 = 3;
        # job 1 consumes 2 of the 3 extra nodes, job 2 no longer fits
        picks = EasyBackfillPolicy().select_startable(0.0, queue, 6, running)
        assert picks == [1]

    def test_head_run_starts_before_backfill(self):
        queue = jobs(2, 3, 10, 1)
        running = [RunningJobView(finish_estimate=50.0, nodes=10)]
        picks = EasyBackfillPolicy().select_startable(0.0, queue, 6, running)
        # jobs 0, 1 start FIFO (5 nodes); job 2 blocked; job 3 backfills
        assert picks[:2] == [0, 1]
        assert 3 in picks

    def test_no_running_jobs_no_backfill(self):
        """With nothing running the head can never start -> no reservation
        -> no backfilling (engine rejects oversized jobs up front)."""
        queue = jobs(10, 1)
        picks = EasyBackfillPolicy().select_startable(0.0, queue, 6, [])
        assert picks == []

    def test_respects_current_time(self):
        queue = [
            make_compute_job(job_id=0, nodes=10, runtime=100.0),
            make_compute_job(job_id=1, nodes=2, runtime=30.0),
        ]
        running = [RunningJobView(finish_estimate=50.0, nodes=8)]
        # at t=30 the job would end at 60 > shadow 50, and extra = 2 >= 2
        picks = EasyBackfillPolicy().select_startable(30.0, queue, 4, running)
        assert picks == [1]  # still fits via extra nodes
        # shrink extra: head needs all 12
        queue[0] = make_compute_job(job_id=0, nodes=12, runtime=100.0)
        picks = EasyBackfillPolicy().select_startable(30.0, queue, 4, running)
        assert picks == []


class TestEasyShadowDefect:
    @pytest.mark.xfail(
        strict=True,
        reason="known defect: the EASY shadow time ignores jobs started "
        "earlier in the same pass (docs/model.md)",
    )
    def test_head_not_delayed_by_backfill(self):
        """Job 3 starts in the same pass as the backfill decision and ends
        at 11, freeing the 4 nodes blocked head job 4 needs. The shadow
        counts only jobs 1 and 2 (ending at 100), so job 5 (1..51) is
        backfilled onto those nodes and job 4 waits until 51."""
        trace = [(1, 0, 2, 100), (2, 0, 4, 200), (3, 1, 2, 10),
                 (4, 1, 4, 30), (5, 1, 2, 50)]
        jobs = [
            make_compute_job(job_id=i, nodes=n, runtime=float(r), submit_time=float(t))
            for i, t, n, r in trace
        ]
        result = simulate(tree_from_leaf_sizes([5, 5]), jobs, "default",
                          config=EngineConfig(policy="backfill"))
        assert result.record_for(4).start_time == 11.0


class TestGetPolicy:
    def test_known(self):
        assert get_policy("fifo").name == "fifo"
        assert get_policy("backfill").name == "backfill"

    def test_unknown(self):
        with pytest.raises(KeyError):
            get_policy("sjf")
