"""The engine's online step API: open_run / submit / inject / cancel / advance_to."""

import pytest

from repro.cluster import Job
from repro.cluster.state import AVAIL_DOWN
from repro.faults import FaultEvent
from repro.scheduler import SchedulerEngine
from repro.topology import tree_from_leaf_sizes


@pytest.fixture
def engine():
    engine = SchedulerEngine(tree_from_leaf_sizes([4, 4]), "default")
    engine.open_run()
    return engine


class TestAdvanceTo:
    def test_exclusive_bound_leaves_the_instant_open(self, engine):
        engine.submit(Job(1, 0.0, 8, 10.0))
        engine.advance_to(10.0, inclusive=False)
        rs = engine.run_state
        assert 1 in rs.running and rs.clock == 10.0
        engine.submit(Job(2, 10.0, 8, 5.0))  # joins the batch at t=10
        engine.advance_to(10.0)
        assert [r.job.job_id for r in rs.records] == [1]
        assert rs.running[2].start_time == 10.0

    def test_idle_run_still_processes_every_event_up_to_the_bound(self, engine):
        engine.inject(FaultEvent(5.0, "down", (0,)))
        engine.inject(FaultEvent(6.0, "down", (1,)))
        engine.advance_to(10.0)
        assert (engine.run_state.state.node_avail[[0, 1]] == AVAIL_DOWN).all()

    def test_infinite_bound_stops_the_clock_at_the_last_batch(self, engine):
        engine.submit(Job(1, 0.0, 2, 30.0))
        engine.advance_to(float("inf"))
        assert engine.run_state.clock == 30.0
        assert not engine.run_state.running


class TestValidation:
    def test_no_open_run(self):
        engine = SchedulerEngine(tree_from_leaf_sizes([4]), "default")
        with pytest.raises(RuntimeError, match="open_run"):
            engine.submit(Job(1, 0.0, 1, 1.0))

    def test_clock_never_runs_backwards(self, engine):
        engine.advance_to(5.0)
        with pytest.raises(ValueError, match="before the run's clock"):
            engine.submit(Job(1, 4.0, 1, 1.0))
        with pytest.raises(ValueError, match="before the run's clock"):
            engine.advance_to(4.0)

    def test_oversized_job_and_foreign_node_rejected(self, engine):
        with pytest.raises(ValueError, match="cluster has 8"):
            engine.submit(Job(1, 0.0, 9, 1.0))
        with pytest.raises(ValueError, match="names node 8"):
            engine.inject(FaultEvent(0.0, "down", (8,)))


class TestCancel:
    def test_cancel_running_reschedules_at_the_clock(self, engine):
        engine.submit(Job(1, 0.0, 8, 100.0))
        engine.submit(Job(2, 0.0, 8, 10.0))
        engine.advance_to(3.0)
        assert engine.cancel(1) is True
        assert engine.run_state.running[2].start_time == 3.0

    def test_cancel_queued_and_unknown(self, engine):
        engine.submit(Job(1, 0.0, 8, 100.0))
        engine.submit(Job(2, 0.0, 8, 10.0))
        engine.advance_to(0.0)
        assert engine.cancel(2) is False
        assert engine.run_state.queue == []
        with pytest.raises(KeyError, match="neither queued nor running"):
            engine.cancel(2)
