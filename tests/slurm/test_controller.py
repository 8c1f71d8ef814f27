"""Tests for the interactive SLURM-style controller."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.allocation import PAPER_ALLOCATORS
from repro.cluster import CommComponent, Job, JobKind
from repro.faults import FaultEvent
from repro.patterns import get_pattern
from repro.runs.digest import result_digest
from repro.scheduler import EngineConfig, SimulationResult, simulate
from repro.slurm import JobState, SlurmCluster
from repro.topology import tree_from_leaf_sizes, two_level_tree


@pytest.fixture
def cluster():
    return SlurmCluster(two_level_tree(2, 4), allocator="balanced")


class TestSbatch:
    def test_immediate_start_when_free(self, cluster):
        jid = cluster.sbatch(nodes=4, runtime=100.0)
        assert cluster.job_state(jid) == JobState.RUNNING

    def test_pending_when_full(self, cluster):
        cluster.sbatch(nodes=8, runtime=100.0)
        jid = cluster.sbatch(nodes=8, runtime=50.0)
        assert cluster.job_state(jid) == JobState.PENDING

    def test_comm_job_needs_pattern(self, cluster):
        with pytest.raises(ValueError, match="pattern"):
            cluster.sbatch(nodes=4, runtime=10.0, kind="comm")

    def test_comm_job_with_pattern_name(self, cluster):
        jid = cluster.sbatch(nodes=8, runtime=100.0, kind="comm", pattern="rhvd")
        assert cluster.job_state(jid) == JobState.RUNNING

    def test_oversized_rejected(self, cluster):
        with pytest.raises(ValueError, match="cluster has"):
            cluster.sbatch(nodes=99, runtime=10.0)

    def test_bad_kind(self, cluster):
        with pytest.raises(ValueError, match="kind"):
            cluster.sbatch(nodes=2, runtime=10.0, kind="gpu")

    def test_io_job_supported(self, cluster):
        jid = cluster.sbatch(nodes=4, runtime=10.0, kind="io")
        assert cluster.job_state(jid) == JobState.RUNNING
        assert sum(r.io_busy for r in cluster.sinfo()) == 4

    def test_submit_time_is_now(self, cluster):
        cluster.advance(42.0)
        jid = cluster.sbatch(nodes=2, runtime=10.0)
        entry = [q for q in cluster.squeue() if q.job_id == jid][0]
        assert entry.submit_time == pytest.approx(42.0)


class TestAdvanceAndComplete:
    def test_job_completes_after_runtime(self, cluster):
        jid = cluster.sbatch(nodes=4, runtime=100.0)
        cluster.advance(99.0)
        assert cluster.job_state(jid) == JobState.RUNNING
        cluster.advance(1.0)
        assert cluster.job_state(jid) == JobState.COMPLETED

    def test_completion_frees_nodes_for_pending(self, cluster):
        cluster.sbatch(nodes=8, runtime=100.0)
        second = cluster.sbatch(nodes=8, runtime=50.0)
        cluster.advance(100.0)
        assert cluster.job_state(second) == JobState.RUNNING

    def test_history_records_metrics(self, cluster):
        cluster.sbatch(nodes=8, runtime=100.0, kind="comm", pattern="rhvd")
        cluster.advance(200.0)
        (record,) = cluster.history
        assert record.total_cost_jobaware > 0
        assert record.execution_time > 0

    def test_drain_completes_everything(self, cluster):
        for _ in range(5):
            cluster.sbatch(nodes=8, runtime=10.0)
        cluster.drain()
        assert len(cluster.history) == 5
        assert cluster.squeue() == []

    def test_negative_advance_rejected(self, cluster):
        with pytest.raises(ValueError):
            cluster.advance(-1.0)


class TestScancel:
    def test_cancel_pending(self, cluster):
        cluster.sbatch(nodes=8, runtime=100.0)
        jid = cluster.sbatch(nodes=8, runtime=50.0)
        assert cluster.scancel(jid) == JobState.PENDING
        assert cluster.job_state(jid) == JobState.CANCELLED

    def test_cancel_running_frees_nodes(self, cluster):
        jid = cluster.sbatch(nodes=8, runtime=100.0)
        waiting = cluster.sbatch(nodes=8, runtime=50.0)
        assert cluster.scancel(jid) == JobState.RUNNING
        assert cluster.job_state(waiting) == JobState.RUNNING  # promoted

    def test_cancelled_job_never_completes(self, cluster):
        jid = cluster.sbatch(nodes=4, runtime=100.0)
        cluster.scancel(jid)
        cluster.advance(1000.0)
        assert cluster.job_state(jid) == JobState.CANCELLED
        assert cluster.history == []

    def test_cancel_unknown(self, cluster):
        with pytest.raises(KeyError):
            cluster.scancel(7777)


class TestInspection:
    def test_squeue_running_then_pending(self, cluster):
        a = cluster.sbatch(nodes=8, runtime=100.0)
        b = cluster.sbatch(nodes=2, runtime=10.0)
        rows = cluster.squeue()
        assert [r.job_id for r in rows] == [a, b]
        assert rows[0].state == JobState.RUNNING
        assert rows[1].state == JobState.PENDING

    def test_sinfo_tracks_occupancy(self, cluster):
        cluster.sbatch(nodes=4, runtime=100.0, kind="comm", pattern="rd")
        rows = cluster.sinfo()
        assert sum(r.busy for r in rows) == 4
        assert sum(r.comm_busy for r in rows) == 4
        assert sum(r.free for r in rows) == 4

    def test_unknown_job_state(self, cluster):
        with pytest.raises(KeyError):
            cluster.job_state(1234)


class TestScancelReschedules:
    def test_cancelling_the_blocked_head_starts_the_next_job(self):
        cluster = SlurmCluster(tree_from_leaf_sizes([4, 4]), policy="fifo")
        cluster.sbatch(nodes=4, runtime=100.0)
        head = cluster.sbatch(nodes=8, runtime=10.0)
        small = cluster.sbatch(nodes=2, runtime=10.0)
        assert cluster.job_state(small) == JobState.PENDING
        cluster.scancel(head)
        assert cluster.job_state(small) == JobState.RUNNING
        (entry,) = [q for q in cluster.squeue() if q.job_id == small]
        assert entry.start_time == 0.0


class TestConservativeSimultaneousCompletions:
    def test_twin_completions_release_together(self):
        """Both 4-node jobs end at t=10; the 8-node job starts then."""
        topo = tree_from_leaf_sizes([4, 4])
        cluster = SlurmCluster(topo, policy="conservative")
        cluster.sbatch(nodes=4, runtime=10.0)
        cluster.sbatch(nodes=4, runtime=10.0)
        big = cluster.sbatch(nodes=8, runtime=5.0)
        cluster.advance(10.0)
        assert cluster.job_state(big) == JobState.RUNNING
        cluster.drain()
        got = SimulationResult("default", cluster.history)
        assert got.record_for(big).start_time == 10.0
        jobs = [Job(1, 0.0, 4, 10.0), Job(2, 0.0, 4, 10.0), Job(3, 0.0, 8, 5.0)]
        ref = simulate(topo, jobs, "default", config=EngineConfig(policy="conservative"))
        assert result_digest(got) == result_digest(ref)


# ----------------------------------------------------------------------
# differential parity with the batch engine
# ----------------------------------------------------------------------

RHVD = get_pattern("rhvd")


@st.composite
def tie_heavy_traces(draw):
    """Small tree plus an integer-time trace full of simultaneous events."""
    leaves = draw(st.lists(st.integers(2, 5), min_size=1, max_size=3))
    n_nodes = sum(leaves)
    jobs, t = [], 0
    for job_id in range(1, draw(st.integers(1, 12)) + 1):
        t += draw(st.sampled_from([0, 0, 1, 2, 5]))
        nodes = draw(st.integers(1, n_nodes))
        runtime = float(draw(st.integers(0, 10)))
        if nodes > 1 and draw(st.booleans()):
            comm = (CommComponent(RHVD, draw(st.sampled_from([0.3, 0.7, 1.0]))),)
            jobs.append(Job(job_id, float(t), nodes, runtime, JobKind.COMM, comm))
        else:
            jobs.append(Job(job_id, float(t), nodes, runtime))
    return tree_from_leaf_sizes(leaves), jobs


def replay(cluster, jobs, faults=()):
    """Drive ``cluster`` through a trace: advance only when time moves."""
    timeline = sorted(
        [(j.submit_time, 1, j.job_id, j) for j in jobs]
        + [(f.time, 0, i, f) for i, f in enumerate(faults)],
        key=lambda item: item[:3],
    )
    for time, _, _, item in timeline:
        if time > cluster.now:
            cluster.advance(time - cluster.now)
        if isinstance(item, FaultEvent):
            if item.is_down:
                cluster.scontrol_down(list(item.nodes))
            else:
                cluster.scontrol_resume(list(item.nodes))
        elif item.is_comm_intensive:
            (comp,) = item.comm
            cluster.sbatch(nodes=item.nodes, runtime=item.runtime, kind="comm",
                           pattern=comp.pattern, comm_fraction=comp.fraction)
        else:
            cluster.sbatch(nodes=item.nodes, runtime=item.runtime)
    cluster.drain()
    return SimulationResult(cluster.engine.allocator.name, cluster.history)


class TestParityWithBatchEngine:
    @settings(max_examples=150, deadline=None)
    @given(
        case=tie_heavy_traces(),
        policy=st.sampled_from(["fifo", "backfill", "conservative"]),
        allocator=st.sampled_from(PAPER_ALLOCATORS),
    )
    def test_replay_digest_equals_simulate(self, case, policy, allocator):
        topo, jobs = case
        ref = simulate(topo, jobs, allocator, config=EngineConfig(policy=policy))
        got = replay(SlurmCluster(topo, allocator, policy=policy), jobs)
        assert result_digest(got) == result_digest(ref)

    @settings(max_examples=100, deadline=None)
    @given(
        case=tie_heavy_traces(),
        policy=st.sampled_from(["fifo", "backfill", "conservative"]),
        allocator=st.sampled_from(PAPER_ALLOCATORS),
        interrupt_policy=st.sampled_from(["requeue", "checkpoint", "abandon"]),
        data=st.data(),
    )
    def test_scontrol_faults_equal_simulate_faults(
        self, case, policy, allocator, interrupt_policy, data
    ):
        """Outages at times no other event shares: k + e/8, one e per event.

        Eighths add exactly, so ``advance(t - now)`` lands on ``t``.
        """
        topo, jobs = case
        faults = []
        for e in range(1, 2 * data.draw(st.integers(1, 3)), 2):
            nodes = tuple(data.draw(st.sets(
                st.integers(0, topo.n_nodes - 1), min_size=1, max_size=topo.n_nodes
            )))
            down = data.draw(st.integers(0, 12)) + e / 8
            up = down + data.draw(st.integers(0, 6)) + 1 / 8
            faults += [FaultEvent(down, "down", nodes), FaultEvent(up, "up", nodes)]
        config = EngineConfig(
            policy=policy, interrupt_policy=interrupt_policy, checkpoint_interval=3.0
        )
        ref = simulate(topo, jobs, allocator, config=config, faults=faults)
        # integer submits and runtimes keep completions off the fault
        # lattice; only an Eq. 7-rescaled runtime could land on it
        fault_times = {f.time for f in faults}
        assume(not any(
            r.finish_time in fault_times for r in ref.records if not r.failed
        ))
        cluster = SlurmCluster(
            topo, allocator, policy=policy,
            interrupt_policy=interrupt_policy, checkpoint_interval=3.0,
        )
        got = replay(cluster, jobs, faults)
        assert result_digest(got) == result_digest(ref)
