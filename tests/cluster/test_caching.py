"""Version-tagged cache correctness: invalidation, copies, overlays.

The Eq. 6 kernel memoizes the per-leaf contention-share vector and
finished cost totals on the state, keyed by its version counter. These
tests pin the invalidation contract: every mutation drops the caches, a
copy starts cold, and an overlay never writes into a base whose version
has moved on.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.allocation import DefaultSlurmAllocator, allocator_names, get_allocator
from repro.cluster import ClusterState, CommOverlay, JobKind
from repro.cluster.state import _COST_CACHE_MAX
from repro.cost import CostModel
from repro.patterns import RecursiveDoubling, RecursiveHalvingVectorDoubling
from repro.topology import two_level_tree
from repro.topology.random import random_tree

from ..conftest import make_comm_job, make_compute_job

PRICED_PATTERNS = (RecursiveDoubling(), RecursiveHalvingVectorDoubling())


@st.composite
def priced_scenarios(draw):
    """A random tree with a random compute/comm/IO occupancy, some nodes
    DOWN, and a request the free nodes can satisfy."""
    topo = random_tree(
        draw(st.integers(min_value=0, max_value=500)),
        max_children=3,
        max_leaf_size=8,
    )
    state = ClusterState(topo)
    n = topo.n_nodes
    # per node: 0 free, 1 compute, 2 comm, 3 io, 4 down
    marks = draw(st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n))
    for job_id, kind in ((1, JobKind.COMPUTE), (2, JobKind.COMM), (3, JobKind.IO)):
        held = [i for i, m in enumerate(marks) if m == job_id]
        if held:
            state.allocate(job_id, held, kind)
    down = [i for i, m in enumerate(marks) if m == 4]
    if down:
        state.mark_down(down)
    assume(state.total_free > 0)
    request = draw(st.integers(min_value=1, max_value=min(state.total_free, 64)))
    return state, request


@pytest.fixture
def state():
    return ClusterState(two_level_tree(4, 4))


class TestVersionCounter:
    def test_allocate_bumps_version(self, state):
        v0 = state.version
        state.allocate(1, [0, 1], JobKind.COMM)
        assert state.version == v0 + 1

    def test_release_bumps_version(self, state):
        state.allocate(1, [0, 1], JobKind.COMM)
        v1 = state.version
        state.release(1)
        assert state.version == v1 + 1

    def test_failed_allocate_does_not_bump(self, state):
        v0 = state.version
        with pytest.raises(ValueError):
            state.allocate(1, [0, 0], JobKind.COMM)
        with pytest.raises(ValueError):
            state.allocate(1, [999], JobKind.COMM)
        assert state.version == v0


class TestDerivedCache:
    def test_comm_share_cached_between_mutations(self, state):
        state.allocate(1, [0, 1], JobKind.COMM)
        assert state.leaf_comm_share() is state.leaf_comm_share()

    def test_comm_share_recomputed_after_allocate(self, state):
        before = state.leaf_comm_share()
        state.allocate(1, [0, 1], JobKind.COMM)
        after = state.leaf_comm_share()
        assert after is not before
        assert after[0] == 0.5

    def test_comm_share_recomputed_after_release(self, state):
        state.allocate(1, [0, 1], JobKind.COMM)
        assert state.leaf_comm_share()[0] == 0.5
        state.release(1)
        assert state.leaf_comm_share()[0] == 0.0

    def test_comm_share_is_read_only(self, state):
        with pytest.raises(ValueError):
            state.leaf_comm_share()[0] = 1.0


class TestCostCache:
    def test_roundtrip(self, state):
        state.cost_cache_put("k", 1.5)
        assert state.cost_cache_get("k") == 1.5
        assert state.cost_cache_get("other") is None

    def test_cleared_on_allocate_and_release(self, state):
        state.cost_cache_put("k", 1.5)
        state.allocate(1, [0], JobKind.COMPUTE)
        assert state.cost_cache_get("k") is None
        state.cost_cache_put("k", 2.5)
        state.release(1)
        assert state.cost_cache_get("k") is None

    def test_capped(self, state):
        for i in range(_COST_CACHE_MAX):
            state.cost_cache_put(i, float(i))
        state.cost_cache_put("overflow", 1.0)
        assert state.cost_cache_get(0) is None
        assert state.cost_cache_get("overflow") == 1.0

    def test_no_stale_cost_after_mutation(self, state):
        """The memoized Eq. 6 total must not survive a contention change."""
        model = CostModel()
        nodes = np.arange(2, 6)  # spans leaves 0 and 1
        state.allocate(1, nodes, JobKind.COMM)
        quiet = model.allocation_cost(state, nodes, RecursiveDoubling())
        state.allocate(2, [0, 1], JobKind.COMM)  # more contention on leaf 0
        noisy = model.allocation_cost(state, nodes, RecursiveDoubling())
        assert noisy > quiet
        state.release(2)
        assert model.allocation_cost(state, nodes, RecursiveDoubling()) == quiet


class TestCopyIsolation:
    def test_copy_starts_cold_and_does_not_leak(self, state):
        model = CostModel()
        nodes = np.arange(2, 6)  # spans leaves 0 and 1
        state.allocate(1, nodes, JobKind.COMM)
        base_cost = model.allocation_cost(state, nodes, RecursiveDoubling())
        clone = state.copy()
        assert clone.version == state.version
        clone.allocate(2, [0, 1], JobKind.COMM)
        clone_cost = model.allocation_cost(clone, nodes, RecursiveDoubling())
        assert clone_cost > base_cost
        # the base's cached entry is untouched and still correct
        assert model.allocation_cost(state, nodes, RecursiveDoubling()) == base_cost

    def test_shares_through_copy_are_independent(self, state):
        state.allocate(1, [0, 1], JobKind.COMM)
        state.leaf_comm_share()
        clone = state.copy()
        clone.allocate(2, [2, 3], JobKind.COMM)
        assert state.leaf_comm_share()[0] == 0.5
        assert clone.leaf_comm_share()[0] == 1.0


class TestCommOverlay:
    @given(priced_scenarios(), st.sampled_from(allocator_names()),
           st.booleans(), st.sampled_from(PRICED_PATTERNS))
    @settings(max_examples=150, deadline=None)
    def test_overlay_prices_like_copy_allocate(self, scenario, name, comm, pattern):
        """The engine prices the chosen placement and the default
        counterfactual on pre-allocation overlays (and reuses the chosen
        prices when the two placements coincide). Each overlay price
        must equal the full snapshot-allocate-price it replaces."""
        state, request = scenario
        job = (
            make_comm_job(job_id=7, nodes=request, pattern=pattern)
            if comm
            else make_compute_job(job_id=7, nodes=request)
        )
        model = CostModel()
        chosen = get_allocator(name).allocate(state, job)
        default = DefaultSlurmAllocator().allocate(state, job)
        for nodes in (chosen, default):
            view = state.comm_overlay(nodes, job.kind, validate=False)
            trial = state.copy()
            trial.allocate(job.job_id, nodes, job.kind)
            assert model.allocation_cost(view, nodes, pattern) == (
                model.allocation_cost(trial, nodes, pattern)
            )

    def test_compute_overlay_adds_no_contention(self, state):
        view = state.comm_overlay([0, 1], JobKind.COMPUTE)
        assert view.leaf_comm.tolist() == state.leaf_comm.tolist()

    def test_validation_mirrors_allocate(self, state):
        state.allocate(1, [0], JobKind.COMPUTE)
        with pytest.raises(ValueError, match="duplicate"):
            state.comm_overlay([1, 1], JobKind.COMM)
        with pytest.raises(ValueError, match="busy"):
            state.comm_overlay([0], JobKind.COMM)
        with pytest.raises(ValueError, match="out of range"):
            state.comm_overlay([999], JobKind.COMM)
        with pytest.raises(ValueError, match="at least one"):
            state.comm_overlay([], JobKind.COMM)

    def test_shares_base_cache_while_unmutated(self, state):
        model = CostModel()
        nodes = np.arange(4, 8)
        first = state.comm_overlay(nodes, JobKind.COMM)
        cost = model.allocation_cost(first, nodes, RecursiveDoubling())
        # a second overlay over the same hypothetical hits the shared entry
        second = state.comm_overlay(nodes, JobKind.COMM)
        key = (CostModel(), RecursiveDoubling(), nodes.size, nodes.tobytes())
        assert second.cost_cache_get(key) == cost

    def test_stale_overlay_does_not_write_base_cache(self, state):
        model = CostModel()
        nodes = np.arange(4, 8)
        view = state.comm_overlay(nodes, JobKind.COMM)
        state.allocate(1, [0, 1], JobKind.COMM)  # base moves on
        entries_before = dict(state._cost_cache)
        cost = model.allocation_cost(view, nodes, RecursiveDoubling())
        assert dict(state._cost_cache) == entries_before
        # the view's captured counters predate the mutation, so its price
        # matches a snapshot taken at capture time
        frozen = ClusterState(state.topology)
        frozen.allocate(99, nodes, JobKind.COMM)
        assert cost == model.allocation_cost(frozen, nodes, RecursiveDoubling())

    def test_exported_from_package(self):
        assert CommOverlay is not None
