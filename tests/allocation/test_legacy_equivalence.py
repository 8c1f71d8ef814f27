"""Vectorized allocator fast paths agree with their legacy loops exactly.

The PR 4 inner-loop vectorizations (cumsum chunk selection, batched
switch search, one-scan node gathering, the node->job index) replaced
per-leaf/per-switch Python loops, which survive as the test-only oracle
in ``tests/reference.py``. These properties pin each fast path to its
loop on random topologies and occupancies — any divergence is a
correctness bug, not a tuning regression, because the engine-level
equivalence suite relies on the oracle *being* the pre-change behavior.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation import allocator_names, get_allocator
from repro.allocation.balanced import balanced_split, balanced_split_reference
from repro.allocation.base import (
    find_lowest_level_switch,
    find_lowest_level_switch_reference,
    gather_nodes,
    ordered_takes,
)
from repro.cluster import ClusterState, JobKind
from repro.topology import tree_from_leaf_sizes

from ..conftest import make_comm_job, make_compute_job
from ..reference import gather_nodes_reference, ordered_takes_reference, reference_mode


@st.composite
def scenarios(draw):
    """Random topology + occupancy + feasible request size."""
    leaf_sizes = draw(
        st.lists(st.integers(min_value=2, max_value=16), min_size=1, max_size=6)
    )
    topo = tree_from_leaf_sizes(leaf_sizes)
    state = ClusterState(topo)
    n = topo.n_nodes
    busy_fraction = draw(st.floats(min_value=0.0, max_value=0.7))
    n_busy = int(n * busy_fraction)
    if n_busy:
        perm = draw(st.permutations(range(n)))
        busy = list(perm)[:n_busy]
        half = len(busy) // 2
        if busy[:half]:
            state.allocate(9001, busy[:half], JobKind.COMM)
        if busy[half:]:
            state.allocate(9002, busy[half:], JobKind.COMPUTE)
    request = draw(st.integers(min_value=1, max_value=state.total_free))
    return state, request


all_allocators = st.sampled_from(allocator_names())
kinds = st.sampled_from(["comm", "compute"])


@given(scenarios(), all_allocators, kinds)
@settings(max_examples=150, deadline=None)
def test_allocators_match_legacy_loops(scenario, name, kind):
    """End-to-end per allocator: fast select == reference select."""
    state, request = scenario
    job = (
        make_comm_job(job_id=1, nodes=request)
        if kind == "comm"
        else make_compute_job(job_id=1, nodes=request)
    )
    fast = get_allocator(name).allocate(state, job)
    with reference_mode():
        slow = get_allocator(name).allocate(state, job)
    assert np.array_equal(fast, slow)


@given(scenarios())
@settings(max_examples=150, deadline=None)
def test_switch_search_matches_reference(scenario):
    state, request = scenario
    fast = find_lowest_level_switch(state, request)
    slow = find_lowest_level_switch_reference(state, request)
    if slow is None:
        assert fast is None
    else:
        assert fast is not None
        assert fast.level == slow.level
        assert fast.leaf_lo == slow.leaf_lo
        assert fast.leaf_hi == slow.leaf_hi


@given(
    st.lists(st.integers(min_value=0, max_value=32), min_size=1, max_size=12),
    st.integers(min_value=0, max_value=200),
)
@settings(max_examples=200, deadline=None)
def test_ordered_takes_matches_fill_loop(free, n_nodes):
    assert (
        ordered_takes(np.asarray(free), n_nodes).tolist()
        == ordered_takes_reference(free, n_nodes).tolist()
    )


@given(
    st.lists(st.integers(min_value=0, max_value=64), min_size=1, max_size=10),
    st.integers(min_value=1, max_value=400),
)
@settings(max_examples=200, deadline=None)
def test_balanced_split_matches_reference(free, n_nodes):
    free_arr = np.asarray(free, dtype=np.int64)
    if int(free_arr.sum()) < n_nodes:
        n_nodes = max(1, int(free_arr.sum()))
    if int(free_arr.sum()) == 0:
        return
    assert np.array_equal(
        balanced_split(free_arr, n_nodes),
        balanced_split_reference(free_arr, n_nodes),
    )


@given(scenarios(), st.data())
@settings(max_examples=150, deadline=None)
def test_gather_nodes_matches_legacy(scenario, data):
    state, request = scenario
    leaves = np.flatnonzero(state.leaf_free > 0)
    if leaves.size == 0:
        return
    order = data.draw(st.permutations(leaves.tolist()))
    takes = []
    remaining = request
    for leaf in order:
        take = data.draw(
            st.integers(min_value=0, max_value=int(state.leaf_free[leaf]))
        )
        take = min(take, remaining)
        takes.append((int(leaf), take))
        remaining -= take
    fast = gather_nodes(state, takes)
    with reference_mode():
        slow = gather_nodes_reference(state, takes)
    assert np.array_equal(fast, slow)


@given(scenarios(), st.data())
@settings(max_examples=100, deadline=None)
def test_jobs_on_matches_legacy_scan(scenario, data):
    state, _ = scenario
    n = state.topology.n_nodes
    probe = data.draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), max_size=20)
    )
    fast = state.jobs_on(probe)
    with reference_mode():
        slow = state.jobs_on(probe)
    assert fast == slow


@given(scenarios())
@settings(max_examples=100, deadline=None)
def test_free_nodes_on_leaf_matches_legacy(scenario):
    state, _ = scenario
    for leaf in range(state.topology.n_leaves):
        fast = state.free_nodes_on_leaf(leaf)
        with reference_mode():
            slow = state.free_nodes_on_leaf(leaf)
        assert np.array_equal(fast, slow)
