"""Property tests: the leaf-pair Eq. 6 kernel matches the per-pair path.

The kernel (:mod:`repro.cost.leafpair`) takes each step's max over
unique leaf pairs instead of node pairs; because it mirrors the scalar
arithmetic of :func:`repro.cost.contention.contention_factor`
operation-for-operation, the two evaluations must agree *bitwise* —
every assertion here is ``==``, never ``approx``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation import get_allocator
from repro.cluster import ClusterState, CommComponent, Job, JobKind
from repro.cost import CostModel, clear_leaf_pair_cache, leafpair
from repro.cost.contention import ContentionModel
from repro.cost.hops import effective_hops_scalar
from repro.cost.model import _cached_steps
from repro.patterns import get_pattern, pattern_names
from repro.topology import mira_like, tree_from_leaf_sizes
from repro.topology.random import random_tree

#: the paper's model plus §7 generalizations, including per-level decay
CONTENTION_MODELS = (
    ContentionModel(),
    ContentionModel(uplink_discount=1.0),
    ContentionModel(uplink_discount=0.5, per_level=True),
    ContentionModel(uplink_discount=0.25, per_level=True),
)


def eq6_per_pair_scalar(state, node_arr, pattern, model):
    """Literal Eq. 6 via the scalar Eq. 5 reference, one pair at a time."""
    total = 0.0
    for step in _cached_steps(pattern, int(len(node_arr))):
        if step.n_pairs == 0:
            continue
        worst = max(
            effective_hops_scalar(
                state, int(node_arr[a]), int(node_arr[b]), model.contention
            )
            for a, b in step.pairs
        )
        weight = step.msize if model.weight_by_msize else 1.0
        total += worst * weight * step.repeat
    return total


@st.composite
def occupied_states(draw):
    """A random small topology with a random comm/compute occupancy."""
    leaf_sizes = draw(
        st.lists(st.integers(min_value=2, max_value=8), min_size=2, max_size=5)
    )
    topo = tree_from_leaf_sizes(leaf_sizes)
    state = ClusterState(topo)
    n = topo.n_nodes
    kinds = draw(st.lists(st.sampled_from([0, 1, 2]), min_size=n, max_size=n))
    comm_nodes = [i for i, k in enumerate(kinds) if k == 2]
    compute_nodes = [i for i, k in enumerate(kinds) if k == 1]
    if comm_nodes:
        state.allocate(1, comm_nodes, JobKind.COMM)
    if compute_nodes:
        state.allocate(2, compute_nodes, JobKind.COMPUTE)
    return state


@st.composite
def deep_occupied_states(draw):
    """A random 3-level tree with a random comm occupancy (exercises
    per-level contention, where LCA depth matters)."""
    topo = random_tree(draw(st.integers(min_value=0, max_value=50)))
    state = ClusterState(topo)
    n = topo.n_nodes
    n_comm = draw(st.integers(min_value=0, max_value=n))
    if n_comm:
        perm = draw(st.permutations(range(n)))
        state.allocate(1, sorted(perm[:n_comm]), JobKind.COMM)
    return state


@given(
    occupied_states(),
    st.sampled_from(pattern_names()),
    st.sampled_from(CONTENTION_MODELS),
    st.booleans(),
    st.data(),
)
@settings(max_examples=120, deadline=None)
def test_kernel_matches_pairwise_reference(state, pattern_name, contention, by_msize, data):
    n = state.topology.n_nodes
    take = data.draw(st.integers(min_value=2, max_value=min(n, 16)))
    perm = data.draw(st.permutations(range(n)))
    nodes = np.asarray(perm[:take], dtype=np.int64)
    pattern = get_pattern(pattern_name)
    model = CostModel(weight_by_msize=by_msize, contention=contention)
    clear_leaf_pair_cache()
    kernel = model.allocation_cost(state, nodes, pattern)
    assert kernel == model.allocation_cost_pairwise(state, nodes, pattern)


@given(
    occupied_states(),
    st.sampled_from(["rd", "rhvd", "binomial", "ring"]),
    st.sampled_from(CONTENTION_MODELS),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_kernel_matches_scalar_reference(state, pattern_name, contention, data):
    n = state.topology.n_nodes
    take = data.draw(st.integers(min_value=2, max_value=min(n, 10)))
    perm = data.draw(st.permutations(range(n)))
    nodes = np.asarray(perm[:take], dtype=np.int64)
    pattern = get_pattern(pattern_name)
    model = CostModel(contention=contention)
    assert model.allocation_cost(state, nodes, pattern) == eq6_per_pair_scalar(
        state, nodes, pattern, model
    )


@given(
    deep_occupied_states(),
    st.sampled_from(["rd", "rhvd", "alltoall", "stencil2d"]),
    st.sampled_from(CONTENTION_MODELS),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_kernel_matches_pairwise_on_deep_trees(state, pattern_name, contention, data):
    n = state.topology.n_nodes
    if n < 2:
        return
    take = data.draw(st.integers(min_value=2, max_value=min(n, 16)))
    perm = data.draw(st.permutations(range(n)))
    nodes = np.asarray(perm[:take], dtype=np.int64)
    pattern = get_pattern(pattern_name)
    model = CostModel(contention=contention)
    assert model.allocation_cost(state, nodes, pattern) == (
        model.allocation_cost_pairwise(state, nodes, pattern)
    )


@given(
    occupied_states(),
    st.sampled_from(["rd", "rhvd", "binomial", "ring"]),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_kernel_matches_pairwise_with_repeated_nodes(state, pattern_name, data):
    """srun-style rank layouts repeat node ids (several ranks per node);
    the kernel must price intra-node pairs at 0 exactly like the
    per-pair path does."""
    n = state.topology.n_nodes
    nranks = data.draw(st.integers(min_value=2, max_value=min(2 * n, 16)))
    nodes = np.asarray(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=nranks,
                max_size=nranks,
            )
        ),
        dtype=np.int64,
    )
    pattern = get_pattern(pattern_name)
    model = CostModel()
    clear_leaf_pair_cache()
    kernel = model.allocation_cost(state, nodes, pattern)
    assert kernel == model.allocation_cost_pairwise(state, nodes, pattern)
    assert kernel == eq6_per_pair_scalar(state, nodes, pattern, model)


@given(occupied_states(), st.sampled_from(["rd", "rhvd"]), st.data())
@settings(max_examples=40, deadline=None)
def test_layout_and_leaf_cache_keys_do_not_collide(state, pattern_name, data):
    """A duplicated layout and a unique allocation that share a leaf
    assignment must not read each other's cached reduction."""
    n = state.topology.n_nodes
    node = data.draw(st.integers(min_value=0, max_value=n - 1))
    pattern = get_pattern(pattern_name)
    model = CostModel()
    clear_leaf_pair_cache()
    # all ranks on one node: every pair intra-node, cost exactly 0
    layout = np.full(4, node, dtype=np.int64)
    assert model.allocation_cost(state, layout, pattern) == 0.0
    # distinct nodes (some sharing the leaf) must still be priced > 0
    others = [i for i in range(n) if i != node][:3]
    alloc = np.asarray([node] + others, dtype=np.int64)
    assert model.allocation_cost(state, alloc, pattern) == (
        model.allocation_cost_pairwise(state, alloc, pattern)
    )
    # run-length keys: equal run starts over different run leaves, and
    # equal run leaves over different run starts, are distinct layouts
    topo = state.topology
    a, b = topo.leaf_nodes(0), topo.leaf_nodes(1)
    same_starts = ([a[0], a[1], b[0]], [b[0], b[1], a[0]])
    same_leaves = ([a[0], b[0], b[1]], [a[0], a[1], b[0]])
    for first, second in (same_starts, same_leaves):
        clear_leaf_pair_cache()
        for nodes in (first, second):
            nodes = np.asarray(nodes, dtype=np.int64)
            assert model.allocation_cost(state, nodes, pattern) == (
                model.allocation_cost_pairwise(state, nodes, pattern)
            )


# ----------------------------------------------------------------------
# run-sampled build (XOR-exchange patterns) against the generic build
# ----------------------------------------------------------------------

#: leaves of the Mira shape, the largest the ledger prices
MIRA_LEAVES = 136


@st.composite
def run_layouts(draw):
    """A power-of-two rank→leaf map of 1–136 leaf runs, on both sides of
    the sampled build's crossover, with the runs in leaf order or not."""
    nranks = 1 << draw(st.integers(min_value=1, max_value=14))
    runs = draw(st.integers(min_value=1, max_value=min(136, nranks)))
    cuts = sorted(draw(st.sets(
        st.integers(min_value=1, max_value=nranks - 1),
        min_size=runs - 1, max_size=runs - 1,
    )))
    leaves = draw(st.lists(
        st.integers(min_value=0, max_value=MIRA_LEAVES - 1),
        min_size=runs, max_size=runs,
    ))
    if draw(st.booleans()):
        leaves.sort()
    lengths = np.diff([0] + cuts + [nranks])
    return np.repeat(np.asarray(leaves, dtype=np.int64), lengths)


def assert_same_flat(got, want):
    """``(ula, ulb, offsets)`` equal in dtype and elements, same steps."""
    for g, w in zip(got[:3], want[:3]):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    assert got[3] == want[3]


@given(st.sampled_from(["rd", "rhvd"]), run_layouts())
@settings(max_examples=150, deadline=None)
def test_sampled_build_equals_generic_build(pattern_name, leaf_assign):
    nranks = leaf_assign.size
    pattern = get_pattern(pattern_name)
    steps = _cached_steps(pattern, nranks)
    ranks = np.arange(nranks, dtype=np.int64)
    clear_leaf_pair_cache()
    dists = leafpair._step_plan(pattern, steps, nranks, True)
    pairs = leafpair._step_plan(pattern, steps, nranks, False)
    assert isinstance(dists, np.ndarray) and isinstance(pairs, tuple)
    starts = np.flatnonzero(np.diff(leaf_assign)) + 1
    generic = leafpair._generic_build(pairs, leaf_assign, MIRA_LEAVES, ranks, True)
    assert_same_flat(
        leafpair._sampled_build(dists, leaf_assign, starts, MIRA_LEAVES), generic
    )
    # the cached dispatcher picks a build by size and returns the same
    assert_same_flat(
        leafpair._leaf_pair_flat(
            pattern, steps, ranks, leaf_assign, MIRA_LEAVES, True
        ),
        generic,
    )


@given(
    st.sampled_from(pattern_names()),
    st.integers(min_value=3, max_value=16384),
)
@settings(max_examples=60, deadline=None)
def test_only_power_of_two_xor_plans_are_sampled(pattern_name, nranks):
    """(At two ranks every pattern is one XOR step, so sizes start at 3.)"""
    if pattern_name == "alltoall":
        nranks = min(nranks, 64)  # P - 1 steps of P/2 pairs each
    pattern = get_pattern(pattern_name)
    clear_leaf_pair_cache()
    plan = leafpair._step_plan(
        pattern, _cached_steps(pattern, nranks), nranks, True
    )
    xor = pattern_name in ("rd", "rhvd") and nranks & (nranks - 1) == 0
    assert isinstance(plan, np.ndarray) == xor
    assert isinstance(plan, tuple) == (not xor)


@pytest.fixture(scope="module")
def mira_background():
    """The Mira shape with 40% of its nodes held by comm and compute jobs."""
    state = ClusterState(mira_like())
    rng = np.random.default_rng(16)
    busy = rng.choice(state.topology.n_nodes, size=19584, replace=False)
    state.allocate(9001, busy[:9792], JobKind.COMM)
    state.allocate(9002, busy[9792:], JobKind.COMPUTE)
    return state


@pytest.mark.parametrize(
    "allocator, nranks, pattern_name",
    [
        ("balanced", 2048, "rhvd"),
        ("greedy", 4096, "rd"),
        ("default", 8192, "rhvd"),
        ("balanced", 16384, "rd"),
        ("greedy", 16384, "rhvd"),
    ],
)
def test_kernel_matches_pairwise_on_mira_allocations(
    mira_background, allocator, nranks, pattern_name
):
    """Mira-scale allocations, priced through the sampled build, equal
    the per-node-pair evaluation, which shares no reduction code."""
    pattern = get_pattern(pattern_name)
    job = Job(1, 0.0, nranks, 3600.0, JobKind.COMM, (CommComponent(pattern, 0.7),))
    state = mira_background.copy()
    nodes = get_allocator(allocator).allocate(state, job)
    state.allocate(1, nodes, JobKind.COMM)
    model = CostModel()
    clear_leaf_pair_cache()
    cost = model.allocation_cost(state, nodes, pattern)
    assert cost == model.allocation_cost_pairwise(state, nodes, pattern)
    # a shuffled order of the same nodes: many more, unsorted runs; and
    # two ranks per node, which keeps the generic build at this size
    shuffled = np.random.default_rng(nranks).permutation(nodes)
    doubled = np.repeat(nodes[: nranks // 2], 2)
    for layout in (shuffled, doubled):
        assert model.allocation_cost(state, layout, pattern) == (
            model.allocation_cost_pairwise(state, layout, pattern)
        )
