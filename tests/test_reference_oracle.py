"""The reference oracle is live: the equivalence suites really use it.

If :func:`~tests.reference.reference_mode` silently failed to install a
reference, every equivalence suite would compare the fast path with
itself and pass. These tests install a deliberately wrong reference and
require one allocator suite and one engine suite to fail on an input
where the true reference passes.
"""

import pytest

from repro.allocation import base as base_module
from repro.allocation import greedy as greedy_module
from repro.cluster import ClusterState, CommComponent, Job, JobKind
from repro.patterns import RecursiveDoubling
from repro.topology import tree_from_leaf_sizes

from . import reference
from .allocation import test_legacy_equivalence as allocator_suite
from .scheduler import test_incremental_equivalence as engine_suite


def reversed_gather(state, per_leaf):
    """A wrong reference: the right nodes in reversed rank order."""
    return reference.gather_nodes_reference(state, per_leaf)[::-1]


@pytest.fixture
def perturb(monkeypatch):
    """Install the wrong ``gather_nodes`` reference for one test."""
    return lambda: monkeypatch.setitem(
        reference.REFERENCES, (base_module, "gather_nodes"), reversed_gather
    )


def test_allocator_suite_fails_on_perturbed_reference(perturb):
    suite = allocator_suite.test_allocators_match_legacy_loops.hypothesis.inner_test
    # 6 nodes on two 4-node leaves: greedy gathers from both leaves
    scenario = (ClusterState(tree_from_leaf_sizes([4, 4])), 6)
    suite(scenario, "greedy", "comm")
    perturb()
    with pytest.raises(AssertionError):
        suite(scenario, "greedy", "comm")


def test_engine_suite_fails_on_perturbed_reference(perturb):
    suite = engine_suite.test_fast_paths_match_legacy_full_pass.hypothesis.inner_test
    topo = tree_from_leaf_sizes([4, 4])
    jobs = [
        Job(1, 0.0, 6, 100.0, JobKind.COMM,
            (CommComponent(RecursiveDoubling(), 0.5),)),
        Job(2, 10.0, 2, 50.0),
    ]
    suite((topo, jobs), "backfill", "greedy")
    perturb()
    with pytest.raises(AssertionError):
        suite((topo, jobs), "backfill", "greedy")


def test_reference_mode_patches_every_binding_and_restores():
    production = base_module.gather_nodes
    with reference.reference_mode():
        assert base_module.gather_nodes is reference.gather_nodes_reference
        assert greedy_module.gather_nodes is reference.gather_nodes_reference
        assert ClusterState.release is reference.release_reference
    assert base_module.gather_nodes is production
    assert greedy_module.gather_nodes is production
    assert ClusterState.release is not reference.release_reference

