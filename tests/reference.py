"""Test-only reference oracle: the loop forms of the vectorized hot paths.

The allocators, the :class:`~repro.cluster.state.ClusterState` mutators,
the conservative-backfill availability profile and the Eq. 6 leaf-pair
kernel each run one vectorized path. The plain loops they were derived
from live here, and the equivalence suites compare the two with ``==``.

:func:`reference_mode` installs every reference with
:func:`unittest.mock.patch.object` for the duration of a ``with`` block:
methods are patched on their class, and functions at every ``repro``
module that binds the name (``from .base import gather_nodes`` makes a
binding of its own). Nothing under ``src/`` knows this module exists.

The references that are public API in ``src/`` are reused, not copied:
:func:`~repro.allocation.base.find_lowest_level_switch_reference`,
:func:`~repro.allocation.balanced.balanced_split_reference`, and
:meth:`~repro.cost.model.CostModel.allocation_cost_pairwise`, which
stands in for the leaf-pair kernel (it evaluates every node pair, so it
shares no reduction code with the kernel).

Two engine shortcuts have no reference here — pricing the chosen nodes
on a pre-allocation overlay, and reusing those prices when the default
placement equals the chosen one. ``tests/cluster/test_caching.py``
pins both directly.
"""

from __future__ import annotations

import sys
from contextlib import ExitStack, contextmanager
from typing import Iterator, List
from unittest.mock import patch

import numpy as np

from repro.allocation import balanced as balanced_module
from repro.allocation import base as base_module
from repro.allocation.adaptive import AdaptiveAllocator, AdaptiveDecision
from repro.allocation.balanced import balanced_split_reference
from repro.allocation.base import AllocationError, find_lowest_level_switch_reference
from repro.allocation.spread import SpreadAllocator
from repro.cluster.job import JobKind
from repro.cluster.state import (
    AVAIL_UP,
    NODE_FREE,
    AllocationRecord,
    ClusterState,
    CommOverlay,
    _KIND_TO_NODE_STATE,
)
from repro.cost import leafpair as leafpair_module
from repro.cost.model import CostModel
from repro.scheduler.conservative import _AvailabilityProfile
from repro.scheduler.queue_policy import iter_running_by_finish

__all__ = ["REFERENCES", "reference_mode"]


# ----------------------------------------------------------------------
# allocation helpers
# ----------------------------------------------------------------------


def ordered_takes_reference(free_ordered, n_nodes: int) -> np.ndarray:
    """Fill leaves in the given order, each up to its free count."""
    takes = np.zeros(len(free_ordered), dtype=np.int64)
    remaining = int(n_nodes)
    for i, free in enumerate(free_ordered):
        if remaining == 0:
            break
        take = min(int(free), remaining)
        takes[i] = take
        remaining -= take
    return takes


def gather_nodes_reference(state: ClusterState, per_leaf) -> np.ndarray:
    """One :meth:`ClusterState.free_nodes_on_leaf` call per take."""
    parts: List[np.ndarray] = []
    for leaf_index, count in per_leaf:
        if count <= 0:
            continue
        parts.append(state.free_nodes_on_leaf(int(leaf_index), int(count)))
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)


def stripe_counts_reference(remaining_free: np.ndarray, n_nodes: int) -> np.ndarray:
    """Round-robin sweeps handing each leaf at most one node per pass."""
    counts = np.zeros(len(remaining_free), dtype=np.int64)
    remaining = n_nodes
    while remaining > 0:
        progressed = False
        for i in range(len(remaining_free)):
            if remaining == 0:
                break
            if counts[i] < remaining_free[i]:
                counts[i] += 1
                remaining -= 1
                progressed = True
        if not progressed:
            raise AllocationError("spread failed to place all nodes")
    return counts


def adaptive_decide_reference(self: AdaptiveAllocator, state, job) -> AdaptiveDecision:
    """Run both allocators in full and price both candidates, always."""
    greedy_nodes = self._greedy.allocate(state, job)
    balanced_nodes = self._balanced.allocate(state, job)
    greedy_cost = self._candidate_cost(state, job, greedy_nodes)
    balanced_cost = self._candidate_cost(state, job, balanced_nodes)
    if job.kind is JobKind.COMM:
        chosen = "greedy" if greedy_cost < balanced_cost else "balanced"
    else:
        chosen = "greedy" if greedy_cost > balanced_cost else "balanced"
    return AdaptiveDecision(
        chosen=chosen,
        greedy_cost=greedy_cost,
        balanced_cost=balanced_cost,
        greedy_nodes=greedy_nodes,
        balanced_nodes=balanced_nodes,
    )


# ----------------------------------------------------------------------
# ClusterState
# ----------------------------------------------------------------------


def _leaf_counts(state: ClusterState, nodes: np.ndarray):
    return np.unique(state.topology.leaf_of_node[nodes], return_counts=True)


def allocate_reference(self: ClusterState, job_id: int, nodes, kind: JobKind) -> AllocationRecord:
    """Per-leaf counter updates from a sorted histogram of the nodes."""
    if job_id in self.running:
        raise ValueError(f"job {job_id} is already running")
    raw = np.asarray([int(n) for n in nodes], dtype=np.int64)
    node_arr = np.unique(raw)
    if node_arr.size != raw.size:
        raise ValueError(f"duplicate node ids in allocation for job {job_id}")
    if node_arr.size == 0:
        raise ValueError("allocation must contain at least one node")
    if node_arr[0] < 0 or node_arr[-1] >= self.topology.n_nodes:
        raise ValueError("node id out of range")
    if np.any(self.node_state[node_arr] != NODE_FREE):
        raise ValueError("nodes already busy")
    if np.any(self.node_avail[node_arr] != AVAIL_UP):
        raise ValueError("nodes unavailable (DOWN/DRAINING)")
    self.node_state[node_arr] = _KIND_TO_NODE_STATE[kind]
    self.node_job[node_arr] = job_id
    leaves, counts = _leaf_counts(self, node_arr)
    self.leaf_free[leaves] -= counts
    if kind is JobKind.COMM:
        self.leaf_comm[leaves] += counts
    elif kind is JobKind.IO:
        self.leaf_io[leaves] += counts
    record = AllocationRecord(job_id=job_id, nodes=node_arr, kind=kind)
    self.running[job_id] = record
    self._invalidate()
    return record


def release_reference(self: ClusterState, job_id: int) -> AllocationRecord:
    """Free one job: UP nodes back to ``leaf_free``, the rest offline."""
    record = self.running.pop(job_id)
    self.node_state[record.nodes] = NODE_FREE
    self.node_job[record.nodes] = -1
    up = record.nodes[self.node_avail[record.nodes] == AVAIL_UP]
    if up.size:
        leaves, counts = _leaf_counts(self, up)
        self.leaf_free[leaves] += counts
    if up.size != record.nodes.size:
        off = record.nodes[self.node_avail[record.nodes] != AVAIL_UP]
        leaves, counts = _leaf_counts(self, off)
        self.leaf_offline[leaves] += counts
    leaves, counts = _leaf_counts(self, record.nodes)
    if record.kind is JobKind.COMM:
        self.leaf_comm[leaves] -= counts
    elif record.kind is JobKind.IO:
        self.leaf_io[leaves] -= counts
    self._invalidate()
    return record


def release_many_reference(self: ClusterState, job_ids) -> List[AllocationRecord]:
    """Sequential :meth:`ClusterState.release` calls after a full lookup."""
    ids = list(job_ids)
    for job_id in ids:
        self.running[job_id]  # KeyError before any mutation
    return [self.release(job_id) for job_id in ids]


def comm_overlay_reference(self: ClusterState, nodes, kind: JobKind, *, validate: bool = True) -> CommOverlay:
    """Always-validated overlay; ``validate`` is ignored on purpose."""
    node_arr = np.asarray(
        list(nodes) if not isinstance(nodes, np.ndarray) else nodes, dtype=np.int64
    )
    if node_arr.ndim != 1 or node_arr.size == 0:
        raise ValueError("overlay must contain at least one node")
    if np.unique(node_arr).size != node_arr.size:
        raise ValueError("duplicate node ids in overlay allocation")
    if node_arr.min() < 0 or node_arr.max() >= self.topology.n_nodes:
        raise ValueError("node id out of range")
    if np.any(self.node_state[node_arr] != NODE_FREE):
        raise ValueError("nodes already busy")
    if np.any(self.node_avail[node_arr] != AVAIL_UP):
        raise ValueError("nodes unavailable (DOWN/DRAINING)")
    leaf_comm = self.leaf_comm.copy()
    if kind is JobKind.COMM:
        leaves, counts = _leaf_counts(self, node_arr)
        leaf_comm[leaves] += counts
    return CommOverlay(self, leaf_comm, (kind.name, node_arr.tobytes()))


def free_nodes_on_leaf_reference(self: ClusterState, leaf_index: int, count=None) -> np.ndarray:
    """Scan the leaf's node range for free, UP nodes."""
    lo = int(self.topology.leaf_node_offset[leaf_index])
    hi = int(self.topology.leaf_node_offset[leaf_index + 1])
    free = np.flatnonzero(
        (self.node_state[lo:hi] == NODE_FREE) & (self.node_avail[lo:hi] == AVAIL_UP)
    ) + lo
    if count is not None:
        if count > free.size:
            raise ValueError(
                f"leaf {leaf_index} has {free.size} free nodes, requested {count}"
            )
        free = free[:count]
    return free.astype(np.int64, copy=False)


def jobs_on_reference(self: ClusterState, nodes) -> List[int]:
    """Scan every running job for a node in ``nodes``."""
    node_arr = self._avail_nodes_arg(nodes)
    hit = np.zeros(self.topology.n_nodes, dtype=bool)
    hit[node_arr] = True
    return sorted(
        job_id for job_id, rec in self.running.items() if hit[rec.nodes].any()
    )


# ----------------------------------------------------------------------
# scheduling and cost
# ----------------------------------------------------------------------


def availability_profile_init_reference(self: _AvailabilityProfile, now: float, free: int, running) -> None:
    """Insert one breakpoint per running job, raising every later segment."""
    self.times = [now]
    self.avail = [free]
    for finish, nodes in iter_running_by_finish(running):
        t = max(finish, now)
        i = self._breakpoint(t)
        for j in range(i, len(self.avail)):
            self.avail[j] += nodes


def leaf_pair_cost_reference(
    view, node_arr, pattern, steps, contention, weight_by_msize, unique_nodes=True
) -> float:
    """Eq. 6 over every node pair (``steps`` are the same cached list)."""
    model = CostModel(weight_by_msize=weight_by_msize, contention=contention)
    return model.allocation_cost_pairwise(view, node_arr, pattern)


#: ``(owner, attribute) -> reference``. A class owner has the attribute
#: patched on the class; a module owner names the defining module of a
#: function, which is patched at every ``repro`` module binding it.
REFERENCES = {
    (base_module, "find_lowest_level_switch"): find_lowest_level_switch_reference,
    (base_module, "gather_nodes"): gather_nodes_reference,
    (base_module, "ordered_takes"): ordered_takes_reference,
    (balanced_module, "balanced_split"): balanced_split_reference,
    (leafpair_module, "leaf_pair_cost"): leaf_pair_cost_reference,
    (SpreadAllocator, "_stripe_counts"): staticmethod(stripe_counts_reference),
    (AdaptiveAllocator, "decide"): adaptive_decide_reference,
    (ClusterState, "allocate"): allocate_reference,
    (ClusterState, "release"): release_reference,
    (ClusterState, "release_many"): release_many_reference,
    (ClusterState, "comm_overlay"): comm_overlay_reference,
    (ClusterState, "free_nodes_on_leaf"): free_nodes_on_leaf_reference,
    (ClusterState, "jobs_on"): jobs_on_reference,
    (ClusterState, "communication_ratio_cached"): lambda self: self.communication_ratio(),
    (ClusterState, "leaf_busy_cached"): lambda self: self.leaf_busy,
    (_AvailabilityProfile, "__init__"): availability_profile_init_reference,
}


@contextmanager
def reference_mode() -> Iterator[None]:
    """Run the enclosed block on the reference implementations."""
    modules = [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
    with ExitStack() as stack:
        for (owner, attr), reference in REFERENCES.items():
            if isinstance(owner, type):
                stack.enter_context(patch.object(owner, attr, reference))
                continue
            production = getattr(owner, attr)
            for module in modules:
                if vars(module).get(attr) is production:
                    stack.enter_context(patch.object(module, attr, reference))
        yield
