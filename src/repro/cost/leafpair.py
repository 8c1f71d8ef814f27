"""Leaf-pair Eq. 6 kernel — the per-node-pair evaluation, aggregated.

Eq. 4 distance and the Eq. 2/3 contention factor depend only on the
*leaf switches* of a communicating node pair, never on the node ids
themselves (intra-node pairs are the one exception: they cost 0 and are
dropped up front). A collective step's ``max`` over its node pairs is
therefore the max over the step's *unique leaf pairs* — O(L²) work per
step instead of O(P), where P reaches 10⁸ pair evaluations per run at
Mira scale (136 leaves → at most 9k canonical leaf pairs).

Two layers make repeated evaluations cheap:

* the rank-pair → unique-leaf-pair reduction is state-independent, so it
  is cached per ``(pattern, nranks, leaf runs)`` — the adaptive
  allocator and the engine price the same allocation several times per
  job start. Its build samples one rank per constant stretch of the
  rank→leaf map for the XOR-exchange patterns at large power-of-two
  sizes (:func:`_sampled_build`), and dedups every rank pair otherwise
  (:func:`_generic_build`); both give the same arrays;
* the per-leaf contention-share vector and finished Eq. 6 totals are
  cached on the state against its version counter
  (:meth:`repro.cluster.state.ClusterState.leaf_comm_share` /
  ``cost_cache_get``), so pricing an unchanged state is a dict hit.

The kernel mirrors the scalar arithmetic of
:func:`repro.cost.contention.contention_factor` exactly (same operation
order), so results are bit-identical to the per-pair path — property
tests assert equality, not closeness.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple, Union

import numpy as np

from ..patterns.base import CommunicationPattern
from .contention import ContentionModel

__all__ = ["leaf_pair_cost", "clear_leaf_pair_cache"]

#: cached (pattern, nranks, leaf runs[, node ids]) -> the flat reduction
#: of :func:`_leaf_pair_flat`. An allocation's key holds its run
#: boundaries and run leaves — a few hundred bytes even at 16,384
#: ranks, where the whole rank→leaf map would be 128 KB. Values hold at
#: most one entry per (step, leaf pair) actually used, typically a few
#: KB. Long traces touch tens of thousands of layouts, so the cap is
#: large.
_LEAF_FLAT_CACHE: "OrderedDict[Tuple, Optional[Tuple]]" = OrderedDict()
_LEAF_FLAT_CACHE_MAX = 8192

#: cached (pattern, nranks, sampled) -> step plan: per-step XOR
#: distances for the run-sampled build, or every step's inter-rank
#: pairs concatenated with a step id per pair for the generic build
_STEP_PLAN_CACHE: "OrderedDict[Tuple, Optional[Union[np.ndarray, Tuple]]]" = (
    OrderedDict()
)
_STEP_PLAN_CACHE_MAX = 128

#: smallest allocation the run-sampled build prices. It costs a fixed
#: numpy overhead plus O(steps · runs log runs), the generic build
#: O(P log P); at the few runs real allocations have, the sampled build
#: loses at 512 ranks and wins from 1,024 (build micro-bench:
#: ``benchmarks/run_bench.py --leafpair-build``).
_SAMPLED_MIN_RANKS = 1024


def clear_leaf_pair_cache() -> None:
    """Drop all cached leaf-pair reductions (tests and cold benchmarks)."""
    _LEAF_FLAT_CACHE.clear()
    _STEP_PLAN_CACHE.clear()


def _xor_distances(steps: Tuple, nranks: int) -> Optional[np.ndarray]:
    """Per-step distances ``d`` when every step pairs exactly
    ``{(r, r ^ d) : r & d == 0}`` with ``d`` a power of two, else ``None``."""
    if nranks < 2 or nranks & (nranks - 1):
        return None
    ranks = np.arange(nranks, dtype=np.int64)
    dists = []
    for step in steps:
        d = int(step.pairs[0, 1] - step.pairs[0, 0]) if step.n_pairs else 0
        if d <= 0 or d & (d - 1):
            return None
        low = ranks[(ranks & d) == 0]
        if not np.array_equal(step.pairs, np.column_stack((low, low + d))):
            return None
        dists.append(d)
    return np.asarray(dists, dtype=np.int64)


def _step_plan(
    pattern: CommunicationPattern, steps: Tuple, nranks: int, sampled: bool
) -> Optional[Union[np.ndarray, Tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """State- and layout-independent half of the flat build.

    With ``sampled``, the per-step XOR distances when the pattern has
    that shape; otherwise all steps' inter-rank pairs concatenated,
    ``(src, dst, step id)``, or ``None`` when no step has one. Cached
    per ``(pattern, nranks, sampled)`` and shared by every allocation.
    """
    key = (pattern, nranks, sampled)
    cached = _STEP_PLAN_CACHE.get(key, _STEP_PLAN_CACHE)
    if cached is not _STEP_PLAN_CACHE:
        _STEP_PLAN_CACHE.move_to_end(key)
        return cached
    plan = _xor_distances(steps, nranks) if sampled else None
    if plan is None:
        pairs = [st.pairs[st.pairs[:, 0] != st.pairs[:, 1]] for st in steps]
        counts = [len(p) for p in pairs]
        if any(counts):
            plan = (
                np.concatenate([p[:, 0] for p in pairs]),
                np.concatenate([p[:, 1] for p in pairs]),
                np.repeat(np.arange(len(pairs), dtype=np.int64), counts),
            )
    if len(_STEP_PLAN_CACHE) >= _STEP_PLAN_CACHE_MAX:
        _STEP_PLAN_CACHE.popitem(last=False)
    _STEP_PLAN_CACHE[key] = plan
    return plan


def _dedup(
    la: np.ndarray, lb: np.ndarray, sid: np.ndarray, n_leaves: int
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, Tuple[int, ...]]]:
    """Unique canonical ``(step, lo leaf, hi leaf)`` triples, grouped by
    step in the flat form; ``None`` when there are none.

    Sort plus neighbour compare gives ``np.unique``'s sorted values;
    numpy ≥ 2.3's hash-based ``np.unique`` is several times slower here.
    """
    if la.size == 0:
        return None
    n_codes = n_leaves * n_leaves
    codes = np.sort(
        sid * n_codes + np.minimum(la, lb) * n_leaves + np.maximum(la, lb)
    )
    ucodes = codes[np.concatenate(([True], codes[1:] != codes[:-1]))]
    step_of = ucodes // n_codes
    rem = ucodes - step_of * n_codes
    offsets = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.flatnonzero(np.diff(step_of)) + 1)
    )
    return rem // n_leaves, rem % n_leaves, offsets, tuple(step_of[offsets].tolist())


def _generic_build(
    plan: Tuple[np.ndarray, np.ndarray, np.ndarray],
    leaf_assign: np.ndarray,
    n_leaves: int,
    node_arr: np.ndarray,
    unique_nodes: bool,
) -> Optional[Tuple]:
    """Flat reduction from every rank pair of ``plan``: O(P log P).

    Layouts that repeat node ids also drop the pairs whose two ranks
    share a node (intra-node, cost 0).
    """
    src, dst, sid = plan
    if not unique_nodes:
        keep = node_arr[src] != node_arr[dst]
        src, dst, sid = src[keep], dst[keep], sid[keep]
    return _dedup(leaf_assign[src], leaf_assign[dst], sid, n_leaves)


def _sampled_build(
    dists: np.ndarray, leaf_assign: np.ndarray, starts: np.ndarray, n_leaves: int
) -> Optional[Tuple]:
    """Flat reduction of XOR steps from the run starts:
    O(steps · runs log runs).

    At distance ``d``, ``leaf(r)`` and ``leaf(r + d)`` are both constant
    between consecutive breakpoints ``{0} ∪ starts ∪ (starts − d)``, so
    one rank with ``r & d == 0`` per interval (the first, when the
    interval holds one) yields every leaf pair the step has. All steps
    are sampled at once as rows of an ``(S, 2·runs + 1)`` array.
    """
    d = dists[:, None]
    bp = np.concatenate(
        (
            np.zeros_like(d),
            np.broadcast_to(starts, (d.shape[0], starts.size)),
            np.maximum(starts - d, 0),
        ),
        axis=1,
    )
    bp.sort(axis=1)
    nxt = np.concatenate((bp[:, 1:], np.full_like(d, leaf_assign.size)), axis=1)
    first = np.where(bp & d, (bp | (d - 1)) + 1, bp)
    ok = first < nxt
    sid = np.repeat(np.arange(dists.size), ok.sum(axis=1))
    return _dedup(
        leaf_assign[first[ok]], leaf_assign[(first + d)[ok]], sid, n_leaves
    )


def _leaf_pair_flat(
    pattern: CommunicationPattern,
    steps: Tuple,
    node_arr: np.ndarray,
    leaf_assign: np.ndarray,
    n_leaves: int,
    unique_nodes: bool,
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, Tuple[int, ...]]]:
    """Concatenated ``(ula, ulb, segment offsets, step index per segment)``.

    A per-step evaluation launches ~15 numpy kernels per step on arrays
    of a few dozen pairs — call overhead, not arithmetic, dominates.
    Flattening every non-empty step into one pair array lets the whole
    cost evaluate in a single batch with a ``maximum.reduceat``
    per-segment max. Returns ``None`` when no step carries an
    inter-node pair (cost 0).

    The result depends only on the leaf runs (for layouts that repeat
    node ids, also on which ranks share a node), so it is cached under
    them. Unique-node allocations of at least ``_SAMPLED_MIN_RANKS``
    XOR-exchange ranks take the run-sampled build; everything else the
    generic one.
    """
    nranks = leaf_assign.size
    # last rank of every run but the final one, with each run's leaf
    ends = np.flatnonzero(leaf_assign[1:] != leaf_assign[:-1])
    key: Tuple = (
        pattern,
        nranks,
        ends.tobytes(),
        leaf_assign[ends].tobytes(),
        int(leaf_assign[-1]),
    )
    if not unique_nodes:
        key += (node_arr.tobytes(),)
    cached = _LEAF_FLAT_CACHE.get(key, _LEAF_FLAT_CACHE)
    if cached is not _LEAF_FLAT_CACHE:
        _LEAF_FLAT_CACHE.move_to_end(key)
        return cached
    plan = _step_plan(
        pattern, steps, nranks, unique_nodes and nranks >= _SAMPLED_MIN_RANKS
    )
    if plan is None:
        flat = None
    elif isinstance(plan, np.ndarray):
        flat = _sampled_build(plan, leaf_assign, ends + 1, n_leaves)
    else:
        flat = _generic_build(plan, leaf_assign, n_leaves, node_arr, unique_nodes)
    if len(_LEAF_FLAT_CACHE) >= _LEAF_FLAT_CACHE_MAX:
        _LEAF_FLAT_CACHE.popitem(last=False)
    _LEAF_FLAT_CACHE[key] = flat
    return flat


def leaf_pair_cost(
    view,
    node_arr: np.ndarray,
    pattern: CommunicationPattern,
    steps: Tuple,
    contention: ContentionModel,
    weight_by_msize: bool,
    unique_nodes: bool = True,
) -> float:
    """Eq. 6 total of ``pattern`` on ``node_arr`` under ``view``.

    ``view`` is a :class:`~repro.cluster.state.ClusterState` or
    :class:`~repro.cluster.state.CommOverlay` — anything exposing
    ``topology``, ``leaf_comm`` and ``leaf_comm_share()``. Pass
    ``unique_nodes=False`` for rank layouts that place several ranks on
    one node, so intra-node pairs are recognised by node id rather than
    by rank.
    """
    topo = view.topology
    leaf_assign = topo.leaf_of_node[node_arr]
    lca_levels = topo.leaf_lca_levels()
    share = view.leaf_comm_share()
    comm = view.leaf_comm
    sizes = topo.leaf_sizes
    flat = _leaf_pair_flat(
        pattern, steps, node_arr, leaf_assign, topo.n_leaves, unique_nodes
    )
    if flat is None:
        return 0.0
    ula, ulb, offsets, seg_idx = flat
    lvl = lca_levels[ula, ulb]
    share_a = share[ula]
    share_b = share[ulb]
    if contention.per_level:
        weight = contention.shared_weight(lvl)
    else:
        weight = contention.uplink_discount
    # mirror contention_factor() operation-for-operation; reduceat takes
    # each segment's exact max, and the final accumulation walks
    # segments in step order, so the result is bit-identical to a
    # per-step evaluation of the same pairs.
    cross = share_a + share_b + weight * (comm[ula] + comm[ulb]) / (
        sizes[ula] + sizes[ulb]
    )
    c = np.where(ula == ulb, share_a, cross)
    worst = np.maximum.reduceat(2 * lvl * (1.0 + c), offsets)
    total = 0.0
    for k, i in enumerate(seg_idx):
        step = steps[i]
        step_weight = step.msize if weight_by_msize else 1.0
        total += float(worst[k]) * step_weight * step.repeat
    return total
