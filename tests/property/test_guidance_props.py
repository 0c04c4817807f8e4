"""Property tests (hypothesis): future-cost guidance maps.

The corridor-pruning proof in :mod:`repro.router.guidance` rests on two
facts about the map ``d``:

* **exactness** — ``d(n)`` is the true cheapest cost-to-go from ``n`` to
  any target under the forward search's edge weights (``step`` plus the
  folded cost of every cell *entered*), hence admissible;
* **consistency** — ``d(u) <= w(u, v) + d(v)`` for every legal move,
  which makes the pruned class closed under relaxation.

Both are pinned here against a scalar reference Dijkstra over the same
window graph, across randomized shapes, blockage masks, cost grids,
direction assignments, and wrong-way settings.
"""

import heapq
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.router.guidance import (
    PRUNE_EPS,
    future_cost_map,
    prune_threshold,
)

INF = float("inf")


# ---------------------------------------------------------------------- #
# scalar reference: backward multi-source Dijkstra over the window graph
# ---------------------------------------------------------------------- #


def _moves(num_layers, wx, wy, horizontal, alpha, beta, wrong_way):
    """Yield every legal forward move ``(u, v, step)`` of the window."""
    for layer in range(num_layers):
        pref_x = horizontal[layer]
        ww = alpha * wrong_way
        for x in range(wx):
            for y in range(wy):
                u = (layer, x, y)
                if x + 1 < wx:
                    step = alpha if pref_x else ww
                    if pref_x or wrong_way:
                        yield u, (layer, x + 1, y), step
                        yield (layer, x + 1, y), u, step
                if y + 1 < wy:
                    step = ww if pref_x else alpha
                    if (not pref_x) or wrong_way:
                        yield u, (layer, x, y + 1), step
                        yield (layer, x, y + 1), u, step
                if layer + 1 < num_layers:
                    yield u, (layer + 1, x, y), beta
                    yield (layer + 1, x, y), u, beta


def _reference_map(passable, cost, horizontal, alpha, beta, wrong_way, targets):
    """Cost-to-go by textbook Dijkstra on the reversed window graph.

    Edge ``u -> v`` costs ``step + cost[v]`` (the forward search pays the
    folded cost of every cell it enters); the distance of impassable
    cells is ``inf`` by definition.
    """
    num_layers, wx, wy = passable.shape
    adj = {}  # v -> [(u, w(u, v))]: forward predecessors
    for u, v, step in _moves(
        num_layers, wx, wy, horizontal, alpha, beta, wrong_way
    ):
        if passable[v]:
            adj.setdefault(v, []).append((u, step + cost[v]))
    dist = np.full(passable.shape, INF)
    heap = []
    for t in zip(*np.nonzero(targets)):
        dist[t] = 0.0
        heap.append((0.0, t))
    heapq.heapify(heap)
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for u, w in adj.get(v, ()):
            nd = d + w
            if nd < dist[u]:
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    dist[~passable] = INF
    return dist


# ---------------------------------------------------------------------- #
# strategies
# ---------------------------------------------------------------------- #


@st.composite
def windows(draw):
    num_layers = draw(st.integers(min_value=1, max_value=3))
    wx = draw(st.integers(min_value=2, max_value=7))
    wy = draw(st.integers(min_value=2, max_value=7))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    passable = rng.random((num_layers, wx, wy)) > 0.25
    cost = np.where(
        rng.random((num_layers, wx, wy)) < 0.4,
        0.0,
        np.round(rng.random((num_layers, wx, wy)) * 5.0, 3),
    )
    free = np.argwhere(passable)
    targets = np.zeros(passable.shape, dtype=bool)
    if len(free):
        n_targets = draw(st.integers(min_value=1, max_value=min(3, len(free))))
        for row in free[rng.choice(len(free), size=n_targets, replace=False)]:
            targets[tuple(row)] = True
    horizontal = tuple(draw(st.booleans()) for _ in range(num_layers))
    alpha = draw(st.sampled_from([1.0, 1.5]))
    beta = draw(st.sampled_from([2.0, 4.0]))
    wrong_way = draw(st.sampled_from([0.0, 2.0]))
    return passable, cost, horizontal, alpha, beta, wrong_way, targets


# ---------------------------------------------------------------------- #
# exactness (=> admissibility) against the scalar reference
# ---------------------------------------------------------------------- #


@given(windows())
@settings(max_examples=60, deadline=None)
def test_map_equals_reference_dijkstra(window):
    passable, cost, horizontal, alpha, beta, wrong_way, targets = window
    d = future_cost_map(
        passable, cost, horizontal, alpha, beta, wrong_way, targets
    )
    if not targets.any():
        assert d is None
        return
    assert d is not None
    ref = _reference_map(
        passable, cost, horizontal, alpha, beta, wrong_way, targets
    )
    assert np.allclose(d, ref, rtol=1e-12, atol=1e-12, equal_nan=False), (
        "map diverged from reference Dijkstra"
    )
    # inf exactly where the reference is inf (unreachable / impassable)
    assert np.array_equal(np.isinf(d), np.isinf(ref))


# ---------------------------------------------------------------------- #
# consistency: the property the pruning-closure proof actually uses
# ---------------------------------------------------------------------- #


@given(windows())
@settings(max_examples=40, deadline=None)
def test_map_is_consistent(window):
    passable, cost, horizontal, alpha, beta, wrong_way, targets = window
    d = future_cost_map(
        passable, cost, horizontal, alpha, beta, wrong_way, targets
    )
    if d is None:
        return
    num_layers, wx, wy = passable.shape
    for u, v, step in _moves(
        num_layers, wx, wy, horizontal, alpha, beta, wrong_way
    ):
        if not (passable[u] and passable[v]):
            continue
        w = step + cost[v]
        if math.isinf(d[v]):
            continue
        assert d[u] <= w + d[v] + 1e-9, (
            f"consistency violated at {u} -> {v}: "
            f"d(u)={d[u]} > {w} + d(v)={d[v]}"
        )
    # targets sit at the bottom: zero cost-to-go
    assert (d[targets] == 0.0).all()


# ---------------------------------------------------------------------- #
# degenerate windows and the corridor bound itself
# ---------------------------------------------------------------------- #


def test_degenerate_windows_return_none():
    passable = np.ones((2, 1, 5), dtype=bool)
    targets = np.zeros_like(passable)
    targets[0, 0, 0] = True
    cost = np.zeros(passable.shape)
    assert (
        future_cost_map(passable, cost, (True, False), 1.0, 4.0, 0.0, targets)
        is None
    )
    passable = np.ones((2, 5, 5), dtype=bool)
    no_targets = np.zeros_like(passable)
    assert (
        future_cost_map(
            passable, np.zeros(passable.shape), (True, False), 1.0, 4.0, 0.0,
            no_targets,
        )
        is None
    )


@given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
def test_prune_threshold_pads_upward(total):
    thr = prune_threshold(total)
    assert thr > total
    assert thr - total >= PRUNE_EPS
    # the pad stays tiny relative to any genuine cost difference
    # float cancellation in (thr - total) can add up to ~ulp(total)
    assert thr - total <= 2 * (PRUNE_EPS + 1e-9 * total)
