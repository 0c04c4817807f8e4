"""Property-based equivalence tests for the vectorized core engine.

The SoA constraint graph, the batch edge store, the vector scenario
detector, and the bulk grid writes are all pure representation changes:
on any input they must reproduce the object-per-edge reference exactly.
These tests drive randomized inputs through both implementations —
forcing the scalar *and* the wide numpy paths of each — and assert
bit-identical outcomes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ConstraintEdge,
    DetectedScenario,
    EdgeStore,
    OverlayConstraintGraph,
    ScenarioDetector,
    ScenarioType,
    SoAOverlayConstraintGraph,
    VectorScenarioDetector,
)
from repro.core import constraint_graph_soa, scenario_detect
from repro.core.color_flip import brute_force_coloring, flip_colors
from repro.core.edge_store import SCENARIO_ORDER
from repro.errors import ColoringError, GridError
from repro.geometry import Point, Rect, Segment
from repro.grid import CellState, RoutingGrid

NODES = list(range(10))

soft_types = st.sampled_from(
    [
        ScenarioType.T2A,
        ScenarioType.T2B,
        ScenarioType.T3A,
        ScenarioType.T3B,
        ScenarioType.T3C,
        ScenarioType.T3D,
    ]
)
hard_types = st.sampled_from([ScenarioType.T1A, ScenarioType.T1B])
any_types = st.one_of(soft_types, hard_types)

graph_edges = st.lists(
    st.tuples(
        st.sampled_from(NODES), st.sampled_from(NODES), any_types,
        st.booleans(), st.integers(1, 4),
    ).filter(lambda e: e[0] != e[1]),
    min_size=1,
    max_size=12,
)


def _build_pair(edges):
    """The same random edge set in both graph implementations."""
    obj = OverlayConstraintGraph()
    soa = SoAOverlayConstraintGraph()
    obj_off = obj.add_edges(
        ConstraintEdge.from_scenario(u, v, t, tip, ov)
        for u, v, t, tip, ov in edges
    )
    soa_off = soa.add_edges(
        ConstraintEdge.from_scenario(u, v, t, tip, ov)
        for u, v, t, tip, ov in edges
    )
    return obj, soa, obj_off, soa_off


def _dp_total(graph, coloring):
    from repro.color import Color

    return sum(
        e.dp_cost(coloring.get(e.u, Color.CORE), coloring.get(e.v, Color.CORE))
        for e in graph.edges
    )


class TestVectorFlipEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(graph_edges)
    def test_flip_matches_object_graph_and_bruteforce(self, edges):
        """flip_colors over the SoA graph returns the object graph's
        exact coloring, and on graphs of <= 10 units never beats (and on
        forests exactly matches) the brute-force optimum."""
        obj, soa, obj_off, soa_off = _build_pair(edges)
        assert [(e.u, e.v) for e in soa_off] == [(e.u, e.v) for e in obj_off]
        if obj_off:
            with pytest.raises(ColoringError):
                flip_colors(soa)
            return
        obj_colors = flip_colors(obj)
        soa_colors = flip_colors(soa)
        assert soa_colors == obj_colors
        total = _dp_total(soa, soa_colors)
        _, best = brute_force_coloring(soa, sorted(soa.vertices))
        assert total >= best
        assert total == _dp_total(obj, obj_colors)

    @settings(max_examples=50, deadline=None)
    @given(graph_edges)
    def test_scalar_and_numpy_contraction_agree(self, edges):
        """The <=32-net scalar contraction and the numpy contraction are
        interchangeable: forcing either on the same graph yields the
        same flip result."""
        _, soa, _, off = _build_pair(edges)
        if off:
            return
        small = constraint_graph_soa._SMALL
        try:
            constraint_graph_soa._SMALL = 10 ** 9  # always scalar
            scalar_colors = flip_colors(soa)
            constraint_graph_soa._SMALL = -1  # always numpy
            numpy_colors = flip_colors(soa)
        finally:
            constraint_graph_soa._SMALL = small
        assert scalar_colors == numpy_colors

    @settings(max_examples=40, deadline=None)
    @given(graph_edges)
    def test_evaluate_matches_object_graph(self, edges):
        obj, soa, obj_off, _ = _build_pair(edges)
        if obj_off:
            return
        colors = flip_colors(obj)
        ev_obj = obj.evaluate(colors)
        ev_soa = soa.evaluate(colors)
        assert ev_soa.overlay_units == ev_obj.overlay_units
        assert ev_soa.hard_violations == ev_obj.hard_violations
        assert ev_soa.cut_risks == ev_obj.cut_risks


# Hard-heavy edge batches on few nets, so random removals regularly
# split hard components and strand odd-cycle offender rows.
UF_NODES = list(range(7))
uf_batch = st.lists(
    st.tuples(
        st.sampled_from(UF_NODES), st.sampled_from(UF_NODES),
        st.one_of(hard_types, hard_types, soft_types),
        st.booleans(), st.integers(1, 3),
    ).filter(lambda e: e[0] != e[1]),
    min_size=1,
    max_size=5,
)
uf_ops = st.lists(
    st.one_of(
        st.tuples(st.just("scenarios"), uf_batch),
        st.tuples(st.just("edges"), uf_batch),
        st.tuples(st.just("remove"), st.sampled_from(UF_NODES)),
    ),
    min_size=1,
    max_size=30,
)

_RECT = Rect(0, 0, 1, 1)


def _apply_uf_op(obj, soa, op):
    """One mutation on both graphs; returns each graph's result (the
    offenders' endpoints, or the edge count a removal dropped)."""
    kind, arg = op
    if kind == "remove":
        return obj.remove_net(arg), soa.remove_net(arg)
    edges = [ConstraintEdge.from_scenario(*e) for e in arg]
    obj_off = [(e.u, e.v) for e in obj.add_edges(edges)]
    if kind == "edges":
        soa_off = [(e.u, e.v) for e in soa.add_edges(edges)]
    else:
        soa_off = [
            (sc.net_a, sc.net_b)
            for sc in soa.add_scenarios([
                DetectedScenario(0, u, v, t, tip, ov, _RECT, _RECT)
                for u, v, t, tip, ov in arg
            ])
        ]
    return obj_off, soa_off


def _assert_same_hard_state(obj, soa):
    assert soa.has_hard_odd_cycle() == obj.has_hard_odd_cycle()
    for node in UF_NODES:
        assert soa.hard_component_of(node) == obj.hard_component_of(node)


class TestComponentLocalUnionFind:
    """The SoA engine rebuilds only the hard components a removal
    touched; the object engine replays every live hard edge. Both must
    agree on offenders, odd-cycle state and every (root, parity)."""

    @settings(max_examples=150, deadline=None)
    @given(uf_ops)
    def test_random_interleavings_match_object_engine(self, ops):
        obj = OverlayConstraintGraph()
        soa = SoAOverlayConstraintGraph()
        for op in ops:
            got_obj, got_soa = _apply_uf_op(obj, soa, op)
            assert got_soa == got_obj
            _assert_same_hard_state(obj, soa)

    @pytest.mark.parametrize("query_between", [False, True])
    def test_splits_and_stranded_offenders(self, query_between):
        """Removals that split a component, keep offender rows
        offending, and turn a stranded offender into a plain union —
        with and without queries in between (a query runs the deferred
        rebuild early, so removals are batched only without them)."""
        d = ScenarioType.T1A  # hard-different, parity 1
        script = [
            # (op, arg, hard odd cycle afterwards)
            ("edges", [(0, 1, d, True, 1), (1, 2, d, True, 1),
                       (2, 3, d, True, 1), (3, 4, d, True, 1),
                       (4, 5, d, True, 1)], False),
            # 0~2 and 1~3 are already equal-colored: both offend.
            ("scenarios", [(0, 2, d, True, 1), (1, 3, d, True, 1)], True),
            ("remove", 4, True),  # splits off 5; offenders stay
            ("remove", 1, False),  # 0-2 now a plain union, 1-3 dies
            ("scenarios", [(3, 0, d, True, 1), (5, 6, d, True, 1)], True),
            ("remove", 2, False),  # splits 0-2-3; 3-0 now a union
        ]
        obj = OverlayConstraintGraph()
        soa = SoAOverlayConstraintGraph()
        offenders = []
        for kind, arg, odd in script:
            got_obj, got_soa = _apply_uf_op(obj, soa, (kind, arg))
            assert got_soa == got_obj
            if kind != "remove":
                offenders.append(got_obj)
            if query_between:
                _assert_same_hard_state(obj, soa)
            assert soa.has_hard_odd_cycle() is odd
        _assert_same_hard_state(obj, soa)
        assert offenders == [[], [(0, 2), (1, 3)], [(3, 0)]]
        assert soa.hard_component_of(0)[0] == soa.hard_component_of(3)[0]
        assert soa.hard_component_of(5)[0] == soa.hard_component_of(6)[0]
        assert soa.hard_component_of(0)[0] != soa.hard_component_of(5)[0]


scenario_rows = st.lists(
    st.tuples(
        st.sampled_from(NODES), st.sampled_from(NODES),
        st.integers(0, len(SCENARIO_ORDER) - 1),
        st.booleans(), st.integers(1, 4),
    ).filter(lambda r: r[0] != r[1]),
    min_size=1,
    max_size=80,
)


class TestEdgeStoreEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(scenario_rows)
    def test_batch_rows_match_from_scenario(self, rows):
        """Every appended row materializes to exactly the edge
        ``ConstraintEdge.from_scenario`` would build — across the scalar
        (small batch) and numpy (wide batch) fill paths, which this
        exercises by appending the same rows both one at a time and as
        one batch."""
        one = EdgeStore()
        for u, v, s, tip, ov in rows:
            one.append_scenarios([u], [v], [s], [tip], [ov])
        bulk = EdgeStore()
        bulk.append_scenarios(*zip(*rows))
        for store in (one, bulk):
            for i, (u, v, s, tip, ov) in enumerate(rows):
                want = ConstraintEdge.from_scenario(
                    u, v, SCENARIO_ORDER[s], tip, ov
                )
                got = store.materialize(i)
                assert (got.u, got.v) == (u, v)
                assert got.scenario == want.scenario
                assert got.kind == want.kind
                assert got.cost == want.cost
                assert got.cut_risk == want.cut_risk
                if want.kind.is_hard:
                    assert got.parity == want.parity
        np.testing.assert_array_equal(
            one.dp_cost(np.arange(len(rows))),
            bulk.dp_cost(np.arange(len(rows))),
        )

    @settings(max_examples=40, deadline=None)
    @given(scenario_rows)
    def test_lazy_sync_keeps_columns_coherent(self, rows):
        """Interleaving scalar appends with wide consumers (dp_cost
        forces a column sync) never loses or reorders rows."""
        store = EdgeStore()
        for i, (u, v, s, tip, ov) in enumerate(rows):
            store.append_scenarios([u], [v], [s], [tip], [ov])
            if i % 7 == 3:
                store.dp_cost(np.arange(store.size))
        store._sync()
        assert list(store.u[: store.size]) == [r[0] for r in rows]
        assert list(store.v[: store.size]) == [r[1] for r in rows]
        assert list(store.scenario[: store.size]) == [r[2] for r in rows]


coord = st.integers(min_value=0, max_value=30)
length = st.integers(min_value=0, max_value=10)


@st.composite
def segments(draw):
    x = draw(coord)
    y = draw(coord)
    run = draw(length)
    if draw(st.booleans()):
        return Segment(0, Point(x, y), Point(x + run, y))
    return Segment(0, Point(x, y), Point(x, y + run))


def _scenario_key(sc):
    return (
        sc.net_a, sc.net_b, sc.scenario, sc.a_is_tip_owner, sc.overlap,
        sc.rect_a, sc.rect_b,
    )


class TestDetectorEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(segments(), min_size=2, max_size=6,
                    unique_by=lambda s: (s.a, s.b)))
    def test_vector_detector_matches_object_detector(self, segs):
        """Committing the same random layout net by net yields the same
        scenario stream from both detector implementations."""
        obj = ScenarioDetector(num_layers=1)
        vec = VectorScenarioDetector(num_layers=1)
        for i, seg in enumerate(segs):
            got_obj = sorted(map(_scenario_key, obj.add_net(i, [seg])))
            got_vec = sorted(map(_scenario_key, vec.add_net(i, [seg])))
            assert got_vec == got_obj

    @settings(max_examples=40, deadline=None)
    @given(st.lists(segments(), min_size=2, max_size=6,
                    unique_by=lambda s: (s.a, s.b)))
    def test_scalar_and_numpy_scan_agree(self, segs):
        """The small-candidate scalar scan and the numpy scan classify
        identically, in the same order."""

        def run():
            vec = VectorScenarioDetector(num_layers=1)
            out = []
            for i, seg in enumerate(segs):
                out.extend(map(_scenario_key, vec.add_net(i, [seg])))
            return out

        small = scenario_detect._SMALL_SCAN
        try:
            scenario_detect._SMALL_SCAN = 10 ** 9  # always scalar
            scalar = run()
            scenario_detect._SMALL_SCAN = 0  # always numpy
            vectored = run()
        finally:
            scenario_detect._SMALL_SCAN = small
        assert scalar == vectored


cells = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 7), st.integers(0, 7)),
    min_size=0,
    max_size=60,
)


class TestOccupyManyEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(cells, st.integers(0, 2), st.integers(0, 7), st.integers(0, 7))
    def test_matches_scalar_loop(self, batch, other_net, ox, oy):
        """occupy_many (both the <48-cell loop and the numpy path) ends
        in the same grid state, notifications, and error behaviour as
        per-cell occupy — including around a foreign-owned cell."""

        class Recorder:
            def __init__(self):
                self.cells = []

            def on_cells_changed(self, changed):
                self.cells.extend(tuple(map(int, c)) for c in changed)

            def on_grid_reset(self):
                pass

        def build():
            grid = RoutingGrid(8, 8, rules=None)
            grid.occupy(other_net, Point(ox, oy), 99)
            rec = Recorder()
            grid.add_change_listener(rec)
            return grid, rec

        ref_grid, ref_rec = build()
        ref_err = None
        try:
            for layer, x, y in batch:
                ref_grid.occupy(layer, Point(x, y), 5)
        except GridError as exc:
            ref_err = str(exc)

        got_grid, got_rec = build()
        got_err = None
        try:
            got_grid.occupy_many(batch, 5)
        except GridError as exc:
            got_err = str(exc)

        assert got_err == ref_err
        assert sorted(got_rec.cells) == sorted(ref_rec.cells)
        np.testing.assert_array_equal(got_grid._occ, ref_grid._occ)

    def test_fast_path_partial_write_then_raise(self):
        grid = RoutingGrid(8, 8)
        grid.occupy(0, Point(3, 3), 9)
        seen = []

        class Listener:
            def on_cells_changed(self, changed):
                seen.extend(tuple(map(int, c)) for c in changed)

            def on_grid_reset(self):
                pass

        grid.add_change_listener(Listener())
        with pytest.raises(GridError, match="already owned by net 9"):
            grid.occupy_many([(0, 1, 1), (0, 2, 2), (0, 3, 3)], 5)
        # Cells before the conflict were written and reported, exactly
        # like the scalar loop.
        assert grid.owner(0, Point(1, 1)) == 5
        assert grid.owner(0, Point(2, 2)) == 5
        assert grid.owner(0, Point(3, 3)) == 9
        assert seen == [(0, 1, 1), (0, 2, 2)]

    def test_duplicate_cells_notify_once(self):
        grid = RoutingGrid(8, 8)
        batch = [(0, 1, 1)] * 3 + [(1, 2, 2)]
        grid.occupy_many(batch, 4)
        assert grid.owner(0, Point(1, 1)) == 4
        assert grid.owner(1, Point(2, 2)) == 4
        big = [(0, x, y) for x in range(8) for y in range(8)]
        grid2 = RoutingGrid(8, 8)
        grid2.occupy_many(big + big, 4)  # >=48 cells: numpy path
        assert all(
            grid2.owner(0, Point(x, y)) == 4
            for x in range(8)
            for y in range(8)
        )
        assert grid2._occ[1].max() == int(CellState.FREE)
