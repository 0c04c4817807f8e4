"""Guided vs unguided search equivalence, and the guidance plumbing.

Corridor pruning must be *invisible* to the search result: with guidance
on (or at its default trigger) the fast path returns the bit-identical
paths, costs, and committed metrics as with guidance off while expanding
no more nodes. The engine has one policy, set by two attributes:
``guidance_min_cells = math.inf`` turns it off, ``guidance_trigger = 0``
with ``guidance_min_cells = 0`` builds every map up front ("on"). These
tests pin that contract at the engine level (random occupancy,
penalties, overlay terms, multi-pin requests) and end-to-end through
``SadpRouter.route_all`` on seeded Test1/Test6 instances, plus the
memoization and invalidation behaviour of the guidance cache. Search
work is read from the ``repro.obs`` counters, one session per engine.
"""

import math
import random

import pytest

from repro import obs
from repro.bench.workloads import generate_benchmark, spec_by_name
from repro.geometry import Point
from repro.grid import RoutingGrid
from repro.router import AStarRouter, CostParams, SadpRouter, SearchRequest
from repro.router.overlay_cache import OverlayCostCache


def set_mode(engine, mode):
    """Select guidance "off", "on", or (unchanged) "auto" on an engine."""
    if mode == "off":
        engine.guidance_min_cells = math.inf
    elif mode == "on":
        engine.guidance_trigger = 0
        engine.guidance_min_cells = 0
    return engine


#: The counters :func:`run_counted` totals.
COUNTERS = (
    "astar_searches_total",
    "astar_nodes_expanded_total",
    "astar_guided_searches_total",
    "guidance_maps_built_total",
    "guidance_cache_hits_total",
    "guidance_cache_misses_total",
)


def counter_totals(ob):
    return {name: ob.registry.total(name) for name in COUNTERS}


def run_counted(engine, requests, extra_margin=0):
    """Search every request, with ``active_net`` set to its net, inside a
    fresh obs session; return the results and the session's counter
    totals."""
    with obs.session() as ob:
        found = []
        for req in requests:
            engine.active_net = req.net_id
            found.append(engine.search(req, extra_margin=extra_margin))
        totals = counter_totals(ob)
    return found, totals


def _random_occupancy(grid, rng, fill):
    for layer in range(grid.num_layers):
        for x in range(grid.width):
            for y in range(grid.height):
                if rng.random() < fill:
                    grid.occupy(layer, Point(x, y), rng.randrange(1, 20))


def _assert_same_found(guided, plain):
    if plain is None:
        assert guided is None
        return
    assert guided is not None
    assert guided.nodes == plain.nodes
    assert guided.cost == plain.cost  # bit-exact, not approx
    assert guided.segments == plain.segments
    assert guided.vias == plain.vias
    assert guided.expansions <= plain.expansions


class TestEngineEquivalence:
    @pytest.mark.parametrize("mode", ["on", "auto"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_occupancy_with_overlay_and_penalties(self, seed, mode):
        rng = random.Random(seed)
        grid = RoutingGrid(26, 26)
        _random_occupancy(grid, rng, fill=0.12)
        penalties = {
            (rng.randrange(3), rng.randrange(26), rng.randrange(26)): rng.uniform(1, 9)
            for _ in range(30)
        }
        params = CostParams()
        kwargs = dict(
            penalty_map=penalties,
            overlay_terms=(params.gamma, params.delta_tip),
        )
        plain = set_mode(AStarRouter(grid, params, **kwargs), "off")
        guided = AStarRouter(grid, params, **kwargs)
        guided.guidance_trigger = 16  # make "auto" actually trip
        guided.guidance_min_cells = 0  # windows here are under the size gate
        set_mode(guided, mode)
        requests = [
            SearchRequest(
                net_id=net_id,
                sources=[(0, Point(rng.randrange(26), rng.randrange(26)))],
                targets=[(0, Point(rng.randrange(26), rng.randrange(26)))],
            )
            for net_id in (100, 101)
            for _ in range(6)
        ]
        plain_found, plain_n = run_counted(plain, requests, extra_margin=4)
        guided_found, guided_n = run_counted(guided, requests, extra_margin=4)
        for g, p in zip(guided_found, plain_found):
            _assert_same_found(g, p)
        assert guided_n["astar_guided_searches_total"] > 0
        assert plain_n["astar_guided_searches_total"] == 0
        assert (
            guided_n["astar_nodes_expanded_total"]
            <= plain_n["astar_nodes_expanded_total"]
        )

    def test_multi_candidate_pins(self):
        rng = random.Random(7)
        grid = RoutingGrid(24, 24)
        _random_occupancy(grid, rng, fill=0.08)
        params = CostParams()
        plain = set_mode(
            AStarRouter(grid, params, overlay_terms=(params.gamma, params.delta_tip)),
            "off",
        )
        guided = set_mode(
            AStarRouter(grid, params, overlay_terms=(params.gamma, params.delta_tip)),
            "on",
        )
        plain.active_net = guided.active_net = 50
        for _ in range(5):
            sources = [
                (0, Point(rng.randrange(24), rng.randrange(24)))
                for _ in range(3)
            ]
            targets = [
                (0, Point(rng.randrange(24), rng.randrange(24)))
                for _ in range(3)
            ]
            req = SearchRequest(net_id=50, sources=sources, targets=targets)
            _assert_same_found(
                guided.search(req, extra_margin=3),
                plain.search(req, extra_margin=3),
            )

    def test_wrong_way_jogs(self):
        grid = RoutingGrid(20, 20)
        params = CostParams(wrong_way_factor=2.0)
        plain = set_mode(AStarRouter(grid, params), "off")
        guided = set_mode(AStarRouter(grid, params), "on")
        req = SearchRequest(
            net_id=0, sources=[(0, Point(2, 2))], targets=[(0, Point(12, 9))]
        )
        _assert_same_found(guided.search(req), plain.search(req))

    def test_unreachable_target_fails_fast(self):
        """With no route to the target the map is all-inf, the corridor
        bound collapses, and the guided search drains its heap instead of
        flooding the window."""
        grid = RoutingGrid(30, 30)
        for y in range(30):  # wall across every layer
            for layer in range(grid.num_layers):
                grid.occupy(layer, Point(15, y), 999)
        plain = set_mode(AStarRouter(grid, CostParams()), "off")
        guided = set_mode(AStarRouter(grid, CostParams()), "on")
        req = SearchRequest(
            net_id=0, sources=[(0, Point(2, 15))], targets=[(0, Point(28, 15))]
        )
        (plain_found,), plain_n = run_counted(plain, [req])
        (guided_found,), guided_n = run_counted(guided, [req])
        assert plain_found is None and guided_found is None
        assert guided.last_outcome == plain.last_outcome == "failed"
        assert (
            guided_n["astar_nodes_expanded_total"]
            < plain_n["astar_nodes_expanded_total"]
        )

    def test_off_mode_never_builds(self):
        grid = RoutingGrid(16, 16)
        engine = set_mode(AStarRouter(grid, CostParams()), "off")
        req = SearchRequest(
            net_id=0, sources=[(0, Point(1, 1))], targets=[(0, Point(14, 14))]
        )
        (found,), n = run_counted(engine, [req])
        assert found is not None
        assert n["guidance_maps_built_total"] == 0
        assert n["astar_guided_searches_total"] == 0

    def test_auto_size_gate_skips_tiny_windows(self):
        """Windows under ``guidance_min_cells`` never pay for a map build
        — the search can't amortise it. Lowering the gate to 0 ("on")
        bypasses it."""
        req = SearchRequest(
            net_id=0, sources=[(0, Point(1, 1))], targets=[(0, Point(14, 14))]
        )
        grid = RoutingGrid(16, 16)
        auto = AStarRouter(grid, CostParams())
        auto.guidance_trigger = 0  # would trip immediately without the gate
        (found,), n = run_counted(auto, [req])
        assert found is not None
        assert n["guidance_maps_built_total"] == 0
        assert n["astar_guided_searches_total"] == 0

        grid = RoutingGrid(16, 16)
        forced = set_mode(AStarRouter(grid, CostParams()), "on")
        (found,), n = run_counted(forced, [req])
        assert found is not None
        assert n["astar_guided_searches_total"] > 0


class TestGuidanceMemo:
    def test_repeat_search_hits_the_memo(self):
        grid = RoutingGrid(20, 20)
        params = CostParams()
        cache = OverlayCostCache(grid, params.gamma, params.delta_tip)
        engine = set_mode(AStarRouter(grid, params, overlay_cache=cache), "on")
        engine.active_net = 5
        req = SearchRequest(
            net_id=5, sources=[(0, Point(2, 2))], targets=[(0, Point(15, 15))]
        )
        with obs.session() as ob:
            first = engine.search(req)
            assert first is not None
            n = counter_totals(ob)
            assert n["guidance_cache_misses_total"] == 1
            second = engine.search(req)
            assert second is not None
            assert second.nodes == first.nodes
            m = counter_totals(ob)
        assert m["guidance_cache_hits_total"] == 1
        # served from memo
        assert m["guidance_maps_built_total"] == n["guidance_maps_built_total"]

    def test_occupancy_change_inside_window_invalidates(self):
        grid = RoutingGrid(20, 20)
        params = CostParams()
        cache = OverlayCostCache(grid, params.gamma, params.delta_tip)
        engine = set_mode(AStarRouter(grid, params, overlay_cache=cache), "on")
        engine.active_net = 5
        req = SearchRequest(
            net_id=5, sources=[(0, Point(2, 2))], targets=[(0, Point(15, 15))]
        )
        with obs.session() as ob:
            engine.search(req)
            grid.occupy(0, Point(8, 8), 7)  # lands inside the search window
            engine.search(req)
            n = counter_totals(ob)
        assert n["guidance_cache_hits_total"] == 0
        assert n["guidance_cache_misses_total"] == 2

    def test_far_away_change_keeps_the_entry(self):
        grid = RoutingGrid(40, 40)
        params = CostParams()
        cache = OverlayCostCache(grid, params.gamma, params.delta_tip)
        engine = set_mode(AStarRouter(grid, params, overlay_cache=cache), "on")
        engine.active_net = 5
        req = SearchRequest(
            net_id=5, sources=[(0, Point(2, 2))], targets=[(0, Point(8, 8))]
        )
        with obs.session() as ob:
            engine.search(req)
            grid.occupy(0, Point(38, 38), 7)  # far outside the window + margin
            engine.search(req)
            n = counter_totals(ob)
        assert n["guidance_cache_hits_total"] == 1


@pytest.mark.parametrize(
    "circuit,scale",
    [("Test1", 0.12), ("Test6", 0.12)],
    ids=["Test1-fixed-pins", "Test6-multi-candidate"],
)
def test_route_all_equivalence(circuit, scale):
    """Full-flow equivalence: guidance on/auto commits exactly the routes
    guidance off commits — same paths, same overlay, same wirelength —
    while expanding no more nodes."""
    spec = spec_by_name(circuit)
    results = {}
    counts = {}
    for mode in ("off", "auto", "on"):
        grid, nets = generate_benchmark(spec, scale=scale, seed=2014)
        with obs.session() as ob:
            router = SadpRouter(grid, nets)
            router.engine.guidance_trigger = 32
            router.engine.guidance_min_cells = 0  # scaled windows are tiny
            set_mode(router.engine, mode)
            results[mode] = router.route_all()
            counts[mode] = counter_totals(ob)
    base = results["off"]
    for mode in ("auto", "on"):
        res = results[mode]
        assert res.routes.keys() == base.routes.keys()
        for net_id in base.routes:
            a, b = res.routes[net_id], base.routes[net_id]
            assert a.success == b.success, f"net {net_id} success diverged"
            assert a.segments == b.segments, f"net {net_id} path diverged"
            assert a.vias == b.vias, f"net {net_id} vias diverged"
        assert res.overlay_units == base.overlay_units
        assert res.total_wirelength == base.total_wirelength
        n, off = counts[mode], counts["off"]
        assert n["astar_searches_total"] == off["astar_searches_total"]
        assert n["astar_nodes_expanded_total"] <= off["astar_nodes_expanded_total"]
        assert n["astar_guided_searches_total"] > 0
    assert counts["off"]["astar_guided_searches_total"] == 0
