"""Fast-path vs reference-path equivalence.

The flat-index fast search and the dict-based reference implementation
must produce *identical* node sequences and costs — same FP operation
order, same tie-breaking — on every workload. These tests pin that
contract at the engine level (seeded random occupancy, penalties,
overlay terms) and end-to-end through the full SadpRouter flow on
seeded Test1/Test6 instances (fixed and multi-candidate pins).
"""

import math
import random

import pytest

from repro.bench.workloads import generate_benchmark, spec_by_name
from repro.geometry import Point
from repro.grid import RoutingGrid
from repro.router import AStarRouter, CostParams, SadpRouter, SearchRequest


def _random_occupancy(grid: RoutingGrid, rng: random.Random, fill: float) -> None:
    for layer in range(grid.num_layers):
        for x in range(grid.width):
            for y in range(grid.height):
                if rng.random() < fill:
                    grid.occupy(layer, Point(x, y), rng.randrange(1, 20))


def use_reference(engine: AStarRouter) -> AStarRouter:
    """Route every search of ``engine`` through the reference path."""
    engine._search_fast = engine._search_reference
    return engine


def _engines(grid, params, **kwargs):
    fast = AStarRouter(grid, params, **kwargs)
    fast.guidance_min_cells = math.inf  # the unguided fast path
    ref = use_reference(AStarRouter(grid, params, **kwargs))
    return fast, ref


def _assert_same(found_fast, found_ref):
    if found_ref is None:
        assert found_fast is None
        return
    assert found_fast is not None
    assert found_fast.nodes == found_ref.nodes
    assert found_fast.cost == found_ref.cost  # bit-exact, not approx
    assert found_fast.segments == found_ref.segments
    assert found_fast.vias == found_ref.vias
    assert found_fast.expansions == found_ref.expansions


class TestEngineEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_occupancy_with_overlay_and_penalties(self, seed):
        rng = random.Random(seed)
        grid = RoutingGrid(28, 28)
        _random_occupancy(grid, rng, fill=0.12)
        penalties = {
            (rng.randrange(3), rng.randrange(28), rng.randrange(28)): rng.uniform(1, 9)
            for _ in range(40)
        }
        params = CostParams()
        fast, ref = _engines(
            grid,
            params,
            penalty_map=penalties,
            overlay_terms=(params.gamma, params.delta_tip),
        )
        for net_id in (100, 101):
            fast.active_net = ref.active_net = net_id
            for _ in range(6):
                src = Point(rng.randrange(28), rng.randrange(28))
                dst = Point(rng.randrange(28), rng.randrange(28))
                req = SearchRequest(
                    net_id=net_id, sources=[(0, src)], targets=[(0, dst)]
                )
                _assert_same(fast.search(req, extra_margin=4),
                             ref.search(req, extra_margin=4))

    @pytest.mark.parametrize("seed", [7, 8])
    def test_multi_candidate_pins(self, seed):
        rng = random.Random(seed)
        grid = RoutingGrid(24, 24)
        _random_occupancy(grid, rng, fill=0.08)
        params = CostParams()
        fast, ref = _engines(
            grid, params, overlay_terms=(params.gamma, params.delta_tip)
        )
        fast.active_net = ref.active_net = 50
        for _ in range(5):
            sources = [
                (0, Point(rng.randrange(24), rng.randrange(24))) for _ in range(3)
            ]
            targets = [
                (0, Point(rng.randrange(24), rng.randrange(24))) for _ in range(3)
            ]
            req = SearchRequest(net_id=50, sources=sources, targets=targets)
            _assert_same(fast.search(req, extra_margin=3),
                         ref.search(req, extra_margin=3))

    def test_wrong_way_jogs(self):
        grid = RoutingGrid(20, 20)
        params = CostParams(wrong_way_factor=2.0)
        fast, ref = _engines(grid, params)
        req = SearchRequest(
            net_id=0, sources=[(0, Point(2, 2))], targets=[(0, Point(12, 9))]
        )
        _assert_same(fast.search(req), ref.search(req))

    def test_budget_exhaustion_matches(self):
        grid = RoutingGrid(20, 20)
        fast, ref = _engines(grid, CostParams())
        req = SearchRequest(
            net_id=0, sources=[(0, Point(0, 0))], targets=[(0, Point(19, 19))]
        )
        req.max_expansions = 3
        assert fast.search(req) is None
        assert ref.search(req) is None
        assert fast.last_outcome == "budget_exhausted"
        assert ref.last_outcome == "budget_exhausted"


@pytest.mark.parametrize(
    "circuit,scale",
    [("Test1", 0.12), ("Test6", 0.12)],
    ids=["Test1-fixed-pins", "Test6-multi-candidate"],
)
def test_route_all_equivalence(circuit, scale):
    """Full-flow equivalence: SadpRouter with the fast path (and the
    overlay cache, exercised by rip-ups/evictions) commits exactly the
    routes the reference implementation commits."""
    spec = spec_by_name(circuit)
    grid_fast, nets_fast = generate_benchmark(spec, scale=scale, seed=2014)
    grid_ref, nets_ref = generate_benchmark(spec, scale=scale, seed=2014)
    fast_router = SadpRouter(grid_fast, nets_fast)
    ref_router = SadpRouter(grid_ref, nets_ref)
    use_reference(ref_router.engine)

    res_fast = fast_router.route_all()
    res_ref = ref_router.route_all()

    assert res_fast.routes.keys() == res_ref.routes.keys()
    for net_id in res_fast.routes:
        a, b = res_fast.routes[net_id], res_ref.routes[net_id]
        assert a.success == b.success, f"net {net_id} success diverged"
        assert a.segments == b.segments, f"net {net_id} path diverged"
        assert a.vias == b.vias, f"net {net_id} vias diverged"
    assert res_fast.overlay_units == res_ref.overlay_units
    assert res_fast.total_wirelength == res_ref.total_wirelength
    assert res_fast.cut_conflicts == res_ref.cut_conflicts == 0
