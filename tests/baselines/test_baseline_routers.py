"""Behavioural tests of the three baseline routers."""

import math

import pytest

from repro import obs
from repro.baselines import CutNoMergeRouter, DuTrimRouter, GaoPanTrimRouter
from repro.bench.workloads import generate_benchmark, spec_by_name
from repro.core import ScenarioDetector
from repro.geometry import Point
from repro.grid import RoutingGrid
from repro.netlist import Net, Netlist, Pin
from repro.router import SadpRouter


def simple_nets(n=4, pitch=1):
    return [
        Net(i, f"n{i}", Pin.at(2, 4 + i * pitch), Pin.at(22, 4 + i * pitch))
        for i in range(n)
    ]


def route(router_cls, nets, size=30, **kw):
    grid = RoutingGrid(size, size)
    return router_cls(grid, Netlist(nets), **kw).route_all()


class TestGaoPan:
    def test_routes_simple_nets(self):
        result = route(GaoPanTrimRouter, simple_nets())
        assert result.routability == 1.0

    def test_second_patterns_overlay_without_assists(self):
        result = route(GaoPanTrimRouter, simple_nets())
        # At least one net is SECOND-colored with exposed flanks.
        assert result.overlay_nm > 0

    def test_frozen_colors_lose_to_sandwiches(self):
        # Three parallel adjacent wires routed in an order that freezes
        # the outer two to different colors leaves the middle stuck: the
        # visible-conflict check rejects it (lower routability), which is
        # the published failure mode.
        nets = [
            Net(0, "top", Pin.at(2, 6), Pin.at(22, 6)),
            Net(1, "bot", Pin.at(2, 4), Pin.at(22, 4)),
            Net(2, "mid", Pin.at(2, 5), Pin.at(22, 5)),
        ]
        ours = route(SadpRouter, nets)
        theirs = route(GaoPanTrimRouter, nets)
        assert ours.routability >= theirs.routability

    def test_conflicts_counted_by_complete_model(self):
        # Tip-abutting same-color wires are invisible to [11]'s model but
        # the evaluation counts them.
        nets = [
            Net(0, "a", Pin.at(2, 5), Pin.at(10, 5)),
            Net(1, "b", Pin.at(11, 5), Pin.at(20, 5)),
        ]
        result = route(GaoPanTrimRouter, nets)
        if result.routability == 1.0:
            # Both colors equal -> hidden 1-b trim conflict surfaces.
            assert result.cut_conflicts >= 0  # evaluated, not crashed


class TestCutNoMerge:
    def test_routes_simple_nets(self):
        result = route(CutNoMergeRouter, simple_nets())
        assert result.routability == 1.0

    def test_tip_abutment_rejected(self):
        # [16] cannot merge: a net whose only route abuts another net's
        # tip is ripped up / fails rather than committed cleanly.
        nets = [
            Net(0, "a", Pin.at(2, 5), Pin.at(10, 5)),
            Net(1, "b", Pin.at(11, 5), Pin.at(20, 5)),
        ]
        result = route(CutNoMergeRouter, nets)
        # Either net 1 detoured (extra wirelength/vias) or failed.
        route1 = result.routes[1]
        if route1.success:
            assert route1.wirelength > 9 or route1.via_count > 0

    def test_ours_beats_it_on_overlay(self):
        nets = simple_nets(6)
        ours = route(SadpRouter, nets)
        theirs = route(CutNoMergeRouter, nets)
        assert ours.overlay_units <= theirs.overlay_units
        assert ours.cut_conflicts == 0


class TestDuTrim:
    def test_multi_candidate_selection(self):
        src = Pin.multi((Point(2, 5), Point(2, 15)))
        dst = Pin.multi((Point(20, 15), Point(20, 25)))
        result = route(DuTrimRouter, [Net(0, "m", src, dst)])
        assert result.routability == 1.0
        assert result.routes[0].wirelength == 18  # picked the aligned pair

    def test_time_budget_aborts(self):
        nets = [
            Net(
                i,
                f"n{i}",
                Pin.multi((Point(2, 3 + 2 * i), Point(3, 3 + 2 * i))),
                Pin.multi((Point(22, 3 + 2 * i), Point(23, 3 + 2 * i))),
            )
            for i in range(8)
        ]
        result = route(DuTrimRouter, nets, time_budget_s=0.0)
        assert result.routability == 0.0  # budget exhausted immediately

    def test_slower_than_ours_per_candidate_blowup(self):
        nets = [
            Net(
                i,
                f"n{i}",
                Pin.multi((Point(2, 3 + 2 * i), Point(3, 3 + 2 * i), Point(4, 3 + 2 * i))),
                Pin.multi((Point(22, 3 + 2 * i), Point(23, 3 + 2 * i), Point(24, 3 + 2 * i))),
            )
            for i in range(6)
        ]
        ours = route(SadpRouter, nets)
        theirs = route(DuTrimRouter, nets)
        assert theirs.cpu_seconds > ours.cpu_seconds


BASELINES = [GaoPanTrimRouter, CutNoMergeRouter, DuTrimRouter]


def _assert_same_routes(res, ref):
    assert res.routes.keys() == ref.routes.keys()
    for net_id, a in res.routes.items():
        b = ref.routes[net_id]
        assert a.success == b.success, f"net {net_id} success diverged"
        assert a.segments == b.segments, f"net {net_id} path diverged"
        assert a.vias == b.vias, f"net {net_id} vias diverged"
    assert res.overlay_nm == ref.overlay_nm
    assert res.cut_conflicts == ref.cut_conflicts


@pytest.mark.parametrize("router_cls", BASELINES)
def test_guidance_keeps_baseline_routes(router_cls):
    """The baselines search with the engine's default guidance policy.
    Turning it off (``guidance_min_cells = inf``) must commit the same
    routes from no fewer expansions."""
    spec = spec_by_name("Test1")
    runs = {}
    for mode in ("off", "default"):
        grid, nets = generate_benchmark(spec, scale=0.2, seed=2014)
        with obs.session() as ob:
            router = router_cls(grid, nets)
            if mode == "off":
                router.engine.guidance_min_cells = math.inf
            result = router.route_all()
            reg = ob.registry
            counts = {
                name: reg.total(name)
                for name in (
                    "astar_searches_total",
                    "astar_nodes_expanded_total",
                    "astar_guided_searches_total",
                )
            }
        runs[mode] = (result, counts)
    (off, off_counts), (res, counts) = runs["off"], runs["default"]
    _assert_same_routes(res, off)
    assert off_counts["astar_guided_searches_total"] == 0
    assert counts["astar_searches_total"] == off_counts["astar_searches_total"]
    assert (
        counts["astar_nodes_expanded_total"]
        <= off_counts["astar_nodes_expanded_total"]
    )
    if router_cls is not DuTrimRouter:
        # Du's pin-pair searches all finish under the trigger here.
        assert counts["astar_guided_searches_total"] > 0


@pytest.mark.parametrize("router_cls", BASELINES)
def test_detector_keeps_baseline_routes(router_cls):
    """The baselines commit through the batched ``VectorScenarioDetector``.
    Swapping in its per-object twin ``ScenarioDetector`` (the oracle)
    must commit the same routes."""
    spec = spec_by_name("Test1")
    runs = {}
    for detector in ("vector", "object"):
        grid, nets = generate_benchmark(spec, scale=0.2, seed=2014)
        router = router_cls(grid, nets)
        if detector == "object":
            router.detector = ScenarioDetector(grid.num_layers)
        runs[detector] = router.route_all()
    _assert_same_routes(runs["vector"], runs["object"])
