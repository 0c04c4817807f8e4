"""Vector-core vs object-core equivalence, end to end.

``SadpRouter`` commits through the vector engine: the SoA edge store,
the vector scenario detector, and batched grid writes. The
one-object-per-edge reference (:class:`ScenarioDetector` +
:class:`OverlayConstraintGraph`) speaks the same API and is swapped in
here as the oracle. The swap is a pure representation change, so the
full route_all flow — ripups, colorings, overlay accounting,
cut-conflict elimination — must be bit-identical between the two on
every seeded instance.
"""

import pytest

from repro.bench.workloads import generate_benchmark, spec_by_name
from repro.core import OverlayConstraintGraph, ScenarioDetector
from repro.router import SadpRouter


def make_router(grid, nets, core: str) -> SadpRouter:
    """A router on the vector engine, or on the object oracle."""
    router = SadpRouter(grid, nets)
    if core == "object":
        router.detector = ScenarioDetector(grid.num_layers)
        router.graphs = [OverlayConstraintGraph() for _ in range(grid.num_layers)]
    return router


def _route(circuit: str, scale: float, seed: int, core: str):
    spec = spec_by_name(circuit)
    grid, nets = generate_benchmark(spec, scale=scale, seed=seed)
    return make_router(grid, nets, core).route_all()


def _route_signature(result):
    return sorted(
        (
            net_id,
            route.success,
            route.ripups,
            tuple(route.segments),
            tuple(route.vias),
        )
        for net_id, route in result.routes.items()
    )


class TestCoreEquivalenceEndToEnd:
    @pytest.mark.parametrize(
        "circuit,scale",
        [("Test1", 0.15), ("Test6", 0.15)],
    )
    @pytest.mark.parametrize("seed", [2014, 7])
    def test_route_all_bit_identical(self, circuit, scale, seed):
        obj = _route(circuit, scale, seed, core="object")
        vec = _route(circuit, scale, seed, core="vector")
        assert _route_signature(vec) == _route_signature(obj)
        assert vec.colorings == obj.colorings
        assert vec.overlay_units == obj.overlay_units
        assert vec.overlay_nm == obj.overlay_nm
        assert vec.hard_overlays == obj.hard_overlays
        assert vec.cut_conflicts == obj.cut_conflicts
        assert vec.total_ripups == obj.total_ripups
        assert vec.color_flips == obj.color_flips
