"""Guidance-cache counters.

The guidance memo in :class:`OverlayCostCache` reports hits, misses and
invalidations as ``repro.obs`` counters.
"""

from repro import obs
from repro.bench.workloads import generate_benchmark, spec_by_name
from repro.geometry import Point
from repro.grid import RoutingGrid
from repro.router import SadpRouter
from repro.router.overlay_cache import OverlayCostCache

from .test_guidance import set_mode


class TestGuidanceCacheCounters:
    def _cache(self):
        grid = RoutingGrid(16, 16)
        return grid, OverlayCostCache(grid, 1.5, 0.5)

    def test_hits_and_misses(self):
        _, cache = self._cache()
        key = ((0, 5, 0, 5), b"\x01", None)
        with obs.session() as ob:
            assert cache.guidance_lookup(1, key) is None
            cache.guidance_store(1, (0, 5, 0, 5), key, [0.0])
            assert cache.guidance_lookup(1, key) == [0.0]
            assert cache.guidance_lookup(1, ("other",)) is None
            hits = ob.registry.total("guidance_cache_hits_total")
            misses = ob.registry.total("guidance_cache_misses_total")
        assert hits == 1.0
        assert misses == 2.0

    def test_invalidations(self):
        grid, cache = self._cache()
        key = ((0, 5, 0, 5), b"\x01", None)
        cache.guidance_store(1, (0, 5, 0, 5), key, [0.0])
        cache.guidance_store(2, (8, 14, 8, 14), key, [0.0])
        with obs.session() as ob:
            grid.occupy(0, Point(3, 3), 9)  # reaches net 1's window only
            invalidations = ob.registry.total(
                "guidance_cache_invalidations_total"
            )
        assert invalidations == 1.0
        assert cache.guidance_lookup(2, key) is not None
        assert cache.guidance_lookup(1, key) is None

    def test_counters_reach_the_ledger_registry(self):
        """End-to-end: a guidance-on route records cache activity that
        ``record_run`` will pick up generically from the registry."""
        spec = spec_by_name("Test1")
        grid, nets = generate_benchmark(spec, scale=0.12, seed=2014)
        with obs.session() as ob:
            router = SadpRouter(grid, nets)
            set_mode(router.engine, "on")
            router.route_all()
            names = {entry["metric"] for entry in ob.registry.snapshot()}
            misses = ob.registry.total("guidance_cache_misses_total")
        assert "guidance_cache_misses_total" in names
        assert misses > 0
