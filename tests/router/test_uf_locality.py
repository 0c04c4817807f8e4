"""The vector engine's hard union-find rebuild is component-local.

A rip-up that drops a hard edge invalidates the layer's parity
union-find. The object engine (the reference) replays every live hard
edge on the layer; the vector engine forgets and replays only the hard
components the removal touched. Locality is pinned by the
``ocg_uf_rebuild_rows_total`` counter, not by timings: on a rip-up-heavy
design the two engines must rebuild equally often, route identically,
and the vector engine must replay a small fraction of the rows.
"""

from repro import obs
from repro.bench.workloads import generate_benchmark, spec_by_name

from .test_core_equivalence import _route_signature, make_router


def _route_counted(core: str):
    grid, nets = generate_benchmark(spec_by_name("Test5"), scale=0.12, seed=7)
    with obs.session() as ob:
        result = make_router(grid, nets, core).route_all()
        counters = {
            name: ob.registry.counter(name).value
            for name in ("ocg_uf_rebuilds_total", "ocg_uf_rebuild_rows_total")
        }
    return result, counters


def test_rebuild_replays_only_touched_components():
    obj, obj_counts = _route_counted("object")
    vec, vec_counts = _route_counted("vector")
    assert _route_signature(vec) == _route_signature(obj)
    assert vec.colorings == obj.colorings
    assert vec.overlay_units == obj.overlay_units
    rebuilds = vec_counts["ocg_uf_rebuilds_total"]
    assert rebuilds > 0
    assert rebuilds == obj_counts["ocg_uf_rebuilds_total"]
    # Measured: 9.9% of the full replay's rows.
    rows_vec = vec_counts["ocg_uf_rebuild_rows_total"]
    rows_obj = obj_counts["ocg_uf_rebuild_rows_total"]
    assert 0 < rows_vec <= 0.20 * rows_obj
