"""Tests for the recovery machinery: rescue pass, flip scope cap."""

import pytest

from repro.errors import RoutingError
from repro.geometry import Point
from repro.grid import RoutingGrid
from repro.netlist import Net, Netlist, Pin
from repro.router import CostParams, SadpRouter


class TestFlipScopeCap:
    def test_cap_validation(self):
        with pytest.raises(RoutingError):
            CostParams(flip_scope_cap=0)

    def test_tiny_cap_still_conflict_free(self):
        """Even with per-net flipping effectively disabled (cap 1), the
        final full-layout pass restores the guarantees."""
        grid = RoutingGrid(26, 26)
        nets = Netlist(
            [Net(i, f"n{i}", Pin.at(2, 4 + i), Pin.at(22, 4 + i)) for i in range(6)]
        )
        params = CostParams(flip_scope_cap=1)
        result = SadpRouter(grid, nets, params=params).route_all()
        assert result.cut_conflicts == 0
        assert result.hard_overlays == 0
        # Adjacent-track bus still alternates after the final pass.
        colors = result.colorings[0]
        for i in range(5):
            assert colors[i] != colors[i + 1]

    def test_large_cap_equivalent_on_small_instances(self):
        def run(cap):
            grid = RoutingGrid(26, 26)
            nets = Netlist(
                [
                    Net(i, f"n{i}", Pin.at(2, 4 + i), Pin.at(22, 4 + i))
                    for i in range(4)
                ]
            )
            params = CostParams(flip_scope_cap=cap)
            return SadpRouter(grid, nets, params=params).route_all()

        a, b = run(400), run(100_000)
        assert a.overlay_units == b.overlay_units
        assert a.routability == b.routability


class TestRescuePass:
    def test_rescue_recovers_transient_failures(self):
        """A net whose first attempt is blocked must get re-tried after
        the rest of the netlist settles (here: after eviction freed it)."""
        grid = RoutingGrid(26, 26)
        # Dense cluster around net 5's pins makes its first attempts hard.
        nets = Netlist(
            [
                Net(0, "w0", Pin.at(6, 9), Pin.at(18, 9)),
                Net(1, "w1", Pin.at(6, 10), Pin.at(18, 10)),
                Net(2, "w2", Pin.at(6, 11), Pin.at(18, 11)),
                Net(3, "w3", Pin.at(6, 12), Pin.at(18, 12)),
                Net(4, "w4", Pin.at(6, 13), Pin.at(18, 13)),
                Net(5, "trapped", Pin.at(10, 10), Pin.at(12, 12)),
            ]
        )
        result = SadpRouter(grid, nets).route_all()
        # Not asserting every net routes (density is the point), but the
        # result must stay guarantee-clean and route most of the cluster.
        assert result.cut_conflicts == 0
        assert result.routed_count >= 5

    def test_rescue_never_breaks_guarantees(self):
        import random

        rng = random.Random(99)
        used = set()
        nets = []
        for i in range(30):
            while True:
                a = Point(rng.randrange(24), rng.randrange(24))
                if a not in used:
                    used.add(a)
                    break
            while True:
                b = Point(
                    min(max(a.x + rng.randint(-6, 6), 0), 23),
                    min(max(a.y + rng.randint(-6, 6), 0), 23),
                )
                if b != a and b not in used:
                    used.add(b)
                    break
            nets.append(Net(i, f"n{i}", Pin(candidates=(a,)), Pin(candidates=(b,))))
        grid = RoutingGrid(24, 24)
        result = SadpRouter(grid, Netlist(nets)).route_all()
        assert result.cut_conflicts == 0
        assert result.hard_overlays == 0


class TestEvictionDuringRepair:
    #: Eight nets on a 16x24 die whose conflict repair loops: repair
    #: reroutes offender n7, n7 only fits by evicting n2 and n5 (both are
    #: rerouted), and the last repair round then force-unroutes n5. The
    #: result must report n5 as the last round left it — unrouted — not
    #: with the route its eviction gave it a round earlier, whose cells
    #: no longer belong to it.
    DESIGN = """\
n0 L0 1,12 -> L0 3,11
n1 L0 4,12 -> L0 2,21
n2 L0 3,9 -> L0 7,11
n3 L0 0,11 -> L0 0,14
n4 L0 14,16 -> L0 9,11
n5 L0 8,9 -> L0 0,10
n6 L0 4,9 -> L0 13,21
n7 L0 3,8 -> L0 14,1
"""

    def test_latest_assignment_of_an_evicted_net_wins(self):
        from repro.netlist.io import parse_netlist

        grid = RoutingGrid(16, 24)
        router = SadpRouter(grid, parse_netlist(self.DESIGN))
        result = router.route_all()
        assert result.cut_conflicts == 0
        claimed = {}
        for net_id, route in result.routes.items():
            owned = {(layer, p.x, p.y) for layer, p in grid.cells_of_net(net_id)}
            cells = {
                (seg.layer, p.x, p.y) for seg in route.segments for p in seg.points()
            }
            if not route.success:
                assert not cells
                continue
            # every reported cell is held by the net on the grid ...
            assert cells <= owned, f"net {net_id} reports cells it does not own"
            # ... and by no other reported route
            for cell in cells:
                assert claimed.setdefault(cell, net_id) == net_id
        assert not result.routes[5].success
