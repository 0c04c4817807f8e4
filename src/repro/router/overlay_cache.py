"""Memoised Eq. (5) overlay cost grids with incremental invalidation.

The overlay term of the routing cost (gamma per type 2-b tip gap,
delta_tip per direct tip abutment) depends only on the occupancy around a
cell and on which net is being routed — *not* on the search window: the
vectorised computation pads its window with real occupancy, and the
out-of-grid sentinel applies only beyond the die. A cost grid computed
once for a net therefore stays valid until occupancy changes, and a
change at ``(layer, x, y)`` can only move the cost of cells within
distance 2 of it along the layer's preferred direction (the probe reads
the two cells ahead/behind).

:class:`OverlayCostCache` exploits both facts. It keeps one cached grid
per net (LRU-bounded), registers itself as a
:meth:`~repro.grid.RoutingGrid.add_change_listener` so the rip-up /
eviction / repair loops invalidate it automatically, and repairs stale
entries cell-by-cell instead of re-running the full vectorised pass —
so retrying a net after an eviction, the rescue pass, and the repair
rounds pay for a handful of scalar probes instead of ``O(window)``
numpy work.

Exactness contract: the cached grid is bit-identical to a fresh
:func:`overlay_cost_grid` of the same window (the scalar repair probe
replays the vectorised arithmetic in the same operation order), which in
turn matches the brute-force per-cell ``SadpRouter._overlay_probe``.
The property tests pin all three together.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..grid import CellState, Direction, RoutingGrid

Bounds = Tuple[int, int, int, int]  # xlo, xhi, ylo, yhi (inclusive)

_FREE = int(CellState.FREE)

#: Occupancy value standing in for "outside the die" in the padded
#: window: neither FREE nor a net id, so it contributes no cost term.
_SENTINEL = -9


def overlay_cost_grid(
    occ: np.ndarray,
    horizontal: Sequence[bool],
    bounds: Bounds,
    own: int,
    gamma: float,
    delta_tip: float,
) -> np.ndarray:
    """Vectorised Eq. (5) overlay term over a search window.

    For every cell of the window, along the layer's preferred direction:
    ``delta_tip`` per directly abutting foreign cell and ``gamma`` per
    foreign cell at distance two behind a free cell (the type 2-b tip
    gap). Returns ``cost[layer, x - xlo, y - ylo]`` (float64).
    """
    xlo, xhi, ylo, yhi = bounds
    num_layers = occ.shape[0]
    wx, wy = xhi - xlo + 1, yhi - ylo + 1
    cost = np.zeros((num_layers, wx, wy), dtype=np.float64)
    pad = 2
    for layer in range(num_layers):
        view = np.full((wx + 2 * pad, wy + 2 * pad), _SENTINEL, dtype=occ.dtype)
        src_xlo, src_xhi = max(xlo - pad, 0), min(xhi + pad + 1, occ.shape[1])
        src_ylo, src_yhi = max(ylo - pad, 0), min(yhi + pad + 1, occ.shape[2])
        view[
            src_xlo - (xlo - pad) : src_xhi - (xlo - pad),
            src_ylo - (ylo - pad) : src_yhi - (ylo - pad),
        ] = occ[layer, src_xlo:src_xhi, src_ylo:src_yhi]
        # Shifted *views* into the padded window (pad >= |shift|, so a
        # slice sees exactly what np.roll-then-crop would, minus the two
        # full-array copies per shift).
        if horizontal[layer]:
            shifted = lambda s: view[pad + s : pad + s + wx, pad : pad + wy]
        else:
            shifted = lambda s: view[pad : pad + wx, pad + s : pad + s + wy]
        for sign in (1, -1):
            mid = shifted(sign)
            far = shifted(2 * sign)
            foreign_mid = (mid >= 0) & (mid != own)
            tip_gap = (mid == _FREE) & (far >= 0) & (far != own)
            cost[layer] += delta_tip * foreign_mid + gamma * tip_gap
    return cost


def probe_cell(
    occ: np.ndarray,
    horizontal: Sequence[bool],
    layer: int,
    x: int,
    y: int,
    own: int,
    gamma: float,
    delta_tip: float,
) -> float:
    """Scalar Eq. (5) overlay cost of one cell.

    Replays :func:`overlay_cost_grid`'s arithmetic in the same operation
    order (sign +1 then -1, delta_tip term before gamma term) so repaired
    cache cells compare bit-equal to a fresh vectorised pass.
    """
    _, width, height = occ.shape
    if horizontal[layer]:
        steps = ((x + 1, y, x + 2, y), (x - 1, y, x - 2, y))
    else:
        steps = ((x, y + 1, x, y + 2), (x, y - 1, x, y - 2))
    cost = 0.0
    for mx, my, fx, fy in steps:
        mid = (
            int(occ[layer, mx, my])
            if 0 <= mx < width and 0 <= my < height
            else _SENTINEL
        )
        far = (
            int(occ[layer, fx, fy])
            if 0 <= fx < width and 0 <= fy < height
            else _SENTINEL
        )
        foreign_mid = mid >= 0 and mid != own
        tip_gap = mid == _FREE and far >= 0 and far != own
        cost += delta_tip * foreign_mid + gamma * tip_gap
    return cost


class _Entry:
    """One cached cost grid: a net's window plus its stale cells."""

    __slots__ = ("bounds", "cost", "pending")

    def __init__(self, bounds: Bounds, cost: np.ndarray) -> None:
        self.bounds = bounds
        self.cost = cost
        #: Occupancy changes not yet folded into ``cost``.
        self.pending: List[Tuple[int, int, int]] = []


class _GuidanceEntry:
    """One memoised future-cost map (see :mod:`repro.router.guidance`).

    Unlike cost-grid entries, guidance maps are not repairable — one
    changed cell can reroute the whole backward flow — so any occupancy
    change that can reach the window (distance <= 2, same radius as the
    overlay term) simply drops the entry.
    """

    __slots__ = ("bounds", "key", "dmap")

    def __init__(self, bounds: Bounds, key: tuple, dmap: np.ndarray) -> None:
        self.bounds = bounds
        self.key = key
        self.dmap = dmap


class OverlayCostCache:
    """Per-net memo of Eq. (5) cost grids, kept fresh incrementally.

    Registers itself on the grid's change-listener hook; every
    ``occupy`` / ``release`` / ``release_net`` marks the touched cells
    stale in all live entries, and the next :meth:`grid_for` repairs
    exactly the cells within distance 2 of a change instead of
    recomputing the window. Bulk rewrites (``block``) clear the cache.
    """

    def __init__(
        self,
        grid: RoutingGrid,
        gamma: float,
        delta_tip: float,
        max_entries: int = 8,
        growth: int = 12,
    ) -> None:
        self.grid = grid
        self.gamma = gamma
        self.delta_tip = delta_tip
        self.max_entries = max_entries
        #: Halo added around the window on a *second* computation for the
        #: same net: a containment miss means the rip-up loop is growing
        #: the net's window, so anticipate the next growth step and turn
        #: the remaining retries into (repairable) hits. First-try nets
        #: never pay for the halo.
        self.growth = growth
        self._horizontal = [
            grid.layer_direction(l) is Direction.HORIZONTAL
            for l in range(grid.num_layers)
        ]
        self._entries: "OrderedDict[int, _Entry]" = OrderedDict()
        self._guidance: "OrderedDict[int, _GuidanceEntry]" = OrderedDict()
        grid.add_change_listener(self)

    # ------------------------------------------------------------------ #
    # Grid listener protocol
    # ------------------------------------------------------------------ #

    def on_cells_changed(self, cells: Iterable[Tuple[int, int, int]]) -> None:
        if not self._entries and not self._guidance:
            return
        for entry in self._entries.values():
            xlo, xhi, ylo, yhi = entry.bounds
            pend = entry.pending
            for cell in cells:
                _, x, y = cell
                # A change can only reach cost cells within distance 2,
                # so changes farther outside the window are irrelevant.
                if xlo - 2 <= x <= xhi + 2 and ylo - 2 <= y <= yhi + 2:
                    pend.append(cell)
        if self._guidance:
            dead = []
            for net_id, gent in self._guidance.items():
                xlo, xhi, ylo, yhi = gent.bounds
                for _, x, y in cells:
                    if xlo - 2 <= x <= xhi + 2 and ylo - 2 <= y <= yhi + 2:
                        dead.append(net_id)
                        break
            for net_id in dead:
                del self._guidance[net_id]
            if dead:
                obs.counter_inc(
                    "guidance_cache_invalidations_total", len(dead)
                )

    def on_grid_reset(self) -> None:
        self._entries.clear()
        self._guidance.clear()

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def grid_for(self, net_id: int, bounds: Bounds) -> np.ndarray:
        """The Eq. (5) cost grid for ``net_id`` over ``bounds``.

        Served from cache (repaired in place if occupancy changed) when
        a previously computed window contains ``bounds``; recomputed and
        cached otherwise. The returned array is owned by the cache —
        callers must not mutate it.
        """
        xlo, xhi, ylo, yhi = bounds
        entry = self._entries.get(net_id)
        if entry is not None:
            exlo, exhi, eylo, eyhi = entry.bounds
            if exlo <= xlo and xhi <= exhi and eylo <= ylo and yhi <= eyhi:
                if entry.pending:
                    self._repair(net_id, entry)
                self._entries.move_to_end(net_id)
                obs.counter_inc("overlay_cache_lookups_total", outcome="hit")
                if entry.bounds == bounds:
                    return entry.cost
                return entry.cost[
                    :, xlo - exlo : xhi - exlo + 1, ylo - eylo : yhi - eylo + 1
                ]
        obs.counter_inc("overlay_cache_lookups_total", outcome="miss")
        store_bounds = bounds
        if entry is not None:
            # The net is back with a bigger window (rip-up margin
            # growth): compute with a halo so further growth stays
            # within the cached bounds.
            halo = self.growth
            store_bounds = (
                max(xlo - halo, 0),
                min(xhi + halo, self.grid.width - 1),
                max(ylo - halo, 0),
                min(yhi + halo, self.grid.height - 1),
            )
        cost = overlay_cost_grid(
            self.grid._occ,
            self._horizontal,
            store_bounds,
            net_id,
            self.gamma,
            self.delta_tip,
        )
        self._entries[net_id] = _Entry(store_bounds, cost)
        self._entries.move_to_end(net_id)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        if store_bounds == bounds:
            return cost
        sxlo, _, sylo, _ = store_bounds
        return cost[
            :, xlo - sxlo : xhi - sxlo + 1, ylo - sylo : yhi - sylo + 1
        ]

    def clear(self) -> None:
        self._entries.clear()
        self._guidance.clear()

    # ------------------------------------------------------------------ #
    # Guidance-map memo (see repro.router.guidance)
    # ------------------------------------------------------------------ #

    def guidance_lookup(self, net_id: int, key: tuple):
        """A memoised future-cost map, or None.

        ``key`` captures everything the map depends on besides live
        occupancy — window bounds, target set and rip-up penalty
        signature; occupancy staleness is handled by the change
        listener dropping touched entries. Hits occur when the exact
        search is re-run (budget-doubling retries, replayed attempts).
        """
        gent = self._guidance.get(net_id)
        if gent is not None and gent.key == key:
            self._guidance.move_to_end(net_id)
            obs.counter_inc("guidance_cache_hits_total")
            return gent.dmap
        obs.counter_inc("guidance_cache_misses_total")
        return None

    def guidance_store(
        self, net_id: int, bounds: Bounds, key: tuple, dmap
    ) -> None:
        # ``dmap`` is opaque to the cache — the engine stores the map
        # pre-flattened (a plain list) so memo hits skip the conversion.
        self._guidance[net_id] = _GuidanceEntry(bounds, key, dmap)
        self._guidance.move_to_end(net_id)
        while len(self._guidance) > self.max_entries:
            self._guidance.popitem(last=False)

    # ------------------------------------------------------------------ #
    # Incremental repair
    # ------------------------------------------------------------------ #

    def _repair(self, net_id: int, entry: _Entry) -> None:
        """Recompute the cells a batch of occupancy changes can reach."""
        occ = self.grid._occ
        horizontal = self._horizontal
        gamma, delta_tip = self.gamma, self.delta_tip
        xlo, xhi, ylo, yhi = entry.bounds
        cost = entry.cost
        stale: set = set()
        for layer, x, y in entry.pending:
            if horizontal[layer]:
                for cx in range(max(x - 2, xlo), min(x + 2, xhi) + 1):
                    if ylo <= y <= yhi:
                        stale.add((layer, cx, y))
            else:
                for cy in range(max(y - 2, ylo), min(y + 2, yhi) + 1):
                    if xlo <= x <= xhi:
                        stale.add((layer, x, cy))
        entry.pending = []
        for layer, x, y in stale:
            cost[layer, x - xlo, y - ylo] = probe_cell(
                occ, horizontal, layer, x, y, net_id, gamma, delta_tip
            )
        obs.counter_inc("overlay_cache_repaired_cells_total", len(stale))
