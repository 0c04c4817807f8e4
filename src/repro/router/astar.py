"""Overlay-aware A* search on the multi-layer grid.

The search space is (layer, x, y). Within a layer, moves follow the
layer's preferred direction only (SADP lines are unidirectional); direction
changes go through vias. Sources and targets may have several candidate
locations (the multi-pin-candidate benchmarks), so the search is
multi-source / multi-target.

The per-cell cost implements Eq. (5): wirelength, via count, the type 2-b
penalty, plus transient rip-up penalties injected by the outer loop.

Performance notes — this loop dominates the router's runtime, so it has
two implementations that are *exactly* path- and cost-equivalent:

* the **fast path** (:meth:`AStarRouter._search_fast`, the default) maps
  every window cell to a flat integer index and keeps g-scores, parents,
  passability, targets and the per-cell cost in flat arrays. Heap entries
  are 4-tuples ``(f, g, tiebreak, idx)``; the inner loop does list reads
  instead of tuple hashing, dict probes and numpy scalar indexing. The
  Eq. (5) overlay grid is served by an :class:`OverlayCostCache` when one
  is attached, and the sparse rip-up ``penalty_map`` is folded into the
  flat cost array once per search;
* the **reference path** (:meth:`AStarRouter._search_reference`) is the
  original dict-based implementation. Production never runs it; it is
  kept as the executable specification — the equivalence tests call it
  directly and assert both produce identical node sequences and costs.

Once a fast search on a large enough window passes ``guidance_trigger``
expansions, it prunes its open list against an exact future-cost map
(:mod:`repro.router.guidance`): off-corridor heap entries are discarded
without changing the surviving search, so results stay bit-identical to
the unguided fast path while large searches expand a fraction of the
window.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..errors import RoutingError
from ..geometry import Point, Segment, points_to_segments
from ..grid import CellState, Direction, RoutingGrid, Via
from .cost import CostParams
from .guidance import (
    AUTO_TRIGGER_EXPANSIONS,
    GUIDANCE_MIN_CELLS,
    future_cost_map,
    prune_threshold,
)
from .overlay_cache import OverlayCostCache, overlay_cost_grid

#: A search-space node: (layer, x, y).
Node = Tuple[int, int, int]

#: A window over the grid plane: (xlo, xhi, ylo, yhi), inclusive.
Bounds = Tuple[int, int, int, int]

_FREE = int(CellState.FREE)


@dataclass
class SearchRequest:
    """One routing query: where a net may start and where it must end."""

    net_id: int
    sources: Sequence[Tuple[int, Point]]  # (layer, point) candidates
    targets: Sequence[Tuple[int, Point]]
    max_expansions: int = 400_000

    def __post_init__(self) -> None:
        if not self.sources or not self.targets:
            raise RoutingError("search needs at least one source and one target")


@dataclass
class SearchResult:
    """A found path, lowered to segments and vias."""

    nodes: List[Node]
    segments: List[Segment]
    vias: List[Via]
    cost: float
    expansions: int

    @property
    def wirelength(self) -> int:
        return sum(seg.length for seg in self.segments)

    @property
    def via_count(self) -> int:
        return len(self.vias)


class AStarRouter:
    """The inner search engine; stateless apart from grid references.

    Cost hooks:

    * ``penalty_map`` — a ``{(layer, x, y): cost}`` dict folded into the
      flat cost array once per search (the rip-up penalties; cheap);
    * ``overlay_terms=(gamma, delta_tip)`` — enables the Eq. (5)
      overlay grid against ``active_net`` (set per routed net);
    * ``overlay_cache`` — an :class:`OverlayCostCache` serving the
      Eq. (5) grid from memo instead of recomputing it per search.

    After every :meth:`search`, :attr:`last_outcome` reports ``"found"``,
    ``"failed"`` (exhausted the window — the target is unreachable), or
    ``"budget_exhausted"`` (hit ``max_expansions`` — the search ran out
    of budget, *not* of reachable cells). The rip-up loop uses the
    distinction to widen window/budget rather than penalise cells.
    """

    def __init__(
        self,
        grid: RoutingGrid,
        params: CostParams,
        penalty_map: Optional[Dict[Tuple[int, int, int], float]] = None,
        overlay_terms: Optional[Tuple[float, float]] = None,
        overlay_cache: Optional[OverlayCostCache] = None,
    ) -> None:
        self.grid = grid
        self.params = params
        self._penalty_map = penalty_map
        self._overlay_terms = overlay_terms
        self._overlay_cache = overlay_cache
        #: Future-cost corridor pruning: a fast search is upgraded in
        #: place once it crosses ``guidance_trigger`` unguided expansions
        #: (0 builds the map up front), so small searches never pay for
        #: a map. The reference path ignores this and stays the oracle.
        self.guidance_trigger = AUTO_TRIGGER_EXPANSIONS
        #: Windows below this many cells never build a map — the
        #: unguided flood over such a window is cheaper than the build
        #: (``math.inf`` turns guidance off).
        self.guidance_min_cells = GUIDANCE_MIN_CELLS
        #: Net whose own cells are exempt from the inlined overlay probe.
        self.active_net = -1
        #: Outcome of the most recent search (see class docstring).
        self.last_outcome = "failed"
        self._last_stats = (0, 0, 0)
        # Layer directions are immutable for a grid's lifetime — hoisted
        # out of the per-search setup.
        self._horizontal = [
            grid.layer_direction(l) is Direction.HORIZONTAL
            for l in range(grid.num_layers)
        ]

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #

    def search(
        self, request: SearchRequest, extra_margin: int = 0
    ) -> Optional[SearchResult]:
        """Run A*; None when no path exists within the window/budget.

        With observability enabled the search runs inside an
        ``astar_search`` span and publishes expansion/heap counters;
        disabled, the only extra work is this predicate.
        """
        ob = obs.get_active()
        if ob is None:
            return self._search(request, extra_margin)
        with ob.tracer.span(
            "astar_search", net_id=request.net_id, margin=extra_margin
        ) as sp:
            result = self._search(request, extra_margin)
        expansions, pushes, pops = self._last_stats
        sp.attrs["expansions"] = expansions
        sp.attrs["found"] = result is not None
        reg = ob.registry
        reg.counter("astar_searches_total", outcome=self.last_outcome).inc()
        reg.counter("astar_nodes_expanded_total").inc(expansions)
        reg.counter("astar_heap_pushes_total").inc(pushes)
        reg.counter("astar_heap_pops_total").inc(pops)
        return result

    def _search(
        self, request: SearchRequest, extra_margin: int = 0
    ) -> Optional[SearchResult]:
        self._last_stats = (0, 0, 0)
        self.last_outcome = "failed"
        result = self._search_fast(request, extra_margin)
        if result is not None:
            self.last_outcome = "found"
        return result

    # ------------------------------------------------------------------ #
    # Fast path: flat-index search state
    # ------------------------------------------------------------------ #

    def _search_fast(
        self, request: SearchRequest, extra_margin: int = 0
    ) -> Optional[SearchResult]:
        grid = self.grid
        params = self.params
        net_id = request.net_id
        occ = grid._occ  # hot path: direct array access
        num_layers = occ.shape[0]

        xlo, xhi, ylo, yhi = self._window(request, extra_margin)
        wx = xhi - xlo + 1
        wy = yhi - ylo + 1
        layer_stride = wx * wy
        n = num_layers * layer_stride

        is_target = bytearray(n)
        target_pts: List[Point] = []
        target_layers: List[int] = []
        for layer, pt in request.targets:
            if grid.in_bounds(layer, pt) and occ[layer, pt.x, pt.y] in (_FREE, net_id):
                is_target[layer * layer_stride + (pt.x - xlo) * wy + (pt.y - ylo)] = 1
                target_pts.append(pt)
                target_layers.append(layer)
        if not target_pts:
            return None

        txlo = min(p.x for p in target_pts)
        txhi = max(p.x for p in target_pts)
        tylo = min(p.y for p in target_pts)
        tyhi = max(p.y for p in target_pts)
        alpha = params.alpha
        beta = params.beta
        wrong_way = alpha * params.wrong_way_factor if params.wrong_way_factor else 0.0
        horizontal = self._horizontal

        # Window-local flat state: passability, per-cell extra cost,
        # g-scores and parent links, all indexed by
        # layer * layer_stride + (x - xlo) * wy + (y - ylo).
        occ_win = occ[:, xlo : xhi + 1, ylo : yhi + 1]
        passable = ((occ_win == _FREE) | (occ_win == net_id)).ravel().tolist()

        if self._overlay_terms is not None:
            own = self.active_net
            if self._overlay_cache is not None:
                cost_np = self._overlay_cache.grid_for(own, (xlo, xhi, ylo, yhi))
            else:
                gamma, delta_tip = self._overlay_terms
                cost_np = overlay_cost_grid(
                    occ, horizontal, (xlo, xhi, ylo, yhi), own, gamma, delta_tip
                )
            cost = cost_np.ravel().tolist()
        else:
            cost_np = None
            cost = [0.0] * n

        # Fold the sparse rip-up penalties in once, so the inner loop is
        # a single list read per neighbour.
        pen_map = self._penalty_map
        if pen_map:
            for (pl, px, py), amount in pen_map.items():
                if pl < num_layers and xlo <= px <= xhi and ylo <= py <= yhi:
                    cost[pl * layer_stride + (px - xlo) * wy + (py - ylo)] += amount

        # Admissible via lower bound for the heuristic: moving across a
        # layer's preferred direction requires reaching a layer of the
        # other orientation (and possibly coming back for the target).
        # It depends only on (layer, dx > 0, dy > 0) — tabulated.
        all_targets_horizontal = all(horizontal[l] for l in target_layers)
        all_targets_vertical = all(not horizontal[l] for l in target_layers)
        vb = [0.0] * (num_layers * 4)
        if not wrong_way:
            # Wrong-way jogs cross directions without vias; the via lower
            # bound would overestimate and break admissibility.
            for layer in range(num_layers):
                for dx_pos in (0, 1):
                    for dy_pos in (0, 1):
                        extra = 0
                        if dy_pos:
                            if horizontal[layer]:
                                extra += 1
                            if all_targets_horizontal:
                                extra += 1 if horizontal[layer] else 0
                        if dx_pos:
                            if not horizontal[layer]:
                                extra += 1
                            if all_targets_vertical:
                                extra += 1 if not horizontal[layer] else 0
                        vb[layer * 4 + dx_pos * 2 + dy_pos] = beta * extra

        counter = itertools.count()
        inf = float("inf")
        best_g = [inf] * n
        parent = [-1] * n
        open_heap: List[Tuple[float, float, int, int]] = []

        for layer, pt in request.sources:
            if not grid.in_bounds(layer, pt):
                continue
            if occ[layer, pt.x, pt.y] not in (_FREE, net_id):
                continue
            idx = layer * layer_stride + (pt.x - xlo) * wy + (pt.y - ylo)
            g = cost[idx]
            if g < best_g[idx]:
                best_g[idx] = g
                dx = txlo - pt.x if pt.x < txlo else (pt.x - txhi if pt.x > txhi else 0)
                dy = tylo - pt.y if pt.y < tylo else (pt.y - tyhi if pt.y > tyhi else 0)
                heapq.heappush(
                    open_heap,
                    (
                        g + alpha * (dx + dy) + vb[layer * 4 + (dx > 0) * 2 + (dy > 0)],
                        g,
                        next(counter),
                        idx,
                    ),
                )
        if not open_heap:
            return None

        # --- Future-cost corridor guidance (repro.router.guidance) ---- #
        # ``gd`` is the flat exact cost-to-go map, ``thr`` the corridor
        # bound T + eps with T = min_src(cost[src] + d(src)) = C*. An
        # entry with g + d > thr can never lie on the path A* returns,
        # and (d being consistent) everything it could ever relax is
        # itself prunable — dropping such entries leaves the surviving
        # search bit-identical, paths and costs included. thr = -inf
        # encodes "no target reachable from any source": every entry
        # prunes and the search fails immediately with the same
        # ``"failed"`` outcome the exhausted unguided search reaches.
        gd = None
        thr = inf
        # Upgrade mid-search once the expansion count proves the search
        # is not trivially small; nothing before the trigger differs from
        # an unguided run, so the switch is seamless. Windows too small
        # to amortize a map build never upgrade — even a fully flooded
        # small window costs less than the solve.
        if num_layers * wx * wy < self.guidance_min_cells:
            trigger = -1
        else:
            trigger = self.guidance_trigger

        def activate_guidance():
            passable_np = (occ_win == _FREE) | (occ_win == net_id)
            tmask = (
                np.frombuffer(bytes(is_target), dtype=np.uint8)
                .reshape(num_layers, wx, wy)
                .astype(bool)
            )
            bounds = (xlo, xhi, ylo, yhi)
            cache = self._overlay_cache
            memo = cache is not None
            dflat = None
            key = None
            if memo:
                pen_sig = tuple(sorted(pen_map.items())) if pen_map else None
                key = (bounds, bytes(is_target), pen_sig)
                dflat = cache.guidance_lookup(net_id, key)
            if dflat is None:
                # Fold the same per-cell extras the search pays (overlay
                # grid + rip-up penalties) with identical float ops, so
                # the map is exact for the costs the heap accumulates.
                if cost_np is not None:
                    carr = np.array(cost_np, dtype=np.float64)
                else:
                    carr = np.zeros((num_layers, wx, wy), dtype=np.float64)
                if pen_map:
                    for (pl, px, py), amount in pen_map.items():
                        if pl < num_layers and xlo <= px <= xhi and ylo <= py <= yhi:
                            carr[pl, px - xlo, py - ylo] += amount
                dmap = future_cost_map(
                    passable_np,
                    carr,
                    horizontal,
                    alpha,
                    beta,
                    params.wrong_way_factor,
                    tmask,
                )
                if dmap is None:
                    return None, inf  # degenerate window: stay unguided
                obs.counter_inc("guidance_maps_built_total")
                # Flatten to a Python list: the prune checks do one
                # scalar read per relaxation, and list indexing is ~3x
                # cheaper than numpy scalar indexing from the loop.
                dflat = dmap.ravel().tolist()
                if memo:
                    cache.guidance_store(net_id, bounds, key, dflat)
            t = inf
            for slayer, spt in request.sources:
                if not grid.in_bounds(slayer, spt):
                    continue
                if occ[slayer, spt.x, spt.y] not in (_FREE, net_id):
                    continue
                sidx = slayer * layer_stride + (spt.x - xlo) * wy + (spt.y - ylo)
                v = cost[sidx] + dflat[sidx]
                if v < t:
                    t = v
            obs.counter_inc("astar_guided_searches_total")
            return dflat, (prune_threshold(t) if t < inf else -inf)

        if trigger == 0:
            gd, thr = activate_guidance()
            trigger = -1

        expansions = 0
        pops = 0
        goal = -1
        push = heapq.heappush
        pop = heapq.heappop
        max_expansions = request.max_expansions
        while open_heap:
            f, g, _, idx = pop(open_heap)
            pops += 1
            if g > best_g[idx]:
                continue
            if is_target[idx]:
                goal = idx
                break
            if gd is not None and g + gd[idx] > thr:
                # Off-corridor: cannot be on the returned path, and
                # everything it would relax is off-corridor too.
                continue
            expansions += 1
            if expansions > max_expansions:
                self._last_stats = (expansions, next(counter), pops)
                self.last_outcome = "budget_exhausted"
                return None
            if expansions == trigger:
                gd, thr = activate_guidance()

            layer = idx // layer_stride
            rem = idx - layer * layer_stride
            lx = rem // wy
            ly = rem - lx * wy
            x = xlo + lx
            y = ylo + ly

            # In-layer steps: the preferred direction at cost alpha, and —
            # when enabled — wrong-way jogs at alpha * wrong_way_factor.
            if horizontal[layer]:
                steps = ((lx - 1, ly, -wy, alpha), (lx + 1, ly, wy, alpha))
                if wrong_way:
                    steps += ((lx, ly - 1, -1, wrong_way), (lx, ly + 1, 1, wrong_way))
            else:
                steps = ((lx, ly - 1, -1, alpha), (lx, ly + 1, 1, alpha))
                if wrong_way:
                    steps += ((lx - 1, ly, -wy, wrong_way), (lx + 1, ly, wy, wrong_way))
            for nlx, nly, didx, step_cost in steps:
                if not (0 <= nlx < wx and 0 <= nly < wy):
                    continue
                nidx = idx + didx
                if not passable[nidx]:
                    continue
                ng = g + step_cost + cost[nidx]
                if ng < best_g[nidx]:
                    if gd is not None and ng + gd[nidx] > thr:
                        continue
                    best_g[nidx] = ng
                    parent[nidx] = idx
                    nx = xlo + nlx
                    ny = ylo + nly
                    dx = txlo - nx if nx < txlo else (nx - txhi if nx > txhi else 0)
                    dy = tylo - ny if ny < tylo else (ny - tyhi if ny > tyhi else 0)
                    push(
                        open_heap,
                        (
                            ng
                            + alpha * (dx + dy)
                            + vb[layer * 4 + (dx > 0) * 2 + (dy > 0)],
                            ng,
                            next(counter),
                            nidx,
                        ),
                    )

            # Via moves.
            dx = txlo - x if x < txlo else (x - txhi if x > txhi else 0)
            dy = tylo - y if y < tylo else (y - tyhi if y > tyhi else 0)
            for nl in (layer - 1, layer + 1):
                if not 0 <= nl < num_layers:
                    continue
                nidx = idx + (nl - layer) * layer_stride
                if not passable[nidx]:
                    continue
                ng = g + beta + cost[nidx]
                if ng < best_g[nidx]:
                    if gd is not None and ng + gd[nidx] > thr:
                        continue
                    best_g[nidx] = ng
                    parent[nidx] = idx
                    push(
                        open_heap,
                        (
                            ng
                            + alpha * (dx + dy)
                            + vb[nl * 4 + (dx > 0) * 2 + (dy > 0)],
                            ng,
                            next(counter),
                            nidx,
                        ),
                    )

        self._last_stats = (expansions, next(counter), pops)
        if goal < 0:
            return None
        nodes: List[Node] = []
        cur = goal
        while cur >= 0:
            layer = cur // layer_stride
            rem = cur - layer * layer_stride
            lx = rem // wy
            nodes.append((layer, xlo + lx, ylo + rem - lx * wy))
            cur = parent[cur]
        nodes.reverse()
        segments, vias = self._lower(nodes)
        return SearchResult(
            nodes=nodes,
            segments=segments,
            vias=vias,
            cost=best_g[goal],
            expansions=expansions,
        )

    # ------------------------------------------------------------------ #
    # Reference path: the executable specification
    # ------------------------------------------------------------------ #

    def _search_reference(
        self, request: SearchRequest, extra_margin: int = 0
    ) -> Optional[SearchResult]:
        grid = self.grid
        params = self.params
        net_id = request.net_id
        occ = grid._occ
        num_layers = occ.shape[0]

        xlo, xhi, ylo, yhi = self._window(request, extra_margin)
        targets = set()
        target_pts: List[Point] = []
        for layer, pt in request.targets:
            if grid.in_bounds(layer, pt) and occ[layer, pt.x, pt.y] in (_FREE, net_id):
                targets.add((layer, pt.x, pt.y))
                target_pts.append(pt)
        if not targets:
            return None

        txlo = min(p.x for p in target_pts)
        txhi = max(p.x for p in target_pts)
        tylo = min(p.y for p in target_pts)
        tyhi = max(p.y for p in target_pts)
        alpha = params.alpha
        beta = params.beta
        wrong_way = alpha * params.wrong_way_factor if params.wrong_way_factor else 0.0
        pen_map = self._penalty_map
        horizontal = self._horizontal

        # Precompute the Eq. (5) overlay term over the window: occupancy
        # is frozen during one net's search, so the 2-b / tip-abutment
        # probes vectorise into a few numpy shifts. The reference path
        # always recomputes from scratch — it is the ground truth the
        # cached fast path is checked against.
        cost_grid = None
        if self._overlay_terms is not None:
            gamma, delta_tip = self._overlay_terms
            cost_grid = overlay_cost_grid(
                occ, horizontal, (xlo, xhi, ylo, yhi), self.active_net,
                gamma, delta_tip,
            )

        def cell_cost(layer: int, x: int, y: int) -> float:
            cost = 0.0
            if pen_map:
                cost += pen_map.get((layer, x, y), 0.0)
            if cost_grid is not None:
                cost += cost_grid[layer, x - xlo, y - ylo]
            return cost

        # Admissible via lower bound for the heuristic: moving across a
        # layer's preferred direction requires reaching a layer of the
        # other orientation (and possibly coming back for the target).
        all_targets_horizontal = all(horizontal[l] for l, _, _ in targets)
        all_targets_vertical = all(not horizontal[l] for l, _, _ in targets)

        def via_bound(layer: int, dx: int, dy: int) -> float:
            if wrong_way:
                # Wrong-way jogs cross directions without vias; the via
                # lower bound would overestimate and break admissibility.
                return 0.0
            extra = 0
            if dy > 0:
                if horizontal[layer]:
                    extra += 1
                if all_targets_horizontal:
                    extra += 1 if horizontal[layer] else 0
            if dx > 0:
                if not horizontal[layer]:
                    extra += 1
                if all_targets_vertical:
                    extra += 1 if not horizontal[layer] else 0
            return beta * extra

        counter = itertools.count()
        best_g: Dict[Node, float] = {}
        parent: Dict[Node, Optional[Node]] = {}
        open_heap: List[Tuple[float, float, int, int, int, int]] = []

        for layer, pt in request.sources:
            if not grid.in_bounds(layer, pt):
                continue
            if occ[layer, pt.x, pt.y] not in (_FREE, net_id):
                continue
            node = (layer, pt.x, pt.y)
            g = cell_cost(layer, pt.x, pt.y)
            if node not in best_g or g < best_g[node]:
                best_g[node] = g
                parent[node] = None
                dx = txlo - pt.x if pt.x < txlo else (pt.x - txhi if pt.x > txhi else 0)
                dy = tylo - pt.y if pt.y < tylo else (pt.y - tyhi if pt.y > tyhi else 0)
                heapq.heappush(
                    open_heap,
                    (
                        g + alpha * (dx + dy) + via_bound(layer, dx, dy),
                        g,
                        next(counter),
                        layer,
                        pt.x,
                        pt.y,
                    ),
                )
        if not open_heap:
            return None

        expansions = 0
        pops = 0
        goal: Optional[Node] = None
        push = heapq.heappush
        pop = heapq.heappop
        inf = float("inf")
        while open_heap:
            f, g, _, layer, x, y = pop(open_heap)
            pops += 1
            node = (layer, x, y)
            if g > best_g.get(node, inf):
                continue
            if node in targets:
                goal = node
                break
            expansions += 1
            if expansions > request.max_expansions:
                self._last_stats = (expansions, next(counter), pops)
                self.last_outcome = "budget_exhausted"
                return None

            # In-layer steps: the preferred direction at cost alpha, and —
            # when enabled — wrong-way jogs at alpha * wrong_way_factor.
            if horizontal[layer]:
                steps = ((x - 1, y, alpha), (x + 1, y, alpha))
                if wrong_way:
                    steps += ((x, y - 1, wrong_way), (x, y + 1, wrong_way))
            else:
                steps = ((x, y - 1, alpha), (x, y + 1, alpha))
                if wrong_way:
                    steps += ((x - 1, y, wrong_way), (x + 1, y, wrong_way))
            for nx, ny, step_cost in steps:
                if not (xlo <= nx <= xhi and ylo <= ny <= yhi):
                    continue
                owner = occ[layer, nx, ny]
                if owner != _FREE and owner != net_id:
                    continue
                ng = g + step_cost + cell_cost(layer, nx, ny)
                nxt = (layer, nx, ny)
                if ng < best_g.get(nxt, inf):
                    best_g[nxt] = ng
                    parent[nxt] = node
                    dx = txlo - nx if nx < txlo else (nx - txhi if nx > txhi else 0)
                    dy = tylo - ny if ny < tylo else (ny - tyhi if ny > tyhi else 0)
                    push(
                        open_heap,
                        (
                            ng + alpha * (dx + dy) + via_bound(layer, dx, dy),
                            ng,
                            next(counter),
                            layer,
                            nx,
                            ny,
                        ),
                    )

            # Via moves.
            for nl in (layer - 1, layer + 1):
                if not 0 <= nl < num_layers:
                    continue
                owner = occ[nl, x, y]
                if owner != _FREE and owner != net_id:
                    continue
                ng = g + beta + cell_cost(nl, x, y)
                nxt = (nl, x, y)
                if ng < best_g.get(nxt, inf):
                    best_g[nxt] = ng
                    parent[nxt] = node
                    dx = txlo - x if x < txlo else (x - txhi if x > txhi else 0)
                    dy = tylo - y if y < tylo else (y - tyhi if y > tyhi else 0)
                    push(
                        open_heap,
                        (
                            ng + alpha * (dx + dy) + via_bound(nl, dx, dy),
                            ng,
                            next(counter),
                            nl,
                            x,
                            y,
                        ),
                    )

        self._last_stats = (expansions, next(counter), pops)
        if goal is None:
            return None
        nodes = self._backtrace(parent, goal)
        segments, vias = self._lower(nodes)
        return SearchResult(
            nodes=nodes,
            segments=segments,
            vias=vias,
            cost=best_g[goal],
            expansions=expansions,
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _window(self, request: SearchRequest, extra_margin: int) -> Bounds:
        """The search window: pin bbox + margin, clipped to the die."""
        pts = [pt for _, pt in request.sources] + [pt for _, pt in request.targets]
        margin = self.params.search_margin + extra_margin
        xlo = max(0, min(p.x for p in pts) - margin)
        xhi = min(self.grid.width - 1, max(p.x for p in pts) + margin)
        ylo = max(0, min(p.y for p in pts) - margin)
        yhi = min(self.grid.height - 1, max(p.y for p in pts) + margin)
        return xlo, xhi, ylo, yhi

    @staticmethod
    def _backtrace(parent: Dict[Node, Optional[Node]], goal: Node) -> List[Node]:
        nodes = [goal]
        while parent[nodes[-1]] is not None:
            nodes.append(parent[nodes[-1]])  # type: ignore[arg-type]
        nodes.reverse()
        return nodes

    @staticmethod
    def _lower(nodes: List[Node]) -> Tuple[List[Segment], List[Via]]:
        """Convert a node path into per-layer segments plus vias."""
        segments: List[Segment] = []
        vias: List[Via] = []
        run: List[Point] = []
        run_layer = nodes[0][0]
        for layer, x, y in nodes:
            pt = Point(x, y)
            if layer != run_layer:
                if run:
                    segments.extend(points_to_segments(run_layer, run))
                vias.append(Via(lower=min(layer, run_layer), at=pt))
                run = [pt]
                run_layer = layer
            else:
                run.append(pt)
        if run:
            segments.extend(points_to_segments(run_layer, run))
        return segments, vias
