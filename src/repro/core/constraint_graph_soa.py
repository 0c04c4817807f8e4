"""SoA backend of the overlay constraint graph.

Same contract as :class:`~repro.core.constraint_graph.OverlayConstraintGraph`
(which stays as the bit-exact object reference), but edges live in a
columnar :class:`~repro.core.edge_store.EdgeStore` and the hot queries —
batch scenario insertion, pricing, pseudo-color totals, and the
flip-time component contraction — run as numpy array operations.

Bit-identity notes: every cost in the system is an integer-valued
float64 (Table II units, CUT_VETO, HARD=inf), so sums are exact and
accumulation order cannot change results. Orderings that *do* leak into
results (edge insertion order, incident traversal order, hard-union
order, unit-root identity) are replicated exactly from the object path.

The hard union-find is maintained component-locally: a removal marks
the removed net and its hard neighbours stale, and the deferred rebuild
forgets and replays only the hard components reachable from them
(the object path replays every live hard edge on the layer).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .. import obs
from ..color import Color
from .constraint_graph import Evaluation, OverlayConstraintGraph
from .edge_store import (
    EdgeStore,
    HARD_DIFF_CODE,
    HARD_SAME_CODE,
    KIND_IS_HARD,
    KIND_ORDER,
    SCENARIO_INDEX,
)
from .edges import ConstraintEdge, CUT_VETO
from .odd_cycle import ParityUnionFind
from .scenario_detect import DetectedScenario

_HARD_CODES = (HARD_DIFF_CODE, HARD_SAME_CODE)

#: Python-native kind-code -> hardness (mirror-list fast paths).
_KIND_IS_HARD_PY = KIND_IS_HARD.tolist()

#: Incident-degree cutoff between the scalar mirror-list path and the
#: numpy path of the pricing queries (matches edge_store.SMALL_BATCH).
_SMALL = 32

#: _COLORS index of each color (matches color_flip._IDX).
_CIDX = {Color.CORE: 0, Color.SECOND: 1}
_COLORS = (Color.CORE, Color.SECOND)


class SoAOverlayConstraintGraph(OverlayConstraintGraph):
    """Drop-in constraint graph over columnar edge storage."""

    def __init__(self) -> None:
        super().__init__()
        self._store = EdgeStore()
        #: Removed nets and their hard neighbours since the last rebuild:
        #: every hard component a removal may have split contains one, so
        #: the rebuild re-derives just the components reachable from them.
        self._uf_stale: Set[int] = set()

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #

    @property
    def edges(self) -> List[ConstraintEdge]:
        return self._store.materialize_many(self._store.live_rows())

    def num_edges(self) -> int:
        return self._store.live

    def edges_of(self, net_id: int) -> List[ConstraintEdge]:
        return self._store.materialize_many(self._store.incident.get(net_id, ()))

    def add_scenarios(
        self, scenarios: Sequence[DetectedScenario]
    ) -> List[DetectedScenario]:
        """Batch-insert one edge per detected scenario.

        The vector twin of ``add_edges(ConstraintEdge.from_scenario(sc)
        for sc in scenarios)``: same counters, same hard-union order,
        but row construction is one table gather. Returns the scenarios
        whose hard edges closed odd cycles (in insertion order).
        """
        if self._uf_dirty:
            self._rebuild_hard_uf()
        ob = obs.get_active()
        offenders: List[DetectedScenario] = []
        if not scenarios:
            if ob is not None:
                self._flush_uf_stats(ob)
            return offenders
        store = self._store
        rows = store.append_scenarios(
            [sc.net_a for sc in scenarios],
            [sc.net_b for sc in scenarios],
            [SCENARIO_INDEX[sc.scenario] for sc in scenarios],
            [sc.a_is_tip_owner for sc in scenarios],
            [sc.overlap for sc in scenarios],
        )
        kinds = store.kinds
        us = store.us
        vs = store.vs
        pars = store.pars
        touched: Set[int] = set()
        vertices = self._vertices
        for sc, row in zip(scenarios, rows):
            store.link(row)
            vertices.add(sc.net_a)
            vertices.add(sc.net_b)
            touched.add(sc.net_a)
            touched.add(sc.net_b)
        if ob is not None:
            counts: Dict[int, int] = {}
            for row in rows:
                code = kinds[row]
                counts[code] = counts.get(code, 0) + 1
            for code, n in counts.items():
                ob.registry.counter(
                    "ocg_edges_added_total", kind=KIND_ORDER[code].value
                ).inc(n)
        union = self._hard_uf.union
        for sc, row in zip(scenarios, rows):
            if _KIND_IS_HARD_PY[kinds[row]]:
                if not union(us[row], vs[row], pars[row]):
                    offenders.append(sc)
                    if ob is not None:
                        ob.registry.counter("ocg_odd_cycle_hits_total").inc()
        if touched:
            self._touch(touched)
        if ob is not None:
            self._flush_uf_stats(ob)
        return offenders

    def add_edges(self, edges: Iterable[ConstraintEdge]) -> List[ConstraintEdge]:
        """Object-compat insertion path (tests, tools); same semantics."""
        offenders: List[ConstraintEdge] = []
        if self._uf_dirty:
            self._rebuild_hard_uf()
        ob = obs.get_active()
        store = self._store
        touched: Set[int] = set()
        for edge in edges:
            row = store.append_edge(edge)
            store.link(row)
            self._vertices.add(edge.u)
            self._vertices.add(edge.v)
            touched.add(edge.u)
            touched.add(edge.v)
            if ob is not None:
                ob.registry.counter(
                    "ocg_edges_added_total", kind=edge.kind.value
                ).inc()
            if edge.kind.is_hard:
                if not self._hard_uf.union(edge.u, edge.v, edge.parity):
                    offenders.append(edge)
                    if ob is not None:
                        ob.registry.counter("ocg_odd_cycle_hits_total").inc()
        if touched:
            self._touch(touched)
        if ob is not None:
            self._flush_uf_stats(ob)
        return offenders

    def remove_net(self, net_id: int) -> int:
        store = self._store
        rows = store.incident.get(net_id)
        self._net_stamp.pop(net_id, None)
        if not rows:
            store.incident.pop(net_id, None)
            self._vertices.discard(net_id)
            return 0
        us = store.us
        vs = store.vs
        kinds = store.kinds
        neighbours = set()
        hard_neighbours = []
        for row in rows:
            other = vs[row] if us[row] == net_id else us[row]
            neighbours.add(other)
            if _KIND_IS_HARD_PY[kinds[row]]:
                hard_neighbours.append(other)
        dead = store.kill_net(net_id)
        self._vertices.discard(net_id)
        self._touch(neighbours)
        if hard_neighbours:
            self._uf_stale.add(net_id)
            self._uf_stale.update(hard_neighbours)
            self._uf_dirty = True
        return len(dead)

    def _rebuild_hard_uf(self) -> None:
        """Re-derive only the hard components the pending removals touched.

        The region is everything reachable over live hard rows from the
        stale nets: the union of the old components, possibly split.
        Forgetting it and replaying its rows in ascending row id (rows are
        append-only, so that is insertion order) repeats the union
        sequence a full replay would make on those components; the
        others keep their trees, which that full replay would rebuild
        identically. Roots, parities and offenders match the object
        engine's full rebuild exactly.
        """
        self._uf_dirty = False
        region = self._uf_stale
        self._uf_stale = set()
        store = self._store
        us = store.us
        vs = store.vs
        kinds = store.kinds
        pars = store.pars
        incident = store.incident
        stack = list(region)
        rows: Set[int] = set()
        while stack:
            node = stack.pop()
            for row in incident.get(node, ()):
                if _KIND_IS_HARD_PY[kinds[row]] and row not in rows:
                    rows.add(row)
                    other = vs[row] if us[row] == node else us[row]
                    if other not in region:
                        region.add(other)
                        stack.append(other)
        uf = self._hard_uf
        uf.forget(region)
        union = uf.union
        for row in sorted(rows):
            union(us[row], vs[row], pars[row])
        ob = obs.get_active()
        if ob is not None:
            ob.registry.counter("ocg_uf_rebuilds_total").inc()
            ob.registry.counter("ocg_uf_rebuild_rows_total").inc(len(rows))
            self._flush_uf_stats(ob)

    def has_hard_odd_cycle(self) -> bool:
        """CSR parity sweep over the live hard edges (numpy BFS)."""
        return not self._store.hard_parity_consistent()

    # ------------------------------------------------------------------ #
    # Pricing
    # ------------------------------------------------------------------ #

    def _color_index_arrays(
        self, nets: np.ndarray, coloring: Dict[int, Color]
    ) -> np.ndarray:
        """Per-net color index (0=CORE default) for sorted ``nets``."""
        get = coloring.get
        return np.fromiter(
            (_CIDX[get(int(n), Color.CORE)] for n in nets),
            dtype=np.int64,
            count=nets.size,
        )

    def _pair_indices(
        self, rows: np.ndarray, coloring: Dict[int, Color]
    ) -> np.ndarray:
        """ALL_PAIRS index (2*cu + cv) of every row under ``coloring``."""
        store = self._store
        store._sync()
        us = store.u[rows]
        vs = store.v[rows]
        nets = np.unique(np.concatenate((us, vs)))
        cidx = self._color_index_arrays(nets, coloring)
        cu = cidx[np.searchsorted(nets, us)]
        cv = cidx[np.searchsorted(nets, vs)]
        return (cu << 1) | cv

    def evaluate(self, coloring: Dict[int, Color]) -> Evaluation:
        rows = self._store.live_rows()
        if rows.size == 0:
            return Evaluation(overlay_units=0.0, hard_violations=0, cut_risks=0)
        idx = self._pair_indices(rows, coloring)
        sel = np.arange(rows.size)
        costs = self._store.cost[rows][sel, idx]
        hard = np.isinf(costs)
        overlay = float(costs[~hard].sum())
        risks = int(np.count_nonzero(self._store.risk[rows][sel, idx]))
        return Evaluation(
            overlay_units=overlay,
            hard_violations=int(np.count_nonzero(hard)),
            cut_risks=risks,
        )

    def net_cost(self, net_id: int, coloring: Dict[int, Color]) -> float:
        store = self._store
        rows = store.incident.get(net_id)
        if not rows:
            return 0.0
        if len(rows) < _SMALL:
            us = store.us
            vs = store.vs
            cost4 = store.cost4
            get = coloring.get
            total = 0.0
            for row in rows:
                cu = _CIDX[get(us[row], Color.CORE)]
                cv = _CIDX[get(vs[row], Color.CORE)]
                total += cost4[row][(cu << 1) | cv]
            return total
        arr = np.asarray(rows, dtype=np.int64)
        idx = self._pair_indices(arr, coloring)
        return float(store.cost[arr][np.arange(arr.size), idx].sum())

    def incident_dp_totals(
        self, net_id: int, coloring: Dict[int, Color]
    ) -> Tuple[float, float]:
        """(total CORE, total SECOND) DP cost of coloring one net.

        The vector twin of the pseudo-coloring scan: for each candidate
        color of ``net_id``, sums the DP cost (physical + cut veto) over
        its incident edges with neighbours at their current colors.
        """
        store = self._store
        rows = store.incident.get(net_id)
        if not rows:
            return 0.0, 0.0
        if len(rows) < _SMALL:
            us = store.us
            vs = store.vs
            dp4 = store.dp4
            get = coloring.get
            t0 = 0.0
            t1 = 0.0
            for row in rows:
                u = us[row]
                d = dp4[row]
                if u == net_id:
                    c = _CIDX[get(vs[row], Color.CORE)]
                    t0 += d[c]
                    t1 += d[2 | c]
                else:
                    c = _CIDX[get(u, Color.CORE)]
                    t0 += d[c << 1]
                    t1 += d[(c << 1) | 1]
            return t0, t1
        arr = np.asarray(rows, dtype=np.int64)
        store._sync()
        usa = store.u[arr]
        vsa = store.v[arr]
        u_is_net = usa == net_id
        others = np.where(u_is_net, vsa, usa)
        nets = np.unique(others)
        cother = self._color_index_arrays(nets, coloring)[
            np.searchsorted(nets, others)
        ]
        dp = store.dp_cost(arr)
        sel = np.arange(arr.size)
        totals = []
        for own in (0, 1):
            cu = np.where(u_is_net, own, cother)
            cv = np.where(u_is_net, cother, own)
            totals.append(float(dp[sel, (cu << 1) | cv].sum()))
        return totals[0], totals[1]

    # ------------------------------------------------------------------ #
    # Components
    # ------------------------------------------------------------------ #

    def components(self) -> List[Set[int]]:
        seen: Set[int] = set()
        out: List[Set[int]] = []
        for start in sorted(self._vertices):
            if start in seen:
                continue
            comp = self.component_of(start)
            seen |= comp
            out.append(comp)
        return out

    def component_of(self, net_id: int) -> Set[int]:
        # Faithful replication of the object DFS: comp-set insertion
        # order feeds set-iteration order downstream (edges_within →
        # hard-union order → unit-root identity), so it must match.
        store = self._store
        us = store.us
        vs = store.vs
        incident = store.incident
        comp = {net_id}
        stack = [net_id]
        while stack:
            node = stack.pop()
            for row in incident.get(node, ()):
                other = vs[row] if us[row] == node else us[row]
                if other not in comp:
                    comp.add(other)
                    stack.append(other)
        return comp

    def _rows_within(self, nets: Set[int]) -> np.ndarray:
        """Rows with both endpoints in ``nets``, in the object path's
        edges_within order (incident traversal, first-occurrence dedup)."""
        incident = self._store.incident
        cand: List[int] = []
        for node in nets:
            rows = incident.get(node)
            if rows:
                cand.extend(rows)
        if not cand:
            return np.empty(0, dtype=np.int64)
        arr = np.asarray(cand, dtype=np.int64)
        _, first = np.unique(arr, return_index=True)
        first.sort()
        arr = arr[first]
        keys = np.fromiter(nets, dtype=np.int64, count=len(nets))
        keys.sort()
        store = self._store
        store._sync()
        us = store.u[arr]
        vs = store.v[arr]
        pu = np.searchsorted(keys, us)
        pv = np.searchsorted(keys, vs)
        np.minimum(pu, keys.size - 1, out=pu)
        np.minimum(pv, keys.size - 1, out=pv)
        return arr[(keys[pu] == us) & (keys[pv] == vs)]

    def edges_within(self, nets: Set[int]) -> List[ConstraintEdge]:
        return self._store.materialize_many(self._rows_within(nets))

    # ------------------------------------------------------------------ #
    # Flip-time contraction (vector twin of color_flip._contract)
    # ------------------------------------------------------------------ #

    def _rows_within_list(self, nets: Set[int]) -> List[int]:
        """Scalar twin of :meth:`_rows_within` (same order contract)."""
        incident = self._store.incident
        us = self._store.us
        vs = self._store.vs
        seen: set = set()
        out: List[int] = []
        for node in nets:
            rows = incident.get(node)
            if rows:
                for r in rows:
                    if r not in seen:
                        seen.add(r)
                        if us[r] in nets and vs[r] in nets:
                            out.append(r)
        return out

    def contract_component(self, comp: Set[int]):
        from .color_flip import _UnitGraph

        store = self._store
        if len(comp) <= 32:
            return self._contract_scalar(comp)
        rows = self._rows_within(comp)
        uf = ParityUnionFind()
        for net in comp:
            uf.add(net)
        hard_mask = (
            KIND_IS_HARD[store.kind[rows]]
            if rows.size
            else np.empty(0, dtype=bool)
        )
        for row in rows[hard_mask]:
            if not uf.union(
                int(store.u[row]), int(store.v[row]), int(store.parity[row])
            ):
                return None

        ug = _UnitGraph()
        nets_sorted = sorted(set(comp))
        n = len(nets_sorted)
        roots = np.empty(n, dtype=np.int64)
        pars = np.empty(n, dtype=np.int64)
        unit_pos: Dict[int, int] = {}
        for i, net in enumerate(nets_sorted):
            root, parity = uf.find(net)
            roots[i] = root
            pars[i] = parity
            if root not in ug.members:
                ug.members[root] = []
                ug.units.append(root)
                ug.self_cost[root] = [0.0, 0.0]
                unit_pos[root] = len(ug.units) - 1
            ug.members[root].append((net, parity))

        soft = rows[~hard_mask]
        if soft.size == 0:
            return ug
        net_keys = np.asarray(nets_sorted, dtype=np.int64)
        iu = np.searchsorted(net_keys, store.u[soft])
        iv = np.searchsorted(net_keys, store.v[soft])
        ru = roots[iu]
        rv = roots[iv]
        pu = pars[iu]
        pv = pars[iv]
        dp = store.dp_cost(soft)
        sel_all = np.arange(soft.size)

        self_mask = ru == rv
        if np.any(self_mask):
            dps = dp[self_mask]
            pus = pu[self_mask]
            pvs = pv[self_mask]
            sel = np.arange(dps.shape[0])
            # Unit-color c costs dp[2*(c^pu) + (c^pv)].
            cost0 = dps[sel, (pus << 1) | pvs]
            cost1 = dps[sel, ((1 - pus) << 1) | (1 - pvs)]
            uidx = np.fromiter(
                (unit_pos[int(r)] for r in ru[self_mask]),
                dtype=np.int64,
                count=dps.shape[0],
            )
            acc0 = np.zeros(len(ug.units))
            acc1 = np.zeros(len(ug.units))
            np.add.at(acc0, uidx, cost0)
            np.add.at(acc1, uidx, cost1)
            for k, unit in enumerate(ug.units):
                sc = ug.self_cost[unit]
                sc[0] += float(acc0[k])
                sc[1] += float(acc1[k])

        pair_mask = ~self_mask
        if np.any(pair_mask):
            dpp = dp[pair_mask]
            rup = ru[pair_mask]
            rvp = rv[pair_mask]
            pup = pu[pair_mask]
            pvp = pv[pair_mask]
            swap = rup > rvp
            a = np.where(swap, rvp, rup)
            b = np.where(swap, rup, rvp)
            sel = np.arange(dpp.shape[0])
            out = np.empty((dpp.shape[0], 4))
            for k, (i, j) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
                # matrix[i][j] = dp[2*(i^pu) + (j^pv)]; transposed
                # (swapped canonical order) reads dp[2*(j^pu) + (i^pv)].
                src = np.where(
                    swap,
                    ((j ^ pup) << 1) | (i ^ pvp),
                    ((i ^ pup) << 1) | (j ^ pvp),
                )
                out[:, k] = dpp[sel, src]
            key = (a << 32) | b
            ukey, inv = np.unique(key, return_inverse=True)
            acc = np.zeros((ukey.size, 4))
            np.add.at(acc, inv, out)
            ua = ukey >> 32
            ub = ukey & 0xFFFFFFFF
            for g in range(ukey.size):
                ug.pair_cost[(int(ua[g]), int(ub[g]))] = [
                    [float(acc[g, 0]), float(acc[g, 1])],
                    [float(acc[g, 2]), float(acc[g, 3])],
                ]
        return ug

    def _contract_scalar(self, comp: Set[int]):
        """Mirror-based contraction for small components.

        Follows the object path's edge order exactly; all accumulated
        values are integer-valued float64, so the summation order shared
        with the wide path cannot change a single bit.
        """
        from .color_flip import _UnitGraph

        store = self._store
        rows = self._rows_within_list(comp)
        us = store.us
        vs = store.vs
        kinds = store.kinds
        pars = store.pars
        dp4 = store.dp4
        uf = ParityUnionFind()
        for net in comp:
            uf.add(net)
        union = uf.union
        soft: List[int] = []
        for r in rows:
            if _KIND_IS_HARD_PY[kinds[r]]:
                if not union(us[r], vs[r], pars[r]):
                    return None
            else:
                soft.append(r)

        ug = _UnitGraph()
        members = ug.members
        self_cost = ug.self_cost
        find = uf.find
        for net in sorted(comp):
            root, parity = find(net)
            if root not in members:
                members[root] = []
                ug.units.append(root)
                self_cost[root] = [0.0, 0.0]
            members[root].append((net, parity))

        for r in soft:
            d = dp4[r]
            ru, pu = find(us[r])
            rv, pv = find(vs[r])
            if ru == rv:
                sc = self_cost[ru]
                sc[0] += d[(pu << 1) | pv]
                sc[1] += d[((1 - pu) << 1) | (1 - pv)]
            else:
                # matrix[i][j] = dp[2*(i^pu) + (j^pv)]
                ug.add_pair_cost(
                    ru,
                    rv,
                    [
                        [d[(pu << 1) | pv], d[(pu << 1) | (1 ^ pv)]],
                        [d[((1 ^ pu) << 1) | pv], d[((1 ^ pu) << 1) | (1 ^ pv)]],
                    ],
                )
        return ug
