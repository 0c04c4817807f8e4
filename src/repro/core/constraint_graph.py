"""The overlay constraint graph (Section III-B).

One graph per routing layer. Vertices are routed nets (per-layer color
freedom: "a net can be assigned to different colors in different routing
layers"); edges are scenario instances. The graph maintains a parity
union-find over its hard edges so that inserting a net's edges detects
hard odd cycles immediately, and it prices any color assignment (side
overlay units + type A cut risks) for the flipping machinery.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .. import obs
from ..color import Color
from .edges import ConstraintEdge, EdgeKind
from .odd_cycle import ParityUnionFind
from .scenario_detect import DetectedScenario
from .scenarios import HARD


@dataclass(frozen=True)
class Evaluation:
    """Price of a color assignment on one layer's graph."""

    overlay_units: float
    hard_violations: int
    cut_risks: int

    @property
    def feasible(self) -> bool:
        return self.hard_violations == 0


class OverlayConstraintGraph:
    """Multigraph of constraint edges with incremental hard-cycle checking."""

    def __init__(self) -> None:
        self._edges: List[ConstraintEdge] = []
        #: The hard subset of ``_edges`` in insertion order — the rebuild
        #: below replays exactly these, so keeping them separate turns a
        #: full-edge-list scan (with an enum-membership test per edge)
        #: into a direct walk.
        self._hard_edges: List[ConstraintEdge] = []
        self._incident: Dict[int, List[ConstraintEdge]] = defaultdict(list)
        self._hard_uf = ParityUnionFind()
        #: True when removals invalidated ``_hard_uf``; the rebuild is
        #: deferred to the next hard-edge union or parity query so a
        #: multi-net rip-up pays for one rebuild, not one per net.
        self._uf_dirty = False
        self._vertices: Set[int] = set()
        # Mutation stamps: every structural change bumps the graph stamp
        # and marks the touched nets with it, so a connected component's
        # version (max member stamp) is cheap to compute and changes iff
        # anything inside the component changed. flip_colors keys its
        # per-component result cache on this.
        self._stamp = 0
        self._net_stamp: Dict[int, int] = {}
        #: flip_colors result cache: (min(component), refine) ->
        #: (version, members, colors). Owned by the graph so it lives and
        #: dies with the structure it mirrors; ``flip_cache_enabled``
        #: turns it off for A/B equivalence tests.
        self.flip_cache: Dict[
            Tuple[int, bool], Tuple[int, frozenset, Dict[int, Color]]
        ] = {}
        self.flip_cache_enabled = True
        # Union-find op accounting across rebuilds (retired = ops made by
        # union-finds that were since thrown away; published = what the
        # metrics registry has already been told).
        self._uf_retired_finds = 0
        self._uf_retired_unions = 0
        self._uf_published_finds = 0
        self._uf_published_unions = 0

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #

    @property
    def vertices(self) -> Set[int]:
        return set(self._vertices)

    @property
    def edges(self) -> List[ConstraintEdge]:
        return list(self._edges)

    def num_edges(self) -> int:
        return len(self._edges)

    def edges_of(self, net_id: int) -> List[ConstraintEdge]:
        return list(self._incident.get(net_id, ()))

    def add_vertex(self, net_id: int) -> None:
        """Register a net even if it has no scenario yet (isolated vertex)."""
        if net_id not in self._vertices:
            self._vertices.add(net_id)
            self._touch((net_id,))

    def _touch(self, nets: Iterable[int]) -> None:
        self._stamp += 1
        stamp = self._stamp
        for net in nets:
            self._net_stamp[net] = stamp

    def component_version(self, nets: Iterable[int]) -> int:
        """Monotone version of a component: max mutation stamp over it."""
        get = self._net_stamp.get
        return max((get(net, 0) for net in nets), default=0)

    def add_edges(self, edges: Iterable[ConstraintEdge]) -> List[ConstraintEdge]:
        """Insert scenario edges; returns the hard edges that closed odd
        cycles (empty list = consistent).

        On failure the inserted edges *remain* in the graph — the router
        rips up the offending net, which calls :meth:`remove_net` and
        restores consistency. This mirrors the paper's flow (Fig. 19,
        lines 4-9): update, check, rip-up on violation.
        """
        offenders: List[ConstraintEdge] = []
        if self._uf_dirty:
            self._rebuild_hard_uf()
        ob = obs.get_active()
        touched: Set[int] = set()
        for edge in edges:
            self._edges.append(edge)
            self._incident[edge.u].append(edge)
            self._incident[edge.v].append(edge)
            self._vertices.add(edge.u)
            self._vertices.add(edge.v)
            touched.add(edge.u)
            touched.add(edge.v)
            if ob is not None:
                ob.registry.counter(
                    "ocg_edges_added_total", kind=edge.kind.value
                ).inc()
            if edge.kind.is_hard:
                self._hard_edges.append(edge)
                if not self._hard_uf.union(edge.u, edge.v, edge.parity):
                    offenders.append(edge)
                    if ob is not None:
                        ob.registry.counter("ocg_odd_cycle_hits_total").inc()
        if touched:
            self._touch(touched)
        if ob is not None:
            self._flush_uf_stats(ob)
        return offenders

    def add_scenarios(
        self, scenarios: Sequence[DetectedScenario]
    ) -> List[DetectedScenario]:
        """Insert one edge per detected scenario; returns the scenarios
        whose hard edges closed odd cycles (in insertion order).

        The router's commit API: one :class:`ConstraintEdge` per scenario,
        inserted through :meth:`add_edges`.
        """
        edges = [
            ConstraintEdge.from_scenario(
                sc.net_a, sc.net_b, sc.scenario, sc.a_is_tip_owner, sc.overlap
            )
            for sc in scenarios
        ]
        scenario_of_edge = {id(edge): sc for edge, sc in zip(edges, scenarios)}
        return [scenario_of_edge[id(edge)] for edge in self.add_edges(edges)]

    def remove_net(self, net_id: int) -> int:
        """Remove a net and its incident edges; returns edges removed.

        The parity union-find does not support deletion, so it is rebuilt
        from the surviving hard edges. This reference engine replays every
        live hard edge on the layer: linear in the layer's hard edges per
        rebuild, which is far from negligible on rip-up-heavy designs
        (hundreds of rows per rebuild, thousands of rebuilds on Test5 at
        scale 0.25). The SoA engine rebuilds only the hard components the
        removal touched and reaches the same union-find.
        """
        incident = self._incident.pop(net_id, [])
        self._net_stamp.pop(net_id, None)
        if not incident:
            self._vertices.discard(net_id)
            return 0
        doomed = set(map(id, incident))
        self._edges = [e for e in self._edges if id(e) not in doomed]
        neighbours = set()
        for edge in incident:
            other = edge.other(net_id)
            neighbours.add(other)
            self._incident[other] = [
                e for e in self._incident[other] if id(e) not in doomed
            ]
        self._vertices.discard(net_id)
        self._touch(neighbours)
        if any(e.kind.is_hard for e in incident):
            # Only hard edges live in the union-find; dropping a net with
            # none leaves it valid as-is.
            self._hard_edges = [e for e in self._hard_edges if id(e) not in doomed]
            self._uf_dirty = True
        return len(incident)

    def _rebuild_hard_uf(self) -> None:
        self._uf_dirty = False
        self._uf_retired_finds += self._hard_uf.find_ops
        self._uf_retired_unions += self._hard_uf.union_ops
        self._hard_uf = ParityUnionFind()
        for edge in self._hard_edges:
            self._hard_uf.union(edge.u, edge.v, edge.parity)
        ob = obs.get_active()
        if ob is not None:
            ob.registry.counter("ocg_uf_rebuilds_total").inc()
            ob.registry.counter("ocg_uf_rebuild_rows_total").inc(
                len(self._hard_edges)
            )
            self._flush_uf_stats(ob)

    def _flush_uf_stats(self, ob) -> None:
        """Publish union-find op deltas since the last flush."""
        finds = self._uf_retired_finds + self._hard_uf.find_ops
        unions = self._uf_retired_unions + self._hard_uf.union_ops
        if finds > self._uf_published_finds:
            ob.registry.counter("uf_find_ops_total").inc(
                finds - self._uf_published_finds
            )
            self._uf_published_finds = finds
        if unions > self._uf_published_unions:
            ob.registry.counter("uf_union_ops_total").inc(
                unions - self._uf_published_unions
            )
            self._uf_published_unions = unions

    # ------------------------------------------------------------------ #
    # Hard-constraint queries
    # ------------------------------------------------------------------ #

    def has_hard_odd_cycle(self) -> bool:
        """Full recheck: is the current hard-edge set two-color satisfiable?"""
        uf = ParityUnionFind()
        return not all(
            uf.union(e.u, e.v, e.parity) for e in self._edges if e.kind.is_hard
        )

    def hard_component_of(self, net_id: int):
        """(root, parity) of a net in the hard-edge union-find."""
        if self._uf_dirty:
            self._rebuild_hard_uf()
        return self._hard_uf.find(net_id)

    def would_violate(self, edges: Iterable[ConstraintEdge]) -> bool:
        """Would inserting ``edges`` close a hard odd cycle? (no mutation)

        Used by the router to price candidate paths. Builds a scratch
        overlay on top of the committed union-find by cloning only the
        roots involved — cheap because candidate paths touch few nets.
        """
        if self._uf_dirty:
            self._rebuild_hard_uf()
        scratch = ParityUnionFind()
        roots_seen: Dict = {}
        ok = True
        for edge in edges:
            if not edge.kind.is_hard:
                continue
            for node in (edge.u, edge.v):
                if node not in roots_seen:
                    root, parity = self._hard_uf.find(node)
                    roots_seen[node] = True
                    scratch.union(node, ("root", root), parity)
            ok &= scratch.union(edge.u, edge.v, edge.parity)
            if not ok:
                return True
        return False

    # ------------------------------------------------------------------ #
    # Pricing
    # ------------------------------------------------------------------ #

    def evaluate(self, coloring: Dict[int, Color]) -> Evaluation:
        """Price a full assignment. Vertices missing from ``coloring``
        default to CORE (the pseudo-coloring default)."""
        overlay = 0.0
        hard = 0
        risks = 0
        for edge in self._edges:
            cu = coloring.get(edge.u, Color.CORE)
            cv = coloring.get(edge.v, Color.CORE)
            cost = edge.pair_cost(cu, cv)
            if cost == HARD:
                hard += 1
            else:
                overlay += cost
            if edge.has_cut_risk(cu, cv):
                risks += 1
        return Evaluation(overlay_units=overlay, hard_violations=hard, cut_risks=risks)

    def net_cost(self, net_id: int, coloring: Dict[int, Color]) -> float:
        """Side-overlay units on edges incident to one net (HARD -> inf)."""
        total = 0.0
        for edge in self._incident.get(net_id, ()):
            cu = coloring.get(edge.u, Color.CORE)
            cv = coloring.get(edge.v, Color.CORE)
            total += edge.pair_cost(cu, cv)
        return total

    # ------------------------------------------------------------------ #
    # Components
    # ------------------------------------------------------------------ #

    def components(self) -> List[Set[int]]:
        """Connected components over *all* edges (hard and soft)."""
        seen: Set[int] = set()
        out: List[Set[int]] = []
        for start in sorted(self._vertices):
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                node = stack.pop()
                for edge in self._incident.get(node, ()):
                    other = edge.other(node)
                    if other not in comp:
                        comp.add(other)
                        stack.append(other)
            seen |= comp
            out.append(comp)
        return out

    def component_of(self, net_id: int) -> Set[int]:
        comp = {net_id}
        stack = [net_id]
        while stack:
            node = stack.pop()
            for edge in self._incident.get(node, ()):
                other = edge.other(node)
                if other not in comp:
                    comp.add(other)
                    stack.append(other)
        return comp

    def edges_within(self, nets: Set[int]) -> List[ConstraintEdge]:
        """All edges whose endpoints both lie in ``nets`` (each once)."""
        out = []
        seen = set()
        for node in nets:
            for edge in self._incident.get(node, ()):
                if id(edge) in seen:
                    continue
                if edge.u in nets and edge.v in nets:
                    seen.add(id(edge))
                    out.append(edge)
        return out

    def contract_component(self, comp: Set[int]):
        """Super-vertex contraction of one component (see color_flip).

        Returns the contracted unit graph, or ``None`` when the
        component's hard edges are inconsistent. The SoA backend
        overrides this with a vectorized equivalent; flip_colors calls
        through this hook so both backends share the downstream
        spanning-forest + DP machinery.
        """
        from .color_flip import _contract

        return _contract(self.edges_within(comp), comp)
