"""Amortised-constant-time hard odd-cycle detection.

The paper extends the LELE conflict-cycle detection of [18] to the overlay
constraint graph: hard-different edges demand opposite colors (parity 1),
hard-same edges demand equal colors (parity 0; the dummy-vertex encoding of
Fig. 11(b) is parity-equivalent). A set of hard edges is satisfiable iff no
cycle has odd total parity, which a union-find with parity decides in
amortised near-constant time per edge.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Tuple


class ParityUnionFind:
    """Union-find where each element carries a parity relative to its root.

    ``union(u, v, parity)`` asserts ``color(u) XOR color(v) == parity``.
    It returns ``False`` (and leaves the structure unchanged) when the
    assertion contradicts the existing relations — i.e. the new edge closes
    a hard odd cycle.
    """

    def __init__(self) -> None:
        self._parent: Dict[Hashable, Hashable] = {}
        self._rank: Dict[Hashable, int] = {}
        self._parity: Dict[Hashable, int] = {}  # parity to parent
        #: Lifetime operation tallies — plain ints so the hot path never
        #: touches the observability layer; the constraint graph flushes
        #: deltas into the metrics registry when one is live.
        self.find_ops = 0
        self.union_ops = 0

    def add(self, x: Hashable) -> None:
        if x not in self._parent:
            self._parent[x] = x
            self._rank[x] = 0
            self._parity[x] = 0

    def __contains__(self, x: Hashable) -> bool:
        return x in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    def forget(self, nodes: Iterable[Hashable]) -> None:
        """Drop ``nodes`` from the structure; absent ones are ignored.

        ``nodes`` must be a union of whole components: a kept node whose
        parent chain runs through a forgotten one would dangle. Hard
        components are disjoint, so a caller that forgets the components
        an edge deletion touched and replays their surviving edges in
        their original order gets exactly the trees (roots, ranks,
        parities) a fresh build would, while every other component keeps
        its own.
        """
        parent = self._parent
        rank = self._rank
        parity = self._parity
        for x in nodes:
            if x in parent:
                del parent[x]
                del rank[x]
                del parity[x]

    def find(self, x: Hashable) -> Tuple[Hashable, int]:
        """(root, parity of x relative to root), with path compression."""
        self.find_ops += 1
        parent = self._parent
        if x not in parent:
            parent[x] = x
            self._rank[x] = 0
            self._parity[x] = 0
            return x, 0
        par = self._parity
        root = x
        parity = 0
        while parent[root] != root:
            parity ^= par[root]
            root = parent[root]
        # Second pass: compress and fix parities.
        node = x
        carried = parity
        while parent[node] != node:
            nxt = parent[node]
            next_carried = carried ^ par[node]
            parent[node] = root
            par[node] = carried
            node = nxt
            carried = next_carried
        return root, parity

    def same_set(self, u: Hashable, v: Hashable) -> bool:
        return self.find(u)[0] == self.find(v)[0]

    def relation(self, u: Hashable, v: Hashable) -> int:
        """Known parity between u and v; raises when not yet related."""
        ru, pu = self.find(u)
        rv, pv = self.find(v)
        if ru != rv:
            raise KeyError(f"{u!r} and {v!r} are not related")
        return pu ^ pv

    def union(self, u: Hashable, v: Hashable, parity: int) -> bool:
        """Merge asserting ``color(u) XOR color(v) == parity``.

        Returns True on success (including redundant consistent edges) and
        False when the edge would close an odd cycle.
        """
        if parity not in (0, 1):
            raise ValueError(f"parity must be 0 or 1, got {parity}")
        self.union_ops += 1
        ru, pu = self.find(u)
        rv, pv = self.find(v)
        if ru == rv:
            return (pu ^ pv) == parity
        # Union by rank; parity of rv relative to ru must be pu ^ parity ^ pv.
        link_parity = pu ^ parity ^ pv
        if self._rank[ru] < self._rank[rv]:
            ru, rv = rv, ru
            # parity of (new child root) rv relative to ru is unchanged by swap
        self._parent[rv] = ru
        self._parity[rv] = link_parity
        if self._rank[ru] == self._rank[rv]:
            self._rank[ru] += 1
        return True

    def components(self) -> Dict[Hashable, list]:
        """root -> members (after full compression)."""
        groups: Dict[Hashable, list] = {}
        for x in list(self._parent):
            root, _ = self.find(x)
            groups.setdefault(root, []).append(x)
        return groups

    @classmethod
    def from_edges(
        cls, edges: Iterable[Tuple[Hashable, Hashable, int]]
    ) -> Tuple["ParityUnionFind", bool]:
        """Build from (u, v, parity) triples; second result is consistency."""
        uf = cls()
        ok = True
        for u, v, parity in edges:
            ok &= uf.union(u, v, parity)
        return uf, ok
