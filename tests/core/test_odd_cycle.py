"""Unit tests for the parity union-find (hard odd-cycle detection)."""

import pytest

from repro.core import ParityUnionFind


class TestBasics:
    def test_singleton(self):
        uf = ParityUnionFind()
        uf.add("a")
        assert "a" in uf
        assert uf.find("a") == ("a", 0)

    def test_union_different(self):
        uf = ParityUnionFind()
        assert uf.union("a", "b", 1)
        assert uf.relation("a", "b") == 1

    def test_union_same(self):
        uf = ParityUnionFind()
        assert uf.union("a", "b", 0)
        assert uf.relation("a", "b") == 0

    def test_transitivity(self):
        uf = ParityUnionFind()
        uf.union("a", "b", 1)
        uf.union("b", "c", 1)
        assert uf.relation("a", "c") == 0  # different of different = same

    def test_relation_unrelated_raises(self):
        uf = ParityUnionFind()
        uf.add("a")
        uf.add("b")
        with pytest.raises(KeyError):
            uf.relation("a", "b")

    def test_invalid_parity(self):
        uf = ParityUnionFind()
        with pytest.raises(ValueError):
            uf.union("a", "b", 2)


class TestOddCycles:
    def test_triangle_of_diff_edges_is_odd(self):
        uf = ParityUnionFind()
        assert uf.union("a", "b", 1)
        assert uf.union("b", "c", 1)
        assert not uf.union("c", "a", 1)  # odd cycle

    def test_even_cycle_is_fine(self):
        uf = ParityUnionFind()
        assert uf.union("a", "b", 1)
        assert uf.union("b", "c", 1)
        assert uf.union("c", "d", 1)
        assert uf.union("d", "a", 1)  # length-4 cycle: consistent

    def test_mixed_parities_fig11g(self):
        # Fig. 11(g): four nets + a dummy, five hard edges, odd overall.
        # Same-color edges are parity 0 (dummy vertices folded in).
        uf = ParityUnionFind()
        assert uf.union("a", "b", 1)
        assert uf.union("b", "c", 0)  # same-color edge (with dummy)
        assert uf.union("c", "d", 1)
        assert not uf.union("d", "a", 1)  # total cycle parity 3: odd

    def test_redundant_consistent_edge(self):
        uf = ParityUnionFind()
        uf.union("a", "b", 1)
        assert uf.union("a", "b", 1)  # redundant, consistent
        assert not uf.union("a", "b", 0)  # contradiction

    def test_failed_union_leaves_structure_intact(self):
        uf = ParityUnionFind()
        uf.union("a", "b", 1)
        uf.union("b", "c", 1)
        assert not uf.union("a", "c", 1)
        # Relations unchanged.
        assert uf.relation("a", "c") == 0


class TestStructure:
    def test_components(self):
        uf = ParityUnionFind()
        uf.union("a", "b", 1)
        uf.union("c", "d", 0)
        uf.add("e")
        comps = uf.components()
        sizes = sorted(len(v) for v in comps.values())
        assert sizes == [1, 2, 2]

    def test_same_set(self):
        uf = ParityUnionFind()
        uf.union("a", "b", 1)
        assert uf.same_set("a", "b")
        assert not uf.same_set("a", "z")

    def test_from_edges(self):
        uf, ok = ParityUnionFind.from_edges([("a", "b", 1), ("b", "c", 1), ("a", "c", 0)])
        assert ok
        uf, ok = ParityUnionFind.from_edges([("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
        assert not ok

    def test_long_chain_parity(self):
        uf = ParityUnionFind()
        n = 200
        for i in range(n):
            assert uf.union(i, i + 1, 1)
        assert uf.relation(0, n) == n % 2
        # Path compression keeps find cheap and correct afterwards.
        assert uf.relation(0, n // 2) == (n // 2) % 2


class TestForget:
    EDGES = [("a", "b", 1), ("c", "d", 0), ("b", "e", 1), ("d", "f", 1),
             ("a", "e", 0), ("e", "g", 1), ("f", "h", 0)]

    def test_forget_and_replay_matches_fresh_build(self):
        uf, _ = ParityUnionFind.from_edges(self.EDGES)
        # Drop edge (b, e): component {a, b, e, g} is re-derived from its
        # surviving edges, replayed in their original order.
        kept = [e for e in self.EDGES if e != ("b", "e", 1)]
        region = {"a", "b", "e", "g"}
        uf.forget(region)
        assert all(x not in uf for x in region)
        for u, v, parity in kept:
            if u in region:
                assert uf.union(u, v, parity)
        fresh, _ = ParityUnionFind.from_edges(kept)
        for node in "abcdefgh":
            assert uf.find(node) == fresh.find(node)

    def test_forget_absent_nodes_is_a_no_op(self):
        uf, _ = ParityUnionFind.from_edges(self.EDGES)
        before = {x: uf.find(x) for x in "abcdefgh"}
        size = len(uf)
        uf.forget(["zz", "yy"])
        uf.forget([])
        assert len(uf) == size
        assert {x: uf.find(x) for x in "abcdefgh"} == before

    def test_other_components_untouched(self):
        uf, _ = ParityUnionFind.from_edges(self.EDGES)
        others = {x: uf.find(x) for x in "cdfh"}
        uf.forget({"a", "b", "e", "g"})
        assert len(uf) == 4
        assert {x: uf.find(x) for x in "cdfh"} == others
        assert uf.relation("c", "h") == 1
