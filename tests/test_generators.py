import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evencycles.generators import (
    GeneratorSpec,
    _all_graphs,
    _is_canonical,
    are_isomorphic,
    canonical_columns,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    enumerate_small,
    gen_k5_block_tree,
    gen_named,
    generalized_petersen,
    graph_from_columns,
    is_k5_block_tree,
    petersen_graph,
    prism_graph,
    theta_graph,
    wheel_graph,
)
from evencycles.graphs import Graph, GraphError, blocks, connectivity_cut, is_connected


class TestFamilies:
    def test_k5_block_tree_counts(self):
        for b in range(1, 8):
            g = gen_k5_block_tree(b)
            assert g.n == 4 * b + 1
            assert g.e == 10 * b
            assert 2 * g.e == 5 * (g.n - 1)
            dec = blocks(g)
            assert len(dec.blocks) == b
            assert all(blk.is_k5() for blk in dec.blocks)

    def test_k5_block_tree_seed_reproducible(self):
        assert gen_k5_block_tree(5, 7).edges == gen_k5_block_tree(5, 7).edges
        assert gen_k5_block_tree(1) == gen_k5_block_tree(1, 99)

    def test_k5_block_tree_rejects_zero(self):
        with pytest.raises(GraphError):
            gen_k5_block_tree(0)

    def test_named_families(self):
        assert complete_graph(6).e == 15
        assert complete_bipartite(3, 4).e == 12
        assert cycle_graph(7).e == 7
        assert wheel_graph(5).n == 6 and wheel_graph(5).degree(0) == 5
        assert prism_graph().n == 6 and all(prism_graph().degree(v) == 3 for v in range(6))
        pet = petersen_graph()
        assert pet.n == 10 and all(pet.degree(v) == 3 for v in pet.vertices)
        th = theta_graph(1, 2, 4)
        assert th.degree(0) == 3 and th.degree(1) == 3

    def test_generalized_petersen(self):
        gp = generalized_petersen(12, 5)
        assert gp.n == 24 and gp.e == 36 and all(gp.degree(v) == 3 for v in gp.vertices)
        for n, k in ((6, 0), (6, 3), (7, 4)):
            with pytest.raises(GraphError):
                generalized_petersen(n, k)

    def test_theta_rejects_double_trivial(self):
        with pytest.raises(GraphError):
            theta_graph(1, 1, 3)

    def test_gen_named_dispatch(self):
        g = gen_named(GeneratorSpec("wheel", (4,)))
        assert g.n == 5
        with pytest.raises(GraphError):
            gen_named(GeneratorSpec("nonesuch"))
        with pytest.raises(GraphError):
            gen_named(GeneratorSpec("complete"))


class TestCanonicalForm:
    def test_isomorphic_relabelings(self):
        a = Graph.build(4, [(0, 1), (1, 2), (2, 3)])
        b = Graph.build(4, [(3, 2), (2, 0), (0, 1)])
        assert are_isomorphic(a, b)

    def test_non_isomorphic(self):
        a = Graph.build(4, [(0, 1), (1, 2), (2, 3)])  # path
        b = Graph.build(4, [(0, 1), (0, 2), (0, 3)])  # star
        assert not are_isomorphic(a, b)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_canonical_invariant_under_permutation(self, data):
        n = data.draw(st.integers(min_value=1, max_value=6))
        all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        mask = data.draw(st.lists(st.booleans(), min_size=len(all_edges), max_size=len(all_edges)))
        g = Graph.build(n, [e for e, keep in zip(all_edges, mask) if keep])
        perm = data.draw(st.permutations(range(n)))
        h = Graph.build(n, [(perm[u], perm[v]) for u, v in g.edges])
        assert canonical_columns(g) == canonical_columns(h)


class TestEnumeration:
    def test_unlabeled_counts(self):
        # published counts of unlabeled simple graphs
        expected = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
        for n, count in expected.items():
            assert sum(1 for _ in enumerate_small(n)) == count

    def test_connected_counts(self):
        expected = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
        for n, count in expected.items():
            assert sum(1 for _ in enumerate_small(n, "connected")) == count

    def test_pairwise_non_isomorphic(self):
        gs = list(enumerate_small(5))
        for i, a in enumerate(gs):
            for b in gs[i + 1 :]:
                assert not are_isomorphic(a, b)

    def test_filters(self):
        for g in enumerate_small(5, "min-degree-3"):
            assert all(g.degree(v) >= 3 for v in g.vertices)
        for g in enumerate_small(6, "3-connected"):
            assert is_connected(g) and connectivity_cut(g, 3) is None
        for g in enumerate_small(5, "density"):
            assert 2 * g.e >= 5 * (g.n - 1)
        assert sum(1 for _ in enumerate_small(6, "3-connected")) == 17

    def test_guard(self):
        with pytest.raises(GraphError):
            list(enumerate_small(9))
        with pytest.raises(GraphError):
            list(enumerate_small(5, "no-such-tag"))
        with pytest.raises(GraphError, match="unknown filter tag"):
            list(enumerate_small(5, "min-degree-x"))

    def test_guard_fails_at_the_call(self):
        # not at the first next: the calls below never iterate
        for args in ((9,), (-1,), (6, "bogus"), (6, "min-degree-x")):
            with pytest.raises(GraphError):
                enumerate_small(*args)


def identity_columns(g: Graph) -> tuple:
    """Column tuple of g in its own vertex order (graph6 bit order)."""
    return tuple(
        sum(1 << (j - 1 - i) for i in range(j) if g.has_edge(i, j)) for j in range(1, g.n)
    )


def bit_rows(g: Graph) -> list:
    return [sum(1 << w for w in g.adj[v]) for v in g.vertices]


CUBE = Graph.build(8, [(u, u ^ 1 << k) for u in range(8) for k in range(3) if u < u ^ 1 << k])


class TestOrderlyGeneration:
    def test_order_8_corpus_is_pinned(self):
        # sha256 of repr(_all_graphs(8)) as built by minimising every extension
        # with canonical_columns
        digest = hashlib.sha256(repr(_all_graphs(8)).encode()).hexdigest()
        assert digest == "dee690a989a538c434b856d667ef245e58fc950e01d91bc92f85f2e0c6547a49"

    def test_tuples_are_canonical_fixed_points(self):
        for n in range(8):
            for cols in _all_graphs(n):
                assert canonical_columns(graph_from_columns(n, cols)) == cols

    def test_every_labelled_graph_lands_in_the_corpus(self):
        for n in range(6):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            forms = set()
            for mask in range(1 << len(pairs)):
                g = Graph.build(n, [e for k, e in enumerate(pairs) if mask >> k & 1])
                own, canon = identity_columns(g), canonical_columns(g)
                assert n < 2 or _is_canonical(n, bit_rows(g), own) == (own == canon)
                forms.add(canon)
            assert forms == set(_all_graphs(n))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_labelled_graphs_of_order_6_to_8(self, data):
        n = data.draw(st.integers(min_value=6, max_value=8))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        g = Graph.build(n, [e for e, k in zip(pairs, keep) if k])
        own = identity_columns(g)
        assert _is_canonical(n, bit_rows(g), own) == (own == canonical_columns(g))

    @pytest.mark.parametrize(
        "g, perm, canonical",
        [
            # every order of the empty graph and of K8 is canonical
            (Graph.build(8, []), (7, 6, 5, 4, 3, 2, 1, 0), True),
            (complete_graph(8), (3, 1, 4, 0, 5, 2, 6, 7), True),
            (complete_bipartite(1, 7), tuple(range(8)), False),  # centre first
            (complete_bipartite(4, 4), (0, 2, 4, 6, 1, 3, 5, 7), False),  # sides alternate
            (cycle_graph(8), tuple(range(8)), False),
            (CUBE, tuple(range(8)), False),
        ],
        ids=["empty", "K8", "K1,7", "K4,4", "C8", "Q3"],
    )
    def test_twins_and_ties(self, g, perm, canonical):
        canon = canonical_columns(g)
        h = graph_from_columns(8, canon)
        assert _is_canonical(8, bit_rows(h), canon)
        other = Graph.build(8, [(perm[u], perm[v]) for u, v in g.edges])
        own = identity_columns(other)
        assert (own == canon) == canonical
        assert _is_canonical(8, bit_rows(other), own) == canonical


class TestK5BlockTreePredicate:
    def test_positive(self):
        assert is_k5_block_tree(complete_graph(5))
        assert is_k5_block_tree(gen_k5_block_tree(3))
        assert is_k5_block_tree(Graph.build(1, []))  # trivial zero-block case

    def test_negative(self):
        assert not is_k5_block_tree(complete_graph(6))
        assert not is_k5_block_tree(complete_graph(4))
        assert not is_k5_block_tree(Graph.build(2, [(0, 1)]))
        assert not is_k5_block_tree(Graph.build(0, []))
        two_k5 = Graph.build(
            10,
            [(i, j) for i in range(5) for j in range(i + 1, 5)]
            + [(5 + i, 5 + j) for i in range(5) for j in range(i + 1, 5)],
        )
        assert not is_k5_block_tree(two_k5)  # disconnected
