import pytest

from evencycles import finder, oracle
from evencycles.finder import (
    HypothesisFailure,
    InternalInvariantError,
    K5BlockWitness,
    Outcome,
    combine_quasi_diagonal,
    cycle_two_mod_four,
    main_theorem,
    odd_even_arcs,
    pair_from_disjoint_odd_even,
    pair_from_shared_vertex,
    pair_from_two_disjoint_odd,
    quasi_diagonal,
    stabilize_even_cycle,
    three_connected_pair,
    two_paths_diff_two,
)
from evencycles.generators import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    gen_k5_block_tree,
    petersen_graph,
    prism_graph,
    wheel_graph,
)
from evencycles.graphs import Cycle, Graph, GraphError, Path, blocks


def generalized_petersen(n: int, k: int) -> Graph:
    """GP(n, k): outer cycle on 0..n-1, spokes i ~ n+i, inner n+i ~ n+(i+k) mod n."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    edges += [(n + i, n + (i + k) % n) for i in range(n)]
    return Graph.build(2 * n, edges)


def assert_valid_pair(cert, g):
    ok, why = oracle.validate(cert, g)
    assert ok, why
    spec = oracle.cycle_spectrum(g, size_guard=max(oracle.DEFAULT_GUARD, g.n))
    assert cert.lengths[0] in spec.lengths and cert.lengths[1] in spec.lengths


class TestQuasiDiagonal:
    @pytest.mark.parametrize("length", range(4, 21, 2))
    def test_component_shape(self, length):
        c = Cycle(cycle_graph(length), tuple(range(length)))
        qd = quasi_diagonal(c)
        if length % 4 == 0:
            assert len(qd.components) == 1
            assert len(qd.components[0]) == length
        else:
            assert len(qd.components) == 2
            assert len(qd.components[0]) == len(qd.components[1]) == length // 2
            assert len(qd.components[0]) % 2 == 1

    def test_partners(self):
        c = Cycle(cycle_graph(8), tuple(range(8)))
        qd = quasi_diagonal(c)
        assert qd.partners(0) == (3, 5)
        assert qd.is_quasi_diagonal(0, 3) and not qd.is_quasi_diagonal(0, 4)

    def test_rejects_odd(self):
        with pytest.raises(GraphError):
            quasi_diagonal(Cycle(cycle_graph(5), tuple(range(5))))

    def test_odd_even_arcs(self):
        c = Cycle(cycle_graph(5), tuple(range(5)))
        o, e = odd_even_arcs(c, 0, 3)
        assert o.length % 2 == 1 and e.length % 2 == 0
        assert {o.length, e.length} == {2, 3}


class TestStabilize:
    def test_postconditions_on_wheel(self):
        g = wheel_graph(6)
        c = stabilize_even_cycle(g, {0})
        assert c.length % 2 == 0
        assert 0 not in c.vertex_set()
        assert finder._stabilize_violation(g, c) is None

    def test_needs_connected_anchor(self):
        g = wheel_graph(6)
        with pytest.raises(GraphError):
            stabilize_even_cycle(g, {1, 4})  # opposite rim vertices, not adjacent
        with pytest.raises(GraphError):
            stabilize_even_cycle(g, set())

    def test_no_even_cycle_available(self):
        g = complete_graph(4)
        with pytest.raises(GraphError):
            stabilize_even_cycle(g, {0})  # K3 remains, no even cycle

    def test_seeded_instances(self, three_connected_factory):
        import random

        checked = 0
        for seed in range(200):
            g = three_connected_factory(seed)
            v = random.Random(seed).randrange(g.n)
            if not finder._has_even_cycle(g, set(g.vertices) - {v}):
                continue
            c = stabilize_even_cycle(g, {v})
            assert finder._stabilize_violation(g, c) is None
            assert v not in c.vertex_set()
            checked += 1
        assert checked >= 150


class TestCombine:
    def test_disjoint_form(self):
        # even C6 (0..5), odd triangle (6, 7, 8), two connectors at a
        # quasi-diagonal pair of the C6 (0 and 2: arc distance 2 = 6/2 - 1)
        edges = [(i, (i + 1) % 6) for i in range(6)]
        edges += [(6, 7), (7, 8), (6, 8)]
        edges += [(0, 6), (2, 7)]
        g = Graph.build(9, edges)
        b = Cycle(g, tuple(range(6)))
        d = Cycle(g, (6, 7, 8))
        cert = combine_quasi_diagonal(b, d, [Path(g, (0, 6)), Path(g, (2, 7))])
        assert_valid_pair(cert, g)

    def test_shared_form(self):
        # even C6 and odd triangle sharing vertex 0; connector from 2 to 7
        edges = [(i, (i + 1) % 6) for i in range(6)]
        edges += [(0, 6), (6, 7), (7, 0)]
        edges += [(2, 8), (8, 7)]
        g = Graph.build(9, edges)
        b = Cycle(g, tuple(range(6)))
        d = Cycle(g, (0, 6, 7))
        cert = combine_quasi_diagonal(b, d, [Path(g, (2, 8, 7))])
        assert_valid_pair(cert, g)

    def test_rejects_non_quasi_diagonal(self):
        edges = [(i, (i + 1) % 6) for i in range(6)]
        edges += [(6, 7), (7, 8), (6, 8)]
        edges += [(0, 6), (3, 7)]
        g = Graph.build(9, edges)
        b = Cycle(g, tuple(range(6)))
        d = Cycle(g, (6, 7, 8))
        with pytest.raises(GraphError):
            combine_quasi_diagonal(b, d, [Path(g, (0, 6)), Path(g, (3, 7))])


class TestLemmaPipelines:
    def test_disjoint_odd_even(self):
        g = complete_graph(7)
        d = Cycle(g, (0, 1, 2))
        cert = pair_from_disjoint_odd_even(g, d)
        assert_valid_pair(cert, g)

    def test_shared_vertex(self):
        g = complete_graph(7)
        b = Cycle(g, (0, 1, 2, 3))
        d = Cycle(g, (0, 4, 5))
        cert = pair_from_shared_vertex(g, b, d, 0)
        assert_valid_pair(cert, g)

    def test_shared_vertex_validates_intersection(self):
        g = complete_graph(7)
        with pytest.raises(GraphError):
            pair_from_shared_vertex(g, Cycle(g, (0, 1, 2, 3)), Cycle(g, (0, 1, 4)), 0)

    def test_two_disjoint_odd(self):
        g = complete_graph(6)
        cert = pair_from_two_disjoint_odd(g, Cycle(g, (0, 1, 2)))
        assert_valid_pair(cert, g)

    def test_two_disjoint_odd_requires_them(self):
        g = complete_graph(5)
        with pytest.raises(GraphError):  # K5 minus a triangle is K2, bipartite
            pair_from_two_disjoint_odd(g, Cycle(g, (0, 1, 2)))
        g = complete_graph(7)
        with pytest.raises(GraphError):  # b must be odd
            pair_from_two_disjoint_odd(g, Cycle(g, (0, 1, 2, 3)))


class TestThreeConnected:
    @pytest.mark.parametrize(
        "g",
        [
            complete_graph(6),
            complete_graph(7),
            petersen_graph(),
            prism_graph(),
            wheel_graph(5),
            wheel_graph(7),
            complete_bipartite(3, 3),
            complete_bipartite(3, 5),
        ],
        ids=["K6", "K7", "petersen", "prism", "W5", "W7", "K33", "K35"],
    )
    def test_named_graphs(self, g):
        cert = three_connected_pair(g)
        assert_valid_pair(cert, g)

    @pytest.mark.parametrize("n", range(27, 42, 2))
    def test_odd_prisms(self, n):
        # GP(n, 1) with n odd: the two n-gons are the disjoint odd cycles
        g = generalized_petersen(n, 1)
        cert = three_connected_pair(g)
        ok, why = oracle.validate(cert, g)
        assert ok, why

    def test_stray_component_fan(self, monkeypatch):
        # GP(6, 2), graph6 KhEKA?aCOT?i: the stabilizer fans a stray
        # component of g - V(C) onto C; the certificate is pinned
        calls = []
        real_fan = finder.fan
        monkeypatch.setattr(finder, "fan", lambda *a, **kw: calls.append(a) or real_fan(*a, **kw))
        cert = three_connected_pair(generalized_petersen(6, 2))
        assert len(calls) == 1
        assert (cert.c1.vertices, cert.c2.vertices) == (
            (0, 1, 2, 3, 4, 5),
            (0, 1, 2, 3, 9, 7, 11, 5),
        )

    def test_rejects_small(self):
        with pytest.raises(HypothesisFailure):
            three_connected_pair(complete_graph(5))

    def test_rejects_low_connectivity(self):
        with pytest.raises(HypothesisFailure) as exc:
            three_connected_pair(cycle_graph(6))
        assert exc.value.name == "connectivity"


class TestTwoPaths:
    def test_k5_terminals(self):
        g = complete_graph(5)
        cert = two_paths_diff_two(g, 0, 1)
        assert cert.lengths[1] == cert.lengths[0] + 2
        h = g.without_edge(0, 1)
        ok, why = oracle.validate(cert, h)
        assert ok, why

    def test_named_failures(self):
        g = cycle_graph(6)
        with pytest.raises(HypothesisFailure) as exc:
            two_paths_diff_two(g, 0, 3)
        assert exc.value.name == "minimum degree"
        with pytest.raises(HypothesisFailure) as exc:
            two_paths_diff_two(Graph.build(6, [(0, 1)]), 0, 1)
        assert exc.value.name == "2-connectivity"
        with pytest.raises(HypothesisFailure) as exc:
            two_paths_diff_two(complete_graph(4), 2, 2)
        assert exc.value.name == "terminals"

    def test_edge_degree_sum_failure(self):
        # square 0-1-2-3 with terminals 4, 5; the edge (0, 1) joins two
        # degree-3 vertices, violating the degree-sum condition
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
        edges += [(0, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5)]
        g = Graph.build(6, edges)
        with pytest.raises(HypothesisFailure) as exc:
            two_paths_diff_two(g, 4, 5)
        assert exc.value.name == "edge degree sum"

    def test_deeper_recursion(self):
        g = complete_bipartite(3, 4)
        cert = two_paths_diff_two(g, 0, 1)
        assert cert.lengths[1] - cert.lengths[0] == 2


class TestMainTheorem:
    def test_k6_certificate(self):
        out = main_theorem(complete_graph(6))
        assert out.kind == "certificate"
        assert_valid_pair(out.certificate, complete_graph(6))

    def test_k5_witness(self):
        out = main_theorem(complete_graph(5))
        assert out.kind == "k5-witness"
        assert out.witness.n == 5 and out.witness.e == 10

    def test_block_tree_witness(self):
        g = gen_k5_block_tree(3)
        out = main_theorem(g)
        assert out.kind == "k5-witness"
        assert all(b.is_k5() for b in out.witness.decomposition.blocks)

    def test_trivial_graph_witness(self):
        out = main_theorem(Graph.build(1, []))
        assert out.kind == "k5-witness"

    def test_density_failure(self):
        out = main_theorem(cycle_graph(8))
        assert out.kind == "hypothesis-failure"
        assert out.failure.name == "density"

    def test_empty_graph(self):
        out = main_theorem(Graph.build(0, []))
        assert out.kind == "hypothesis-failure"

    def test_disconnected_input(self):
        k6 = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        g = Graph.build(12, k6 + [(u + 6, v + 6) for u, v in k6])
        out = main_theorem(g)
        assert out.kind == "certificate"
        assert_valid_pair(out.certificate, g)

    def test_cut_vertex_merge(self):
        # two K6 blocks sharing a vertex: certificate from either side
        k6 = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        g = Graph.build(11, k6 + [(u + 5 if u else 0, v + 5) for u, v in k6])
        out = main_theorem(g)
        assert out.kind == "certificate"
        assert_valid_pair(out.certificate, g)

    def test_low_degree_vertex(self):
        k6 = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        g = Graph.build(7, k6 + [(0, 6)])
        out = main_theorem(g)
        assert out.kind == "certificate"
        assert_valid_pair(out.certificate, g)


class TestOutcomeTypes:
    def test_outcome_exactly_one_variant(self):
        with pytest.raises(GraphError):
            Outcome("certificate")
        w = K5BlockWitness.build(complete_graph(5))
        with pytest.raises(GraphError):
            Outcome("both", witness=w, failure=HypothesisFailure("density"))
        # the populated field must be the one that kind names
        c = main_theorem(complete_graph(6)).certificate
        with pytest.raises(GraphError):
            Outcome("k5-witness", certificate=c)
        with pytest.raises(GraphError):
            Outcome("certificate", witness=w)
        assert Outcome("certificate", certificate=c).certificate is c

    def test_witness_validation(self):
        with pytest.raises(GraphError):
            K5BlockWitness.build(complete_graph(6))
        with pytest.raises(GraphError):
            K5BlockWitness(blocks(complete_graph(5)), 5, 9)


class TestCycleTwoModFour:
    def test_k6(self):
        c = cycle_two_mod_four(complete_graph(6))
        assert c.length % 4 == 2

    def test_density_required(self):
        with pytest.raises(HypothesisFailure):
            cycle_two_mod_four(complete_graph(5))  # e = 10 < 12.5

    def test_k8(self):
        g = complete_graph(8)
        c = cycle_two_mod_four(g)
        assert c.length % 4 == 2
        assert c.length in oracle.cycle_spectrum(g).lengths
