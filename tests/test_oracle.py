import pytest

from evencycles import oracle
from evencycles.generators import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    enumerate_small,
    gen_k5_block_tree,
    petersen_graph,
    theta_graph,
)
from evencycles.graphs import Cycle, Graph, GraphError, Path
from evencycles.oracle import (
    CyclePairCertificate,
    GuardExceeded,
    PathPairCertificate,
)


class FakePath:
    """A vertex sequence in the shape `validate` reads, with no checks."""

    def __init__(self, vertices):
        self.vertices = tuple(vertices)
        self.length = len(self.vertices) - 1


def spectrum_by_edge_subsets(g: Graph) -> set:
    """Second, independent enumerator: a cycle is a connected edge subset
    in which every touched vertex has degree exactly two."""
    edges = g.sorted_edges()
    out = set()
    for mask in range(1, 1 << len(edges)):
        subset = [e for i, e in enumerate(edges) if (mask >> i) & 1]
        deg = {}
        for u, v in subset:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        if any(d != 2 for d in deg.values()):
            continue
        verts = sorted(deg)
        # connectivity over the subset
        adj = {v: [] for v in verts}
        for u, v in subset:
            adj[u].append(v)
            adj[v].append(u)
        seen = {verts[0]}
        stack = [verts[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == len(verts):
            out.add(len(subset))
    return out


class TestSpectrum:
    @pytest.mark.parametrize(
        "g, expected",
        [
            (complete_graph(4), {3, 4}),
            (complete_graph(5), {3, 4, 5}),
            (cycle_graph(6), {6}),
            (complete_bipartite(3, 3), {4, 6}),
            (petersen_graph(), {5, 6, 8, 9}),
            (theta_graph(2, 2, 3), {4, 5}),
        ],
    )
    def test_known_spectra(self, g, expected):
        assert oracle.cycle_spectrum(g).lengths == frozenset(expected)

    def test_representatives_are_valid_and_least(self):
        spec = oracle.cycle_spectrum(complete_graph(4))
        assert spec.representatives[3].vertices == (0, 1, 2)
        assert spec.representatives[4].vertices == (0, 1, 2, 3)

    def test_guard_raises(self):
        with pytest.raises(GuardExceeded):
            oracle.cycle_spectrum(complete_graph(6), size_guard=5)

    def test_against_edge_subset_enumerator(self):
        # full cross-check of the primary enumerator on every graph with n <= 5
        for n in range(6):
            for g in enumerate_small(n):
                assert oracle.cycle_spectrum(g).lengths == frozenset(
                    spectrum_by_edge_subsets(g)
                ), g.edges

    def test_against_edge_subset_enumerator_named(self):
        for g in (petersen_graph(), complete_bipartite(3, 3), theta_graph(1, 2, 4)):
            assert oracle.cycle_spectrum(g).lengths == frozenset(
                spectrum_by_edge_subsets(g)
            )


class TestConsecutivePair:
    def test_k6_pair(self):
        cert = oracle.find_consecutive_even_pair_bf(complete_graph(6))
        assert cert.lengths == (4, 6)
        ok, why = oracle.validate(cert, complete_graph(6))
        assert ok, why

    def test_k5_none(self):
        assert oracle.find_consecutive_even_pair_bf(complete_graph(5)) is None

    def test_block_tree_none(self):
        g = gen_k5_block_tree(2)
        assert oracle.find_consecutive_even_pair_bf(g, size_guard=g.n) is None


class TestHasConsecutivePair:
    def test_agrees_with_the_certificate_search(self):
        graphs = [g for n in range(7) for g in enumerate_small(n)]
        graphs += list(enumerate_small(7, "density"))
        for g in graphs:
            expected = oracle.find_consecutive_even_pair_bf(g) is not None
            assert oracle.has_consecutive_even_pair(g) == expected, g.edges

    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_block_trees_have_none(self, b):
        g = gen_k5_block_tree(b)
        assert not oracle.has_consecutive_even_pair(g, size_guard=g.n)

    def test_guard_raises(self):
        with pytest.raises(GuardExceeded):
            oracle.has_consecutive_even_pair(complete_graph(6), size_guard=5)


class TestPathLengths:
    def test_cycle_graph_paths(self):
        reps = oracle.xy_path_lengths(cycle_graph(6), 0, 3)
        assert set(reps) == {3}  # both arcs have length 3

    def test_k4_paths(self):
        reps = oracle.xy_path_lengths(complete_graph(4), 0, 1)
        assert sorted(reps) == [1, 2, 3]

    def test_same_terminal_rejected(self):
        with pytest.raises(GraphError):
            oracle.xy_path_lengths(complete_graph(4), 2, 2)


class TestLongWalks:
    def test_no_recursion_limit(self):
        # each enumeration walks the 2000-cycle in one path, deeper than
        # Python's default recursion limit
        g = cycle_graph(2000)
        spec = oracle.cycle_spectrum(g, size_guard=2000)
        assert spec.lengths == {2000}
        assert spec.representatives[2000].vertices == tuple(range(2000))
        reps = oracle.xy_path_lengths(g, 0, 1000, size_guard=2000)
        assert sorted(reps) == [1000]
        assert reps[1000].vertices == tuple(range(1001))


class TestBondyVince:
    def test_k4_near_pair(self):
        found = oracle.bondy_vince_search(complete_graph(4))
        assert found.lengths == (3, 4)

    def test_even_pair_preferred(self):
        found = oracle.bondy_vince_search(complete_graph(6))
        assert isinstance(found, CyclePairCertificate)
        assert found.lengths == (4, 6)

    def test_forest_none(self):
        assert oracle.bondy_vince_search(Graph.build(3, [(0, 1), (1, 2)])) is None


class TestModResidue:
    def test_two_mod_four(self):
        c = oracle.cycle_mod_residue(complete_graph(6), 2, 4)
        assert c.length == 6

    def test_absent_residue(self):
        assert oracle.cycle_mod_residue(complete_graph(5), 2, 4) is None

    def test_bad_residue(self):
        with pytest.raises(GraphError):
            oracle.cycle_mod_residue(complete_graph(5), 4, 4)


class TestValidate:
    def test_rejects_odd_cycle_pair(self):
        g = complete_graph(6)
        bad = CyclePairCertificate(Cycle(g, (0, 1, 2)), Cycle(g, (0, 1, 2, 3, 4)))
        ok, why = oracle.validate(bad, g)
        assert not ok and why.startswith("parity")

    def test_rejects_wrong_difference(self):
        g = complete_graph(8)
        bad = CyclePairCertificate(Cycle(g, (0, 1, 2, 3)), Cycle(g, (0, 1, 2, 3, 4, 5, 6, 7)))
        ok, why = oracle.validate(bad, g)
        assert not ok and why.startswith("difference")

    def test_rejects_foreign_host(self):
        g = complete_graph(6)
        h = cycle_graph(6)
        cert = oracle.find_consecutive_even_pair_bf(g)
        ok, why = oracle.validate(cert, h)
        assert not ok and why.startswith("validity")

    def test_path_pair_rejects_xy_edge(self):
        g = complete_graph(4)
        bad = PathPairCertificate.make(0, 1, Path(g, (0, 1)), Path(g, (0, 2, 3, 1)))
        ok, why = oracle.validate(bad, g)
        assert not ok and why == "validity: path uses the edge xy"
        # either orientation of either path
        for p1 in (Path(g, (1, 0)), Path(g, (0, 1))):
            bad = PathPairCertificate(1, 0, p1, Path(g, (1, 2, 3, 0)))
            assert oracle.validate(bad, g) == (False, "validity: path uses the edge xy")

    @pytest.mark.parametrize(
        "seq1, seq2, n, missing, why",
        [
            ((0, 1, 3), (0, 1, 4, 5, 3), 5, (), "host: path vertex outside graph"),
            ((0, 1, 3), (0, 1, 2, -1, 3), 6, (), "host: path vertex outside graph"),
            ((0, 1, 3), (0, 1, 2, 1, 3), 6, (), "validity: repeated path vertex"),
            ((0, 1, 0, 3), (0, 1, 2, 4, 3), 6, (), "validity: repeated path vertex"),
            ((0, 1, 3), (0, 1, 2, 4, 3), 6, ((2, 4),), "validity: non-edge (2, 4)"),
            ((0, 5, 3), (0, 1, 2, 4, 3), 6, ((0, 5),), "validity: non-edge (0, 5)"),
            ((0, 1, 2), (0, 1, 4, 5, 3), 6, (), "terminals: path endpoints are not {x, y}"),
            ((0, 1, 3), (2, 1, 4, 5, 3), 6, (), "terminals: path endpoints are not {x, y}"),
            ((0, 3), (0, 1, 2, 3), 6, (), "validity: path uses the edge xy"),
            ((0, 1, 3), (0, 1, 2, 4, 5, 3), 6, (), "difference: path lengths do not differ by two"),
            ((0, 1, 2, 4, 3), (0, 1, 3), 6, (), "difference: path lengths do not differ by two"),
            ((0, 1, 3), (0, 1, 2, 3), 6, (), "difference: path lengths do not differ by two"),
            ((0, 1, 3), (3, 2, 4, 5, 0), 6, (), "ok"),
        ],
    )
    def test_path_pair_rejections(self, seq1, seq2, n, missing, why):
        # the oracle reads only the vertex sequences, so a corrupted one is
        # handed over in a stand-in that the checked Path would refuse;
        # the host is K_n without the missing edges, and x, y = 0, 3
        g = Graph(n, complete_graph(n).edges - frozenset(missing))
        cert = PathPairCertificate(0, 3, FakePath(seq1), FakePath(seq2))
        assert oracle.validate(cert, g) == (why == "ok", why)

    USES_XY = (False, "validity: path uses the edge xy")
    DIFFERENCE = (False, "difference: path lengths do not differ by two")
    TERMINALS = (False, "terminals: path endpoints are not {x, y}")
    REPEATED = (False, "validity: repeated path vertex")

    @pytest.mark.parametrize(
        "x, y, seq1, seq2, with_xy, without_xy",
        [
            # the path xy, either way round, for either terminal order
            (0, 4, (0, 4), (0, 1, 2, 4), USES_XY, (False, "validity: non-edge (0, 4)")),
            (0, 4, (4, 0), (0, 1, 2, 4), USES_XY, (False, "validity: non-edge (4, 0)")),
            (4, 0, (0, 4), (4, 1, 2, 0), USES_XY, (False, "validity: non-edge (0, 4)")),
            (4, 0, (4, 0), (4, 1, 2, 0), USES_XY, (False, "validity: non-edge (4, 0)")),
            (0, 4, (0, 1, 2, 4), (0, 4), USES_XY, (False, "validity: non-edge (0, 4)")),
            # 3-vertex paths, which end at x and y without the edge xy
            (0, 4, (0, 1, 4), (0, 1, 2, 3, 4), (True, "ok"), (True, "ok")),
            (0, 4, (4, 1, 0), (0, 2, 1, 3, 4), (True, "ok"), (True, "ok")),
            (0, 4, (0, 1, 4), (0, 1, 2, 4), DIFFERENCE, DIFFERENCE),
            (0, 4, (0, 4, 1), (0, 1, 2, 3, 4), TERMINALS, (False, "validity: non-edge (0, 4)")),
            # x == y: a simple path with both ends x is the vertex x alone
            (0, 0, (0,), (0,), DIFFERENCE, DIFFERENCE),
            (1, 1, (1,), (1,), DIFFERENCE, DIFFERENCE),
            (0, 0, (0,), (0, 1, 0), REPEATED, REPEATED),
            (0, 0, (0, 0), (0, 1, 2), REPEATED, REPEATED),
            (0, 0, (0,), (0, 1, 2), TERMINALS, TERMINALS),
            (2, 2, (2,), (2, 3, 4), TERMINALS, TERMINALS),
        ],
    )
    def test_path_pair_use_of_the_edge_xy(self, x, y, seq1, seq2, with_xy, without_xy):
        # a path with ends {x, y} that passed the simplicity check uses the
        # edge xy exactly when it is that edge; checked against K5, which is
        # g + xy for {x, y} = {0, 4}, and against K5 - xy
        cert = PathPairCertificate(x, y, FakePath(seq1), FakePath(seq2))
        k5 = complete_graph(5)
        assert oracle.validate(cert, k5) == with_xy
        assert oracle.validate(cert, Graph(5, k5.edges - {(0, 4)})) == without_xy

    def test_path_pair_accepts(self):
        g = complete_graph(5)
        cert = PathPairCertificate.make(0, 1, Path(g, (0, 2, 1)), Path(g, (0, 3, 4, 2, 1)))
        ok, why = oracle.validate(cert, g)
        assert ok, why
