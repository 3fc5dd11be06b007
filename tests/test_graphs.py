import ast
import itertools
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import networkx as nx
except ImportError:  # the networkx cross-checks are skipped without it
    nx = None

from evencycles import finder, graphs, oracle
from evencycles.generators import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    enumerate_small,
    gen_k5_block_tree,
    generalized_petersen,
    petersen_graph,
    wheel_graph,
)
from evencycles.graphs import (
    Cycle,
    Graph,
    GraphError,
    Path,
    bfs_path,
    blocks,
    components,
    connectivity_cut,
    contract,
    cycle_from_paths,
    disjoint_paths,
    fan,
    induced_subgraph,
    is_bipartite,
    is_connected,
    shortest_odd_cycle,
    spanning_tree,
    theta_even_cycle,
    tree_path,
)


def small_graphs(max_n=7):
    """Hypothesis strategy: a random subgraph of K_n for n <= max_n."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        mask = draw(st.lists(st.booleans(), min_size=len(all_edges), max_size=len(all_edges)))
        return Graph.build(n, [e for e, keep in zip(all_edges, mask) if keep])

    return build()


class TestGraph:
    def test_build_normalizes_edges(self):
        g = Graph.build(3, [(2, 0), (0, 1)])
        assert g.edges == frozenset({(0, 2), (0, 1)})
        assert g.has_edge(0, 2) and g.has_edge(2, 0)
        assert g.degree(0) == 2 and g.degree(1) == 1

    def test_rejects_self_loop_and_bad_ids(self):
        with pytest.raises(GraphError):
            Graph.build(3, [(1, 1)])
        with pytest.raises(GraphError):
            Graph.build(3, [(0, 3)])

    def test_edges_must_be_a_frozenset(self):
        k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        # K4 listed three times once counted as 18 edges, passed main_theorem's
        # density check and then broke an internal invariant
        for edges in (k4 * 3, k4, tuple(k4), set(k4)):
            with pytest.raises(GraphError, match="frozenset"):
                Graph(4, edges)
        assert Graph(4, frozenset(k4)) == Graph.build(4, k4 * 3)
        assert Graph.build(4, k4 * 3).e == 6

    def test_edge_edits(self):
        g = Graph.build(3, [(0, 1)])
        assert g.with_edge(1, 2).e == 2
        assert g.without_edge(0, 1).e == 0
        for u, v in ((1, 1), (0, 3), (-1, 2)):
            with pytest.raises(GraphError):
                g.with_edge(u, v)

    def test_without_edge_checks_the_range_like_with_edge(self):
        g = complete_graph(4)
        assert g.without_edge(0, 1).e == 5 and g.without_edge(1, 0) == g.without_edge(0, 1)
        h = g.without_edge(0, 1)
        assert h.without_edge(0, 1) is h  # an absent edge in range: g itself
        for u, v in ((0, 99), (99, 0), (-1, 2), (0, 4)):
            with pytest.raises(GraphError, match="bad edge"):
                g.without_edge(u, v)
        with pytest.raises(GraphError, match="self-loop"):
            g.without_edge(2, 2)

    def test_public_constructor_stays_strict(self):
        with pytest.raises(GraphError, match="bad edge"):
            Graph(3, frozenset({(0, 3)}))
        with pytest.raises(GraphError, match="frozenset"):
            Graph(3, [(0, 1)])

    def test_malformed_graph_is_a_graph_error(self):
        # each of these was once accepted and crashed later with a TypeError,
        # or raised a bare ValueError or TypeError
        for n in (2.5, "3", None, -1):
            with pytest.raises(GraphError, match="order"):
                Graph(n, frozenset())
        for edge in ((0, 1.0), (0.0, 1), ("0", "1"), (0, 1, 2), (0,), frozenset({0, 1})):
            with pytest.raises(GraphError, match="bad edge"):
                Graph(3, frozenset({edge}))
        for edges in ([(0, 1, 2)], [(0, "1")], [(0,)], [0, 1], None):
            with pytest.raises(GraphError, match="pairs of vertex ids"):
                Graph.build(3, edges)
        for edges in ([(0, 1.0)], [("a", "b")]):
            with pytest.raises(GraphError, match="bad edge"):
                Graph.build(3, edges)
        with pytest.raises(GraphError, match="order"):
            Graph.build(2.5, [])
        g = complete_graph(4)
        for u, v in ((0, 1.0), (0, "1"), ("0", 1), (None, 2)):
            for edit in (g.with_edge, g.without_edge, g.without_edge(0, 1).with_edge):
                with pytest.raises(GraphError, match="ints"):
                    edit(u, v)


def rebuilt_adj(g: Graph) -> tuple:
    """The adjacency of g built from its edge set alone."""
    rows = [[] for _ in range(g.n)]
    for u, v in g.edges:
        rows[u].append(v)
        rows[v].append(u)
    return tuple(tuple(sorted(r)) for r in rows)


class TestDerivedAdjacency:
    """Graphs derived from another one take their adjacency from it; it must
    be the adjacency a rebuild from their edges gives, and the edges must be
    the ones the public constructor accepts."""

    def assert_derived(self, h: Graph, edges):
        assert h.edges == frozenset(edges)
        assert h.adj == rebuilt_adj(h)
        assert Graph(h.n, h.edges) == h

    def test_every_graph_of_order_at_most_six(self):
        seen = 0
        for n in range(7):
            for g in enumerate_small(n):
                seen += 1
                pairs = list(itertools.combinations(range(n), 2))
                for e in pairs:
                    edit = g.without_edge if e in g.edges else g.with_edge
                    self.assert_derived(edit(*e), g.edges ^ {e})
                    self.assert_derived(edit(e[1], e[0]), g.edges ^ {e})
                for k in range(n + 1):
                    for s in itertools.combinations(range(n), k):
                        sub, ids = induced_subgraph(g, s)
                        idx = {v: i for i, v in enumerate(ids)}
                        kept = {(idx[u], idx[v]) for u, v in g.edges if u in idx and v in idx}
                        self.assert_derived(sub, kept)
                        if not s:
                            continue
                        cg, ids = contract(g, s)
                        survivors = tuple(v for v in range(n) if v not in s)
                        assert ids == survivors and cg.n == len(ids) + 1
                        vmap = {v: ids.index(v) if v in ids else cg.n - 1 for v in range(n)}
                        want = {tuple(sorted((vmap[u], vmap[v]))) for u, v in g.edges if vmap[u] != vmap[v]}
                        self.assert_derived(cg, want)
                        # the last vertex sees exactly the survivors with a neighbour in s
                        touching = [i for i, v in enumerate(ids) if any(w in s for w in g.adj[v])]
                        assert list(cg.adj[cg.n - 1]) == touching
        assert seen == 1 + 1 + 2 + 4 + 11 + 34 + 156  # OEIS A000088, orders 0-6


class TestPathCycle:
    def test_path_validation(self):
        g = cycle_graph(5)
        p = Path(g, (0, 1, 2))
        assert p.length == 2 and p.start == 0 and p.end == 2
        assert p.reverse().vertices == (2, 1, 0)
        with pytest.raises(GraphError):
            Path(g, (0, 2))
        with pytest.raises(GraphError):
            Path(g, (0, 1, 0))

    def test_one_vertex_path_is_checked(self):
        g = complete_graph(4)
        assert Path(g, (3,)).length == 0
        for v in (7, 4, -1):
            with pytest.raises(GraphError, match="outside"):
                Path(g, (v,))
        # with two or more vertices a vertex outside g is a non-edge, as before
        with pytest.raises(GraphError, match="non-edge"):
            Path(g, (0, 7))

    def test_vertex_ids_must_be_ints(self):
        # 1.0 == 1, so a float id once passed the edge test, and a later
        # step crashed with a bare TypeError on it
        g = complete_graph(7)
        for vs in ((1.0,), ("1",), (0, 1.0), (0.0, 1), (0, "1"), (0, 1, 2.0)):
            with pytest.raises(GraphError):
                Path(g, vs)
        for vs in ((0, 1.0, 2), (0.0, 1, 2), (0, 1, 2.0), ("0", 1, 2), (0, "1", 2)):
            with pytest.raises(GraphError):
                Cycle(g, vs)
        with pytest.raises(GraphError):
            finder.pair_from_shared_vertex(g, Cycle(g, (0, 1.0, 2, 3)), Cycle(g, (0, 4, 5)), 0)

    def test_derived_paths_and_cycles_are_the_checked_ones(self):
        # canonical(), arc() and reverse() derive their objects from a checked
        # one in the same host; each must equal what the checked constructor
        # builds from the same vertices, on every cycle of order <= 6
        seen = 0
        for n in range(7):
            for g in enumerate_small(n):
                for vs in oracle.simple_cycles(g):
                    k = len(vs)
                    for c in (Cycle(g, vs), Cycle(g, vs[::-1]), Cycle(g, vs[1:] + vs[:1])):
                        seen += 1
                        canon = c.canonical()
                        assert canon == Cycle(g, canon.vertices)
                        assert type(canon.vertices) is tuple
                        assert canon.vertices[0] == min(vs) and canon.vertices[1] < canon.vertices[-1]
                        assert set(canon.vertices) == set(vs)
                        for i in range(k):
                            for j in range(k):
                                arc = c.arc(c.vertices[i], c.vertices[j])
                                want = tuple(c.vertices[(i + t) % k] for t in range((j - i) % k + 1))
                                assert arc == Path(g, want) and type(arc.vertices) is tuple
                                assert arc.reverse() == Path(g, want[::-1])
                                assert arc.reverse().reverse() == arc
        assert seen == 3 * 2151  # every cycle of every graph of order <= 6, three ways

    def test_trusted_constructors_stay_in_the_graph_layer(self):
        # Path._trusted and Cycle._trusted skip the checks, so only the
        # methods that derive from a checked object of the same host use
        # them, and bfs_path, whose path is read off the rows of its host;
        # Block._trusted only _decomposition, whose blocks the low-point
        # search read off its host
        sites = set()
        for path in sorted(pathlib.Path(graphs.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())

            def visit(node, where):
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        visit(child, child.name)
                        continue
                    if (
                        isinstance(child, ast.Attribute)
                        and child.attr == "_trusted"
                        and not (isinstance(child.value, ast.Name) and child.value.id == "Graph")
                    ):
                        sites.add((path.name, where))
                    visit(child, where)

            visit(tree, "<module>")
        assert sites <= {
            ("graphs.py", "bfs_path"),
            ("graphs.py", "reverse"),
            ("graphs.py", "arc"),
            ("graphs.py", "canonical"),
            ("graphs.py", "_decomposition"),
        }

    def test_cycle_arcs_and_canonical(self):
        g = cycle_graph(6)
        c = Cycle(g, (2, 3, 4, 5, 0, 1))
        assert c.arc(3, 5).vertices == (3, 4, 5)
        assert c.arc(5, 3).vertices == (5, 0, 1, 2, 3)
        assert c.arc_length(3, 5) == 2
        assert c.canonical().vertices == (0, 1, 2, 3, 4, 5)

    def test_chords(self):
        g = Graph.build(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        c = Cycle(g, (0, 1, 2, 3))
        assert c.chords() == [(0, 2)]
        # the host's sorted edges joining cycle vertices two or more steps apart
        g = complete_graph(9)
        c = Cycle(g, (6, 2, 8, 0, 5, 3))
        pos = {v: i for i, v in enumerate(c.vertices)}
        want = [
            (a, b)
            for a, b in g.sorted_edges()
            if a in pos and b in pos and (pos[b] - pos[a]) % 6 not in (1, 5)
        ]
        assert c.chords() == want and len(want) == 9

    def test_cycle_from_paths(self):
        g = complete_graph(4)
        c = cycle_from_paths(Path(g, (0, 1, 2)), Path(g, (0, 3, 2)))
        assert c.length == 4 and set(c.vertices) == {0, 1, 2, 3}

    def test_theta_even_cycle(self):
        g = Graph.build(5, [(0, 1), (0, 2), (2, 1), (0, 3), (3, 4), (4, 1)])
        c = theta_even_cycle([Path(g, (0, 1)), Path(g, (0, 2, 1)), Path(g, (0, 3, 4, 1))])
        assert c.length == 4

    def test_theta_rejects_two_trivial_paths(self):
        g = complete_graph(4)
        with pytest.raises(GraphError):
            theta_even_cycle([Path(g, (0, 1)), Path(g, (0, 1)), Path(g, (0, 2, 1))])

    def test_theta_even_cycle_takes_paths_in_any_order(self):
        # the branch vertices are the paths' ends, so every order of the
        # three paths, each taken either way, gives the same cycle: the one
        # even cycle of lengths 2, 3, 4, and the least of three tied C4s
        g = Graph.build(8, [(0, 2), (2, 1), (0, 3), (3, 4), (4, 1), (0, 5), (5, 6), (6, 7), (7, 1)])
        h = complete_bipartite(2, 3)
        cases = [
            ([Path(g, (0, 2, 1)), Path(g, (0, 3, 4, 1)), Path(g, (0, 5, 6, 7, 1))], (0, 2, 1, 7, 6, 5)),
            ([Path(h, (0, 4, 1)), Path(h, (0, 3, 1)), Path(h, (0, 2, 1))], (0, 2, 1, 3)),
        ]
        for paths, want in cases:
            for order in itertools.permutations(paths):
                for flips in itertools.product((False, True), repeat=3):
                    got = theta_even_cycle([p.reverse() if f else p for p, f in zip(order, flips)])
                    assert got.vertices == want, (order, flips)
        # paths that share an inner vertex or have different ends are no theta
        g = complete_graph(6)
        with pytest.raises(GraphError, match="repeated vertex"):
            theta_even_cycle([Path(g, (0, 2, 1)), Path(g, (0, 3, 2, 4, 1)), Path(g, (0, 5, 1))])
        with pytest.raises(GraphError, match="do not share endpoints"):
            theta_even_cycle([Path(g, (0, 2, 1)), Path(g, (0, 3, 4)), Path(g, (0, 5, 1))])


class TestTraversal:
    def test_components_and_removal(self):
        g = Graph.build(5, [(0, 1), (1, 2), (3, 4)])
        assert components(g) == [(0, 1, 2), (3, 4)]
        assert components(g, frozenset([1])) == [(0,), (2,), (3, 4)]
        assert not is_connected(g)
        assert is_connected(g, frozenset([3, 4, 0]))

    def test_bfs_path_avoids_forbidden(self):
        g = cycle_graph(6)
        p = bfs_path(g, {0}, {3}, frozenset([1]))
        assert p.vertices == (0, 5, 4, 3)
        assert bfs_path(g, {0}, {3}, frozenset([1, 5])) is None

    def test_bfs_path_is_the_checked_path(self):
        # the path is built unchecked, so it must equal the checked Path of
        # its vertices for every choice of one or two sources, one target
        # and up to two forbidden vertices among the others
        found = 0
        for n in range(1, 7):
            starts = [frozenset(c) for k in (1, 2) for c in itertools.combinations(range(n), k)]
            for g in enumerate_small(n):
                for sources, targets in itertools.product(starts, ({t} for t in range(n))):
                    rest = sorted(set(range(n)) - sources - targets)
                    for k in range(min(len(rest), 2) + 1):
                        for forbidden in itertools.combinations(rest, k):
                            p = bfs_path(g, sources, targets, frozenset(forbidden))
                            if p is not None:
                                found += 1
                                assert p == Path(g, p.vertices)
                                assert p.start in sources and p.end in targets
                                assert not p.vertex_set() & set(forbidden)
        assert found > 0

    def test_bfs_path_checks_its_sources(self):
        g = cycle_graph(5)
        for bad in (-1, 5):
            with pytest.raises(GraphError, match="unknown vertex id"):
                bfs_path(g, {bad}, {2})

    def test_spanning_tree_path(self):
        g = cycle_graph(5)
        parent = spanning_tree(g, range(5))
        seq = tree_path(parent, 2, 3)
        assert seq[0] == 2 and seq[-1] == 3

    def test_spanning_tree_checks_its_vertices(self):
        g = cycle_graph(5)
        with pytest.raises(GraphError, match="empty vertex set"):
            spanning_tree(g, ())
        for bad in (-1, 5):
            with pytest.raises(GraphError, match="unknown vertex id"):
                spanning_tree(g, [bad])


class TestSurgeries:
    def test_induced_subgraph_mapping(self):
        g = complete_graph(5)
        sub, mapping = induced_subgraph(g, {1, 3, 4})
        assert sub.n == 3 and sub.e == 3
        assert mapping == (1, 3, 4)

    def test_contract_and_lift(self):
        g = cycle_graph(6)
        cg, ids = contract(g, {2, 3})
        # survivors 0,1,4,5 become 0,1,2,3; the contracted vertex is 4,
        # so cg is the 5-cycle 0-1-4-2-3-0
        assert ids == (0, 1, 4, 5) and cg.n == 5
        assert cg.adj[4] == (1, 2)  # the survivors 1 and 4 see {2, 3}
        p = Path(cg, (4, 2, 3, 0, 1))  # from the contracted vertex around to 1
        # a caller lifts p through ids, entering {2, 3} at the least
        # neighbour of the vertex after the contracted one
        rest = [ids[v] for v in p.vertices[1:]]
        first = next(w for w in g.adj[rest[0]] if w in {2, 3})
        lifted = Path(g, (first, *rest))
        assert lifted.vertices == (3, 4, 5, 0, 1) and lifted.length == p.length
        with pytest.raises(GraphError):
            contract(g, set())


class TestBlocks:
    def test_single_block(self):
        dec = blocks(complete_graph(4))
        assert len(dec.blocks) == 1 and not dec.cut_vertices

    def test_two_triangles_share_vertex(self):
        g = Graph.build(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        dec = blocks(g)
        assert dec.cut_vertices == frozenset([2])
        assert sorted(sorted(b.vertices) for b in dec.blocks) == [[0, 1, 2], [2, 3, 4]]
        assert len(dec.end_blocks()) == 2

    def test_bridge_and_isolated(self):
        g = Graph.build(4, [(0, 1)])
        dec = blocks(g)
        kinds = sorted(sorted(b.vertices) for b in dec.blocks)
        assert kinds == [[0, 1], [2], [3]]

    @pytest.mark.skipif(nx is None, reason="networkx not installed")
    def test_matches_networkx(self):
        rng = random.Random(15)
        peel = Graph.build(  # K_12 and 60 vertices of degree 2 on it
            72, [(i, j) for i in range(12) for j in range(i + 1, 12)]
            + [(v, w) for v in range(12, 72) for w in rng.sample(range(12), 2)])
        inputs = [g for n in range(1, 8) for g in enumerate_small(n)]
        inputs += [gen_k5_block_tree(b, b) for b in range(1, 201)]
        inputs += [k5_tree(b, rng) for b in range(2, 80, 7)]
        inputs += [complete_graph(n) for n in range(1, 61)] + [peel]
        # stars keep their labels: the hub is the first or the last vertex
        stars = [k5_star(b, hub) for b in (1, 2, 3, 10, 50) for hub in (0, 4 * b)]
        for h in [relabelled(g, rng) for g in inputs] + stars:
            ng = nx.Graph(list(h.edges))
            ng.add_nodes_from(h.vertices)
            want = {frozenset([v]): frozenset() for v in nx.isolates(ng)}
            for es in nx.biconnected_component_edges(ng):
                es = frozenset((u, v) if u < v else (v, u) for u, v in es)
                want[frozenset(v for e in es for v in e)] = es
            dec = blocks(h)
            assert {b.vertices: b.edges for b in dec.blocks} == want, h.sorted_edges()
            assert len(dec.blocks) == len(want)
            assert dec.cut_vertices == set(nx.articulation_points(ng))
            keys = [sorted(b.vertices) for b in dec.blocks]
            assert keys == sorted(keys)

    def test_connectivity_cut(self):
        path4 = Graph.build(4, [(0, 1), (1, 2), (2, 3)])
        assert connectivity_cut(path4, 2) in (frozenset([1]), frozenset([2]))
        assert connectivity_cut(complete_graph(4), 3) is None
        cut = connectivity_cut(cycle_graph(5), 3)
        assert len(cut) == 2 and separates(cycle_graph(5), cut)


def separates(g: Graph, cut) -> bool:
    """Whether g - cut is disconnected."""
    return len(components(g, frozenset(cut))) > 1


def smallest_cut_by_pairs(g: Graph, k: int):
    """Reference for connectivity_cut: try every vertex, then every pair, in order."""
    if k <= 1:
        return None
    for v in g.vertices:
        if len(components(g, frozenset([v]))) > 1:
            return frozenset([v])
    if k == 2:
        return None
    for u in g.vertices:
        for v in range(u + 1, g.n):
            if len(components(g, frozenset([u, v]))) > 1:
                return frozenset([u, v])
    return None


def has_pair_by_scans(g: Graph) -> bool:
    """Reference for _separation_pair: some g - u has a cut vertex."""
    rest = frozenset(g.vertices)
    return any(blocks(induced_subgraph(g, rest - {u})[0]).cut_vertices for u in g.vertices)


def assert_cut_agrees(g: Graph, k: int):
    """connectivity_cut(g, k) against the pairwise reference: the same
    smallest cut vertex, and a pair that separates g exactly when the
    reference finds a pair."""
    cut, want = connectivity_cut(g, k), smallest_cut_by_pairs(g, k)
    if want is None or len(want) == 1:
        assert cut == want, (k, g.sorted_edges())
    else:
        assert cut is not None and len(cut) == 2 and separates(g, cut), (k, cut, g.sorted_edges())


def assert_pair_law(g: Graph, want: bool):
    """The pair that _separation_pair and connectivity_cut(g, 3) return on
    the 2-connected g separates g, and is there exactly when want is."""
    for pair in (graphs._separation_pair(g, graphs._palm_tree(g)), connectivity_cut(g, 3)):
        assert (pair is not None) == want, g.sorted_edges()
        assert pair is None or (len(set(pair)) == 2 and separates(g, pair)), (pair, g.sorted_edges())


def k5_star(b: int, hub: int) -> Graph:
    """b K5 blocks sharing only the vertex hub, which is 0 or 4b."""
    rest = [v for v in range(4 * b + 1) if v != hub]
    groups = ([hub, *rest[4 * i : 4 * i + 4]] for i in range(b))
    return Graph.build(4 * b + 1, [e for grp in groups for e in itertools.combinations(grp, 2)])


def k5_tree(b: int, rng) -> Graph:
    """b K5 blocks, each glued at a random vertex of the ones before it."""
    n, edges = 5, list(itertools.combinations(range(5), 2))
    for _ in range(b - 1):
        edges += itertools.combinations([rng.randrange(n), *range(n, n + 4)], 2)
        n += 4
    return Graph.build(n, edges)


def relabelled(g: Graph, rng) -> Graph:
    perm = rng.sample(range(g.n), g.n)
    return Graph.build(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def glued_on_pair(g1: Graph, x1: int, y1: int, g2: Graph, x2: int, y2: int) -> Graph:
    """g1 and a copy of g2 on new vertices, with x2, y2 identified with x1, y1."""
    ids, fresh = {x2: x1, y2: y1}, iter(range(g1.n, g1.n + g2.n))
    for v in g2.vertices:
        if v not in ids:
            ids[v] = next(fresh)
    edges = set(g1.edges) | {(ids[u], ids[v]) for u, v in g2.edges}
    return Graph.build(g1.n + g2.n - 2, edges)


def random_graph(n: int, p: float, rng) -> Graph:
    return Graph.build(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


def three_core(g: Graph) -> Graph:
    """The largest component of the 3-core of g, renumbered."""
    alive = set(g.vertices)
    low = [v for v in g.vertices if g.degree(v) < 3]
    deg = [g.degree(v) for v in g.vertices]
    while low:
        v = low.pop()
        if v in alive:
            alive.discard(v)
            for w in g.adj[v]:
                deg[w] -= 1
                if deg[w] < 3:
                    low.append(w)
    core, _ = induced_subgraph(g, alive)
    if core.n == 0:
        return core
    biggest = max(components(core), key=len)
    return induced_subgraph(core, biggest)[0]


def glued_cliques(a: int, b: int) -> Graph:
    """K_a on 0..a-1 and K_b on a-2..a+b-3, sharing the 2-cut {a-2, a-1}."""
    first = range(a)
    second = range(a - 2, a + b - 2)
    edges = {(u, v) for side in (first, second) for u in side for v in side if u < v}
    return Graph.build(a + b - 2, edges)


class TestConnectivityCut:
    """connectivity_cut returns the smallest cut vertex the pairwise
    reference finds, else a separating pair exactly when it finds one."""

    def assert_matches_reference(self, g):
        for k in (2, 3):
            assert_cut_agrees(g, k)

    def test_connected_graphs_to_order_7(self):
        rng = random.Random(7)
        checked = 0
        for n in range(1, 8):
            for g in enumerate_small(n, "connected"):
                self.assert_matches_reference(g)
                self.assert_matches_reference(relabelled(g, rng))
                checked += 1
        assert checked == 1 + 1 + 2 + 6 + 21 + 112 + 853  # OEIS A001349

    def test_disconnected_raises(self):
        disconnected = 0
        for n in range(2, 8):
            for g in enumerate_small(n):
                if is_connected(g):
                    continue
                disconnected += 1
                for k in (1, 2, 3):
                    with pytest.raises(GraphError, match="connected graph"):
                        connectivity_cut(g, k)
        assert disconnected == (2 + 4 + 11 + 34 + 156 + 1044) - (1 + 2 + 6 + 21 + 112 + 853)
        for g in (Graph(0, frozenset()), Graph(1, frozenset()), complete_graph(2)):
            for k in (1, 2, 3):
                assert connectivity_cut(g, k) is None

    def test_rejects_k_outside_1_to_3(self):
        # None would certify k-connectedness, which means nothing for k <= 0
        for g in (complete_graph(4), cycle_graph(5), Graph(2, frozenset())):
            for k in (0, -1, 4):
                with pytest.raises(GraphError, match="1 <= k <= 3"):
                    connectivity_cut(g, k)

    @pytest.mark.parametrize("n", range(3, 16))
    def test_cycles(self, n):
        g = cycle_graph(n)
        self.assert_matches_reference(g)
        assert (connectivity_cut(g, 3) is None) == (n == 3)

    @pytest.mark.parametrize("rim", range(3, 16))
    def test_wheels(self, rim):
        g = wheel_graph(rim)
        self.assert_matches_reference(g)
        assert connectivity_cut(g, 3) is None  # wheels are 3-connected

    @pytest.mark.parametrize("a,b", [(3, 3), (4, 4), (4, 7), (6, 5), (9, 9)])
    def test_glued_cliques(self, a, b):
        g = glued_cliques(a, b)
        self.assert_matches_reference(g)
        assert connectivity_cut(g, 2) is None
        assert connectivity_cut(g, 3) == frozenset([a - 2, a - 1])

    def assert_pair_test_agrees(self, g, rng):
        """The linear test and the scan reference agree on g and on three
        relabellings of it (each gives another DFS order), and the pair
        found separates."""
        want = has_pair_by_scans(g)
        if nx is not None and g.n <= 120:
            assert (nx.node_connectivity(nx.Graph(list(g.edges))) >= 3) == (not want)
        for h in [g] + [relabelled(g, rng) for _ in range(3)]:
            assert_pair_law(h, want)
        return want

    def test_pair_test_on_2_connected_graphs_to_order_8(self):
        rng = random.Random(8)
        counts = {False: 0, True: 0}
        for n in range(3, 9):
            for g in enumerate_small(n, "min-degree-2"):
                if not is_connected(g) or connectivity_cut(g, 2) is not None:
                    continue
                want = has_pair_by_scans(g)
                for h in (g, relabelled(g, rng), relabelled(g, rng), relabelled(g, rng)):
                    assert_pair_law(h, want)
                counts[want] += 1
        # OEIS A002218 (2-connected) and A006290 (3-connected), orders 3..8
        assert counts[False] == 1 + 1 + 3 + 17 + 136 + 2388
        assert counts[False] + counts[True] == 1 + 3 + 10 + 56 + 468 + 7123

    def test_pair_test_on_planted_pairs(self):
        rng = random.Random(9)
        seen = set()
        for a in range(4, 9):
            for b in range(4, 9):
                # rim vertices 1 and 3 of a wheel are not adjacent
                seen.add(self.assert_pair_test_agrees(
                    glued_on_pair(wheel_graph(a), 1, 3, wheel_graph(b), 1, 3), rng))
        for n, k in [(5, 2), (6, 1), (7, 2), (8, 3), (9, 2), (10, 3)]:
            gp = generalized_petersen(n, k)
            # outer vertices 0 and 2 are not adjacent
            seen.add(self.assert_pair_test_agrees(glued_on_pair(gp, 0, 2, gp, 0, 2), rng))
            seen.add(self.assert_pair_test_agrees(
                glued_on_pair(gp, 0, 2, wheel_graph(n), 1, 3), rng))
        assert seen == {True}

    @pytest.mark.parametrize("n", range(5, 13))
    def test_pair_test_on_generalized_petersen_minus_an_edge(self, n):
        rng = random.Random(n)
        for k in range(1, (n + 1) // 2):
            gp = generalized_petersen(n, k)
            self.assert_pair_test_agrees(gp, rng)
            for u, v in ((0, 1), (0, n), (n, n + k)):
                # both leave a vertex of degree 2, so a pair
                self.assert_pair_test_agrees(gp.without_edge(u, v), rng)
                subdivided = Graph.build(
                    2 * n + 1, (gp.edges - {(u, v)}) | {(u, 2 * n), (v, 2 * n)}
                )
                self.assert_pair_test_agrees(subdivided, rng)

    @pytest.mark.parametrize("rungs", range(2, 15))
    def test_pair_test_on_ladders(self, rungs):
        ladder = Graph.build(
            2 * rungs,
            [(i, i + 1) for i in range(rungs - 1)]
            + [(rungs + i, rungs + i + 1) for i in range(rungs - 1)]
            + [(i, rungs + i) for i in range(rungs)],
        )
        assert self.assert_pair_test_agrees(ladder, random.Random(rungs))

    def test_pair_test_on_seeded_random_cores(self):
        # the 2-connected 3-cores of sparse G(n, p) have minimum degree 3, so
        # the test runs in full; gluing two of them plants a pair
        rng = random.Random(10)
        seen = set()
        for n in (20, 40, 60, 100, 200, 300):
            for c in (4, 6, 10):
                core = three_core(random_graph(n, c / n, rng))
                if core.n < 6 or connectivity_cut(core, 2) is not None:
                    continue
                seen.add(self.assert_pair_test_agrees(core, rng))
                x, y = next((0, v) for v in range(1, core.n) if not core.has_edge(0, v))
                glued = glued_on_pair(core, x, y, core, x, y)
                seen.add(self.assert_pair_test_agrees(glued, rng))
        assert seen == {False, True}

    def test_block_search_answers_as_the_cut_search(self):
        # from vertex 0, the block search reaches what the palm tree
        # reaches, its smallest cut vertex is the one the palm tree finds,
        # and each cut vertex it closes separates g
        rng = random.Random(21)
        cases = [h for n in range(1, 8) for g in enumerate_small(n) for h in (g, relabelled(g, rng))]
        cases += [relabelled(gen_k5_block_tree(b, b), rng) for b in range(1, 41)]
        for a in range(3, 9):
            for b in range(3, 9):
                edges = {(u, v) for u in range(a) for v in range(u + 1, a)}
                edges |= {(u, v) for u in range(a - 1, a + b - 1) for v in range(u + 1, a + b - 1)}
                cases += [relabelled(Graph.build(a + b - 1, edges), rng)]
                cases += [relabelled(glued_cliques(a, b), rng)]
        cases += [random_graph(n, c / n, rng) for n in (10, 30, 100, 300) for c in (1.5, 3, 6, 12)]
        seen = set()
        for g in cases:
            _, cuts, reached = graphs._block_search(g, (0,))
            _, _, _, palm_reached, cut = graphs._palm_tree(g)
            assert (min(cuts, default=None), reached) == (cut, palm_reached), g.sorted_edges()
            for c in cuts:
                assert len(components(g, frozenset([c]))) > len(components(g)), (c, g.sorted_edges())
            seen.add(not cuts)
        assert seen == {False, True}

    def test_long_prism_needs_no_recursion(self):
        # GP(5000, 1) has 10^4 vertices and a depth-first path through all
        assert connectivity_cut(generalized_petersen(5000, 1), 3) is None

    def test_three_connectivity_is_one_palm_tree_search(self, monkeypatch):
        # connectivity_cut(g, 3) and the class read one palm tree, of the
        # sparse certificate of g, and run no other low-point search
        calls = []
        for name in ("_palm_tree", "_block_search"):
            f = getattr(graphs, name)
            monkeypatch.setattr(graphs, name, lambda *a, f=f, name=name: calls.append(name) or f(*a))
        rng = random.Random(23)
        for g in (complete_graph(7), generalized_petersen(12, 5), relabelled(complete_bipartite(4, 7), rng)):
            calls.clear()
            assert connectivity_cut(g, 3) is None
            assert calls == ["_palm_tree"], g.sorted_edges()
            calls.clear()
            assert graphs._connectivity(g) == 3
            assert calls == ["_palm_tree"], g.sorted_edges()

    def test_a_pair_costs_one_palm_tree_search(self, monkeypatch):
        # the pair is the first one the path search meets in the palm tree
        # of the certificate, so no search follows it, wherever the pair's
        # ids lie; the path theorem's test of g + xy is one search too
        calls, palm_tree = [], graphs._palm_tree
        for module in (graphs, finder):
            monkeypatch.setattr(module, "_palm_tree", lambda *a, **kw: calls.append(a) or palm_tree(*a, **kw))
        rng = random.Random(26)
        cases = []
        for a, b in [(4, 4), (5, 7), (8, 6)]:
            # rim vertices 1 and 3 of a wheel are not adjacent
            glued = glued_on_pair(wheel_graph(a), 1, 3, wheel_graph(b), 1, 3)
            cases += [glued] + [relabelled(glued, rng) for _ in range(4)]
        # two GP(500, 3) glued on their outer vertices 0 and 2, which then
        # swap ids with the two largest: a scan for the smallest pair would
        # search the graph once per vertex
        gp = generalized_petersen(500, 3)
        glued = glued_on_pair(gp, 0, 2, gp, 0, 2)
        top = {0: glued.n - 2, 2: glued.n - 1, glued.n - 2: 0, glued.n - 1: 2}
        cases.append(Graph.build(glued.n, [(top.get(u, u), top.get(v, v)) for u, v in glued.edges]))
        for g in cases:
            calls.clear()
            cut = connectivity_cut(g, 3)
            assert cut is not None and len(cut) == 2 and separates(g, cut), g.sorted_edges()
            assert len(calls) == 1, (cut, g.sorted_edges())
            x, y = sorted(cut)
            calls.clear()
            assert finder._two_connected_with(g, x, y)
            assert len(calls) == 1
        assert cut == {1996, 1997}  # the glued GP(500, 3) has 1998 vertices and this one pair


def palm_tree_by_definition(g: Graph, num: list, parent: list) -> tuple:
    """lowpt1, lowpt2 and ND of the palm tree (num, parent), from the subtree
    of each vertex and the fronds out of it."""
    low1, low2, nd = [0] * g.n, [0] * g.n, [1] * g.n
    for v in g.vertices:
        if not num[v]:
            continue
        below = [x for x in g.vertices if num[x] and _is_descendant(parent, x, v)]
        ends = {num[y] for x in below for y in g.adj[x] if num[y] < num[x] and y != parent[x]}
        low1[v] = min(ends | {num[v]})
        low2[v] = min((ends - {low1[v]}) | {num[v]})
        nd[v] = len(below)
    return low1, low2, nd


def smallest_cut_vertex_of_component(g: Graph):
    """The smallest vertex whose removal splits the component of g that
    holds 0, or None: by the components of that component minus each
    vertex."""
    comp = next((c for c in components(g) if 0 in c), ())
    rest = frozenset(g.vertices) - frozenset(comp)
    return next((v for v in comp if len(components(g, rest | {v})) > 1), None)


def _is_descendant(parent: list, x: int, v: int) -> bool:
    while x >= 0 and x != v:
        x = parent[x]
    return x == v


class TestPalmTree:
    """The one low-point search behind connectivity_cut(g, 3)."""

    def test_palm_tree_matches_its_definition(self):
        # the low points (lowpt2 and ND from the arc pass) and the cut
        # vertex of the search from 0 against their definitions
        rng = random.Random(24)
        cases = [h for n in range(1, 8) for g in enumerate_small(n) for h in (g, relabelled(g, rng))]
        cases += [relabelled(generalized_petersen(n, k), rng) for n in (5, 8, 11) for k in (1, 2, 3) if 2 * k < n]
        for g in cases:
            palm = graphs._palm_tree(g)
            num, parent, low1, reached, cut = palm
            order = sorted((v for v in g.vertices if 0 < num[v] <= reached), key=num.__getitem__)
            low2, nd, _, arcs_order = graphs._arcs(g, palm)
            assert [num[v] for v in order] == list(range(1, reached + 1))
            assert arcs_order == order
            assert (order[0], parent[0]) == (0, -1)
            for v in order[1:]:
                assert g.has_edge(v, parent[v]) and num[parent[v]] < num[v]
            assert (low1, low2, nd) == palm_tree_by_definition(g, num, parent), g.sorted_edges()
            assert cut == smallest_cut_vertex_of_component(g), g.sorted_edges()


class TestSparseCertificate:
    """The three-forest certificate keeps the answer of the separation-pair test."""

    def test_certificate_keeps_every_cut_of_at_most_two_vertices(self):
        # Cheriyan-Kao-Thurimella, locally: for every set S of at most two
        # vertices H - S has the components of g - S, so H has the cut
        # vertices and separation pairs of g, which connectivity_cut reads
        # off H
        rng = random.Random(25)
        cases = [h for n in range(4, 8) for g in enumerate_small(n) for h in (g, relabelled(g, rng))]
        for a in range(4, 15):
            for b in range(a, 15):
                for shared in (1, 2):
                    second = [*range(shared), *range(a, a + b - shared)]
                    edges = itertools.combinations(range(a), 2)
                    g = Graph.build(a + b - shared, [*edges, *itertools.combinations(second, 2)])
                    cases.append(relabelled(g, rng))
        for n in (10, 12, 16, 20, 30):
            for p in (0.4, 0.6, 0.8, 0.95):
                g = random_graph(n, p, rng)
                cases += [g, relabelled(glued_on_pair(g, 0, 1, g, 2, 3), rng)]
        sparser = 0
        for g in cases:
            h = graphs._sparse_certificate(g)
            if h is g:
                continue
            sparser += 1
            for size in (0, 1, 2):
                for s in itertools.combinations(g.vertices, size):
                    assert components(h, frozenset(s)) == components(g, frozenset(s)), (s, g.sorted_edges())
        assert sparser >= 150

    def assert_certifies(self, g):
        h = graphs._sparse_certificate(g)
        assert h.n == g.n and h.edges <= g.edges and h.e <= 3 * (g.n - 1)
        assert h.adj == Graph(h.n, h.edges).adj
        want = graphs._separation_pair(g, graphs._palm_tree(g)) is not None
        assert_pair_law(h, want)
        return want

    def test_2_connected_graphs_to_order_7(self):
        counts = {False: 0, True: 0}
        for n in range(3, 8):
            for g in enumerate_small(n, "min-degree-2"):
                if is_connected(g) and connectivity_cut(g, 2) is None:
                    counts[self.assert_certifies(g)] += 1
        # OEIS A002218 (2-connected) and A006290 (3-connected), orders 3..7
        assert counts[False] == 1 + 1 + 3 + 17 + 136
        assert counts[False] + counts[True] == 1 + 3 + 10 + 56 + 468

    def test_seeded_dense_graphs(self):
        # G(n, p) and two of them glued on a pair of vertices, which plants a
        # separation pair; every one has more than 3(n - 1) edges
        rng = random.Random(18)
        seen = set()
        for n in (12, 20, 30, 45, 60):
            for p in (0.4, 0.7, 0.95):
                g = random_graph(n, p, rng)
                if not is_connected(g) or connectivity_cut(g, 2) is not None:
                    continue
                glued = glued_on_pair(g, 0, 1, g, 2, 3)
                for h in (g, glued):
                    assert h.e > 3 * (h.n - 1)
                    seen.add(self.assert_certifies(h))
                    assert_cut_agrees(h, 3)
        assert seen == {False, True}

    def test_block_search_and_cut_read_the_same_on_the_certificate(self):
        # what a dense level of main_theorem reads off H in place of g: the
        # reached count and cut vertices of one low-point search, and the cut
        rng = random.Random(26)
        cases = [g for n in range(1, 8) for g in enumerate_small(n)]
        cases += [complete_graph(n) for n in range(6, 41)]
        for a, b in ((6, 6), (8, 12), (20, 9)):  # K_a and K_b sharing a cut vertex
            g = Graph.build(a + b - 1, [*itertools.combinations(range(a), 2),
                                        *itertools.combinations(range(a - 1, a + b - 1), 2)])
            cases.append(relabelled(g, rng))
        for n in (10, 15, 25, 40, 60):
            for p in (0.3, 0.5, 0.8):
                g = random_graph(n, p, rng)
                cases += [g, relabelled(glued_on_pair(g, 0, 1, g, 2, 3), rng)]
        sparser = 0
        for g in filter(is_connected, cases):
            h = graphs._sparse_certificate(g)
            sparser += h is not g
            want, got = graphs._block_search(g, (0,)), graphs._block_search(h, (0,))
            assert (got[2], got[1]) == (want[2], want[1]), g.sorted_edges()
            assert connectivity_cut(h, 3) == connectivity_cut(g, 3), g.sorted_edges()
        assert sparser >= 60


class TestDisjointPaths:
    def test_menger_success(self):
        # paths are fully vertex-disjoint, endpoints included
        g = complete_graph(6)
        paths, sep = disjoint_paths(g, {0, 1, 2}, {3, 4, 5}, 3)
        assert sep is None and len(paths) == 3
        used = [set(p.vertices) for p in paths]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not (used[i] & used[j])

    def test_menger_separator(self):
        # 0 and 1 feed into 2; 2-3 is the bottleneck; 3 feeds 4 and 5
        g = Graph.build(6, [(0, 2), (1, 2), (2, 3), (3, 4), (3, 5)])
        paths, sep = disjoint_paths(g, {0, 1}, {4, 5}, 2)
        assert paths is None and len(sep) == 1
        assert bfs_path(g, {0, 1} - sep, {4, 5} - sep, sep) is None

    def test_menger_in_a_vertex_set_is_the_flow_of_its_subgraph(self):
        # a flow confined to S = V - {v} gives the paths, or the separator,
        # that the same flow gives on G[S], mapped back: the id map of G[S]
        # is monotone, so it keeps the order of every arc.  a and b are the
        # two smallest and the two largest vertices of S, so n >= 5.
        outcomes = []
        for n in (5, 6):
            for g in enumerate_small(n):
                for v in range(n):
                    s = [w for w in range(n) if w != v]
                    sub, ids = induced_subgraph(g, s)
                    a, b = frozenset(s[:2]), frozenset(s[-2:])
                    sa, sb = frozenset([0, 1]), frozenset([n - 3, n - 2])
                    for k in (1, 2, 3):
                        paths, sep = graphs._menger(g, a, b, k, allowed=s)
                        spaths, ssep = graphs._menger(sub, sa, sb, k)
                        if spaths is None:
                            assert paths is None and sep == {ids[w] for w in ssep}
                        else:
                            assert sep is None
                            assert [p.vertices for p in paths] == [
                                tuple(ids[w] for w in p.vertices) for p in spaths
                            ]
                        outcomes.append(spaths is None)
        assert (len(outcomes), sum(outcomes)) == (3 * (5 * 34 + 6 * 156), 1660)  # (runs, separators)

    def test_fan(self):
        g = complete_graph(5)
        paths = fan(g, 0, {2, 3, 4}, 3)
        assert [p.end for p in paths] == [2, 3, 4]
        inner = [set(p.vertices[1:-1]) for p in paths]
        assert not (inner[0] & inner[1]) and not (inner[1] & inner[2])

    def test_fan_infeasible(self):
        g = cycle_graph(5)
        assert fan(g, 0, {2, 3}, 3) is None

    def test_fan_centre_is_not_a_target(self):
        with pytest.raises(GraphError):
            fan(complete_graph(5), 0, {0, 1, 2}, 2)

    def test_unknown_vertex_ids(self):
        # an id outside 0..n-1 is refused, not read as a vertex cut off from
        # the rest or, if negative, as vertex n + id
        g = complete_graph(4)
        for a, b in (({0}, {7}), ({-1}, {2}), ({4}, {0, 1})):
            with pytest.raises(GraphError, match="unknown vertex id"):
                disjoint_paths(g, a, b, 1)
        for u, targets, allowed in ((0, {99}, None), (-1, {2}, None), (0, {2}, {1, -4})):
            with pytest.raises(GraphError, match="unknown vertex id"):
                fan(g, u, targets, 1, allowed)

    @settings(max_examples=300, deadline=None)
    @given(small_graphs(), st.integers(min_value=1, max_value=4), st.data())
    def test_fan_duality(self, g, k, data):
        if g.n < 2:
            return
        u = data.draw(st.integers(min_value=0, max_value=g.n - 1))
        others = [v for v in g.vertices if v != u]
        targets = set(data.draw(st.lists(st.sampled_from(others), min_size=1, unique=True)))
        allowed = data.draw(st.none() | st.sets(st.sampled_from(list(g.vertices))))
        inner = set(g.vertices if allowed is None else allowed) - targets - {u}
        paths = fan(g, u, targets, k, allowed)
        if paths is not None:
            assert len(paths) == k
            assert [p.end for p in paths] == sorted(p.end for p in paths)
            seen = set()
            for p in paths:
                assert p.start == u and p.end in targets
                assert set(p.vertices[1:-1]) <= inner
                assert not (set(p.vertices[1:]) & seen)
                seen |= set(p.vertices[1:])
        else:
            assert any(
                _fan_separator(g, u, targets, inner, set(x))
                for size in range(k)
                for x in itertools.combinations(others, size)
            )


class TestParity:
    def test_bipartite_coloring(self):
        ok, coloring = is_bipartite(cycle_graph(6))
        assert ok
        assert all(coloring[i] != coloring[(i + 1) % 6] for i in range(6))

    def test_odd_cycle_witness(self):
        ok, witness = is_bipartite(cycle_graph(5))
        assert not ok and witness.length % 2 == 1

    def test_shortest_odd_cycle(self):
        assert shortest_odd_cycle(cycle_graph(6)) is None
        assert shortest_odd_cycle(petersen_graph()).length == 5
        assert shortest_odd_cycle(complete_graph(4)).length == 3

    @settings(max_examples=150, deadline=None)
    @given(small_graphs())
    def test_bipartite_trichotomy(self, g):
        ok, out = is_bipartite(g)
        if ok:
            for u, v in g.edges:
                assert out[u] != out[v]
        else:
            assert out.length % 2 == 1  # Cycle construction validates edges

    @settings(max_examples=100, deadline=None)
    @given(small_graphs())
    def test_blocks_partition_edges(self, g):
        dec = blocks(g)
        seen = [e for b in dec.blocks for e in b.edges]
        assert sorted(seen) == g.sorted_edges()
        assert len(seen) == len(set(seen))

    @settings(max_examples=200, deadline=None)
    @given(small_graphs(), st.integers(min_value=1, max_value=3), st.data())
    def test_menger_duality(self, g, k, data):
        # endpoint sets of size >= k, so that k paths are possible at all
        if g.n < 2 * k:
            return
        order = data.draw(st.permutations(range(g.n)))
        na = data.draw(st.integers(min_value=k, max_value=g.n - k))
        nb = data.draw(st.integers(min_value=k, max_value=g.n - na))
        a, b = set(order[:na]), set(order[na : na + nb])
        paths, sep = disjoint_paths(g, a, b, k)
        if paths is not None:
            assert sep is None and len(paths) == k
            for p in paths:
                assert p.start in a and p.end in b
                assert not set(p.vertices[1:-1]) & (a | b)
            used = [set(p.vertices) for p in paths]
            for i in range(k):
                for j in range(i + 1, k):
                    assert not (used[i] & used[j])
        else:
            assert len(sep) < k
            for comp in components(g, sep):
                cs = set(comp)
                assert not (cs & (a - sep) and cs & (b - sep))


def shortest_odd_cycle_all_starts(g: Graph):
    """Reference for shortest_odd_cycle: a breadth-first search of the
    bipartite double cover from (s, 0) for every start s, each to the best
    length so far; the cycle is the walk of the first start to reach the
    minimum, in canonical form."""
    best = None  # (length, start vertex, parent map of its search)
    for s in g.vertices:
        dist = {(s, 0): 0}
        parent = {(s, 0): None}
        queue = [(s, 0)]
        for v, p in queue:
            if (s, 1) in dist:
                break
            d = dist[(v, p)] + 1
            if best is not None and d >= best[0]:
                break
            for w in g.adj[v]:
                if (w, 1 - p) not in dist:
                    dist[(w, 1 - p)] = d
                    parent[(w, 1 - p)] = (v, p)
                    queue.append((w, 1 - p))
        if (s, 1) in dist:
            best = (dist[(s, 1)], s, parent)
    if best is None:
        return None
    _, s, parent = best
    seq, node = [], parent[(s, 1)]
    while node is not None:
        seq.append(node[0])
        node = parent[node]
    return Cycle(g, tuple(reversed(seq))).canonical()


def odd_closed_walk_length(g: Graph, s: int, allowed):
    """Length of a shortest odd closed walk through s in g[allowed], or None:
    the distance from (s, 0) to (s, 1) in the bipartite double cover."""
    dist = {(s, 0): 0}
    queue = [(s, 0)]
    for v, p in queue:
        for w in g.adj[v]:
            if w in allowed and (w, 1 - p) not in dist:
                dist[(w, 1 - p)] = dist[(v, p)] + 1
                queue.append((w, 1 - p))
    return dist.get((s, 1))


class TestShortestOddCycle:
    """shortest_odd_cycle returns exactly the cycle the all-starts reference finds."""

    def assert_matches_reference(self, g):
        got, want = shortest_odd_cycle(g), shortest_odd_cycle_all_starts(g)
        assert (got and got.vertices) == (want and want.vertices), g.sorted_edges()
        return got

    def test_graphs_to_order_7(self):
        # disconnected graphs included; the length is the smallest odd one
        # in the oracle's cycle spectrum
        checked = 0
        for n in range(8):
            for g in enumerate_small(n):
                got = self.assert_matches_reference(g)
                odd = [k for k in oracle.cycle_spectrum(g).lengths if k % 2]
                assert (got and got.length) == (min(odd) if odd else None)
                checked += 1
        assert checked == 1 + 1 + 2 + 4 + 11 + 34 + 156 + 1044  # OEIS A000088

    @pytest.mark.parametrize("n", range(3, 26))
    def test_generalized_petersen(self, n):
        for k in range(1, (n + 1) // 2):
            self.assert_matches_reference(generalized_petersen(n, k))

    def test_seeded_random_graphs(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(2, 60)
            p = rng.choice([1.5, 3, 6, 10]) / n
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
            self.assert_matches_reference(Graph.build(n, edges))

    def test_complete_graphs(self):
        for n in range(3, 41):
            assert self.assert_matches_reference(complete_graph(n)).vertices == (0, 1, 2)

    def test_shortest_odd_cycles_on_the_highest_ids(self):
        # the vertices on shortest odd cycles take the highest ids, so every
        # start below them searches a G[>= s] that holds none of length L
        rng = random.Random(19)
        samples = [generalized_petersen(n, k) for n in (9, 15, 21) for k in range(1, (n + 1) // 2)]
        for _ in range(120):
            n = rng.randint(5, 40)
            p = rng.choice([1.5, 2.5, 4]) / n
            pairs = itertools.combinations(range(n), 2)
            samples.append(Graph.build(n, [e for e in pairs if rng.random() < p]))
        moved = 0
        for g in samples:
            walks = [odd_closed_walk_length(g, s, g.vertices) for s in g.vertices]
            odd = [w for w in walks if w is not None]
            if not odd:
                continue
            on = [v for v in g.vertices if walks[v] == min(odd)]
            off = [v for v in g.vertices if walks[v] != min(odd)]
            rng.shuffle(on)
            rng.shuffle(off)
            ids = {v: i for i, v in enumerate(off + on)}
            h = Graph.build(g.n, [(ids[u], ids[v]) for u, v in g.edges])
            got = self.assert_matches_reference(h)
            assert got.length == min(odd) and min(got.vertices) >= len(off)
            moved += bool(off)
        assert moved >= 90

    @pytest.mark.parametrize("half", [2, 3, 10, 40])
    def test_even_cycle_joined_to_a_pentagon(self, half):
        # the only shortest odd cycle sits on the five highest ids
        n = 2 * half
        ring = [(i, (i + 1) % n) for i in range(n)]
        pentagon = [(n + i, n + (i + 1) % 5) for i in range(5)]
        for joins in ([(0, n)], [(n - 1, n + 4)], [(0, n), (half, n + 2)]):
            g = Graph.build(n + 5, ring + pentagon + joins)
            assert self.assert_matches_reference(g).vertices == tuple(range(n, n + 5))

    def test_odd_prisms(self):
        for n in range(3, 62, 2):
            assert self.assert_matches_reference(generalized_petersen(n, 1)).length == n

    def test_each_start_stays_above_it(self):
        # the search from s writes levels only at vertices >= s, measures the
        # shortest odd closed walk through s in G[>= s], and resets the levels
        class Recording(list):
            def __setitem__(self, i, x):
                self.writes.append(i)
                super().__setitem__(i, x)

        rng = random.Random(23)
        samples = [generalized_petersen(n, 1) for n in (5, 9, 15)]
        samples += [petersen_graph(), wheel_graph(7), complete_graph(6)]
        for _ in range(30):
            n = rng.randint(5, 30)
            pairs = itertools.combinations(range(n), 2)
            samples.append(Graph.build(n, [e for e in pairs if rng.random() < 4 / n]))
        for g in samples:
            level = Recording([-1] * g.n)
            for s in g.vertices:
                level.writes = []
                got = graphs._odd_walk_length(g, s, 2 * g.n + 1, level)
                assert got == odd_closed_walk_length(g, s, range(s, g.n)), (g.sorted_edges(), s)
                assert min(level.writes) == s
                assert level == [-1] * g.n

    def test_starts_searched(self, monkeypatch):
        # a triangle at vertex 0 ends the search at the first start, and a
        # bipartite graph is answered without any
        starts = []
        real = graphs._odd_walk_length
        monkeypatch.setattr(
            graphs, "_odd_walk_length", lambda g, s, *a: starts.append(s) or real(g, s, *a)
        )
        for n in (3, 10, 40):
            starts.clear()
            assert shortest_odd_cycle(complete_graph(n)).vertices == (0, 1, 2)
            assert starts == [0]
        for g in (cycle_graph(8), complete_bipartite(5, 7), generalized_petersen(10, 3)):
            starts.clear()
            assert shortest_odd_cycle(g) is None
            assert starts == []


def _fan_separator(g, u, targets, inner, x) -> bool:
    """True iff x meets every path from u to targets - x whose inner vertices
    lie in `inner` (brute force, independent of the flow code)."""
    reached, stack = {u}, [u]
    while stack:
        v = stack.pop()
        for w in g.adj[v]:
            if w in x:
                continue
            if w in targets:
                return False
            if w in inner and w not in reached:
                reached.add(w)
                stack.append(w)
    return True
