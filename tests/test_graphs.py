import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evencycles.generators import (
    complete_graph,
    cycle_graph,
    enumerate_small,
    petersen_graph,
    wheel_graph,
)
from evencycles.graphs import (
    Cycle,
    Graph,
    GraphError,
    Path,
    ThetaGraph,
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
    lift_path,
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

    def test_edge_edits(self):
        g = Graph.build(3, [(0, 1)])
        assert g.with_edge(1, 2).e == 2
        assert g.without_edge(0, 1).e == 0


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

    def test_cycle_from_paths(self):
        g = complete_graph(4)
        c = cycle_from_paths(Path(g, (0, 1, 2)), Path(g, (0, 3, 2)))
        assert c.length == 4 and set(c.vertices) == {0, 1, 2, 3}

    def test_theta_even_cycle(self):
        g = Graph.build(5, [(0, 1), (0, 2), (2, 1), (0, 3), (3, 4), (4, 1)])
        t = ThetaGraph.build(0, 1, [Path(g, (0, 1)), Path(g, (0, 2, 1)), Path(g, (0, 3, 4, 1))])
        c = theta_even_cycle(t)
        assert c.length == 4

    def test_theta_rejects_two_trivial_paths(self):
        g = complete_graph(4)
        with pytest.raises(GraphError):
            ThetaGraph.build(0, 1, [Path(g, (0, 1)), Path(g, (0, 1)), Path(g, (0, 2, 1))])


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

    def test_spanning_tree_path(self):
        g = cycle_graph(5)
        parent = spanning_tree(g, range(5))
        seq = tree_path(parent, 2, 3)
        assert seq[0] == 2 and seq[-1] == 3


class TestSurgeries:
    def test_induced_subgraph_mapping(self):
        g = complete_graph(5)
        sub, mapping = induced_subgraph(g, {1, 3, 4})
        assert sub.n == 3 and sub.e == 3
        assert mapping == (1, 3, 4)

    def test_contract_and_lift(self):
        g = cycle_graph(6)
        cg, rec = contract(g, {2, 3})
        # survivors 0,1,4,5 become 0,1,2,3; the contracted vertex is 4,
        # so cg is the 5-cycle 0-1-4-2-3-0
        assert cg.n == 5 and rec.contracted_vertex == 4
        p = Path(cg, (4, 2, 3, 0, 1))  # from the contracted vertex around to 1
        lifted, chosen = lift_path(rec, p)
        assert chosen in {2, 3}
        assert lifted.start in {2, 3} and lifted.end == 1
        assert lifted.length == p.length

    def test_lift_rejects_internal_visit(self):
        g = cycle_graph(6)
        cg, rec = contract(g, {2, 3})
        bad = Path(cg, (1, 4, 2))
        with pytest.raises(GraphError):
            lift_path(rec, bad)


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

    def test_connectivity_cut(self):
        path4 = Graph.build(4, [(0, 1), (1, 2), (2, 3)])
        assert connectivity_cut(path4, 2) in (frozenset([1]), frozenset([2]))
        assert connectivity_cut(complete_graph(4), 3) is None
        assert connectivity_cut(cycle_graph(5), 3) == frozenset([0, 2])


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


def glued_cliques(a: int, b: int) -> Graph:
    """K_a on 0..a-1 and K_b on a-2..a+b-3, sharing the 2-cut {a-2, a-1}."""
    first = range(a)
    second = range(a - 2, a + b - 2)
    edges = {(u, v) for side in (first, second) for u in side for v in side if u < v}
    return Graph.build(a + b - 2, edges)


class TestConnectivityCut:
    """connectivity_cut returns exactly the cut the pairwise reference finds."""

    def assert_matches_reference(self, g):
        for k in (2, 3):
            assert connectivity_cut(g, k) == smallest_cut_by_pairs(g, k), (k, g.edges)

    def test_connected_graphs_to_order_7(self):
        rng = random.Random(7)
        checked = 0
        for n in range(1, 8):
            for g in enumerate_small(n, "connected"):
                self.assert_matches_reference(g)
                perm = rng.sample(range(n), n)
                self.assert_matches_reference(
                    Graph.build(n, [(perm[u], perm[v]) for u, v in g.edges])
                )
                checked += 1
        assert checked == 1 + 1 + 2 + 6 + 21 + 112 + 853  # OEIS A001349

    @pytest.mark.parametrize("n", range(3, 16))
    def test_cycles(self, n):
        g = cycle_graph(n)
        self.assert_matches_reference(g)
        assert connectivity_cut(g, 3) == (None if n == 3 else frozenset([0, 2]))

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
