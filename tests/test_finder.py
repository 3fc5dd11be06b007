import ast
import functools
import hashlib
import heapq
import inspect
import itertools
import json
import pathlib
import random
import sys
import types

import pytest
from conftest import even_cycle_within

from evencycles import finder, graphs, oracle
from evencycles.codecs import decode_graph6, encode_graph6
from evencycles.finder import (
    HypothesisFailure,
    InternalInvariantError,
    K5BlockWitness,
    Outcome,
    combine_quasi_diagonal,
    cycle_two_mod_four,
    main_theorem,
    odd_even_arcs,
    pair_from_shared_vertex,
    quasi_diagonal,
    three_connected_pair,
    two_paths_diff_two,
)
from evencycles.generators import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    enumerate_small,
    gen_k5_block_tree,
    generalized_petersen,
    is_k5_block_tree,
    petersen_graph,
    prism_graph,
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
    is_bipartite,
    is_connected,
    shortest_odd_cycle,
)


DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "main_theorem_golden.json").read_text())
THREE_CONNECTED_GOLDEN = json.loads((DATA / "three_connected_golden.json").read_text())
TWO_PATHS_GOLDEN = json.loads((DATA / "two_paths_golden.json").read_text())


def source_lines_run(fn, call) -> set:
    """The line numbers of the function fn that run during call().  The
    frames of other code go on to any tracer already set."""
    ran, old = set(), sys.gettrace()

    def trace(frame, event, arg):
        if frame.f_code is not fn.__code__:
            return old(frame, event, arg) if old else None
        if event == "line":
            ran.add(frame.f_lineno)
        return trace

    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(old)
    return ran


def assert_valid_pair(cert, g):
    ok, why = oracle.validate(cert, g)
    assert ok, why


def block_heads(fn) -> dict:
    """Line number -> stripped text of the first statement of each block of
    the function fn: its body and those of its ifs, elses and loops, nested
    defs left out.  A block that only raises has no head."""
    lines, first = inspect.getsourcelines(fn)
    heads = {}

    def visit(body):
        if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]  # a docstring runs no line
        if not (len(body) == 1 and isinstance(body[0], ast.Raise)):
            heads[first + body[0].lineno - 1] = lines[body[0].lineno - 1].strip()
        for stmt in body:
            if isinstance(stmt, (ast.If, ast.For, ast.While)):
                visit(stmt.body)
                if stmt.orelse:
                    visit(stmt.orelse)

    visit(ast.parse("".join(lines)).body[0].body)
    return heads


def test_source_lines_run_keeps_an_outer_tracer():
    seen, old = [], sys.gettrace()

    def outer(frame, event, arg):
        seen.append(frame.f_code.co_name)

    def inner():
        return 1

    def fn():
        return inner()

    sys.settrace(outer)
    try:
        ran = source_lines_run(fn, fn)
    finally:
        sys.settrace(old)
    assert ran == {fn.__code__.co_firstlineno + 1}
    assert "inner" in seen


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

    @pytest.mark.parametrize("length", range(3, 16, 2))
    def test_odd_arc_length(self, length):
        # the cubic endgame reads the odd arc's length off arc_length alone,
        # and walks both arcs from u to v: on a cycle graph and on the rims
        # of the odd prism GP(length, 1), reversed and rotated too
        prism = generalized_petersen(length, 1)
        rim, inner = tuple(range(length)), tuple(range(length, 2 * length))
        cycles = [Cycle(cycle_graph(length), rim)]
        cycles += [Cycle(prism, vs) for vs in (rim, rim[::-1], inner, inner[2:] + inner[:2])]
        for c in cycles:
            for u, v in itertools.permutations(c.vertices, 2):
                arcs = odd_even_arcs(c, u, v)
                assert finder._odd_arc_length(c, u, v) == arcs[0].length
                assert [(a.start, a.end) for a in arcs] == [(u, v), (u, v)]


def stabilized(g, v):
    """The stabilized even cycle avoiding v, from the even cycle the proof
    starts with, or None if g - v has no even cycle."""
    start = even_cycle_within(g, set(g.vertices) - {v})
    return None if start is None else finder._stabilize_even_cycle(g, frozenset({v}), start)


class TestStabilize:
    def test_postconditions_on_wheel(self):
        g = wheel_graph(6)
        c = stabilized(g, 0)
        assert c.length % 2 == 0
        assert 0 not in c.vertex_set()
        assert finder._stabilize_violation(g, c) is None

    @pytest.mark.parametrize(
        "n, chords",
        [(6, [(0, 3)]), (6, [(0, 2), (1, 3)]), (8, [(0, 6), (2, 4)]), (6, [(0, 2), (0, 4)])],
        ids=["odd-arc chord", "crossing chords", "nested chords", "chords sharing an end"],
    )
    def test_even_proper_subcycle(self, n, chords):
        g = Graph.build(n, [(i, (i + 1) % n) for i in range(n)] + chords)
        c = Cycle(g, tuple(range(n)))
        sub = finder._even_proper_subcycle(g, c)
        assert isinstance(sub, Cycle) and sub.length % 2 == 0
        assert sub.vertex_set() < c.vertex_set()

    def test_a_single_odd_splitting_chord_is_exchanged(self, monkeypatch):
        # the one input of order <= 8 a search of 3-connected graphs found
        # for this branch: b has the one chord 37, which splits it into odd
        # arcs, so b gives way to the shorter even cycle that chord closes
        g = decode_graph6("G?NVVc")
        seen = []
        for name in ("_stabilize_violation", "_even_proper_subcycle"):
            f = getattr(finder, name)
            monkeypatch.setattr(finder, name, lambda g, c, f=f: seen.append((c.vertices, f(g, c))) or seen[-1][1])
        cert = pair_from_shared_vertex(g, Cycle(g, (0, 5, 3, 4, 2, 7)), Cycle(g, (1, 6, 7)), 7)
        assert oracle.validate(cert, g)[0] and cert.lengths == (4, 6)
        (b, kind), (_, exchanged) = seen[:2]
        assert (b, kind) == ((0, 5, 3, 4, 2, 7), "chords") and Cycle(g, b).chords() == [(3, 7)]
        assert exchanged.vertices == (3, 4, 2, 7)

    def test_seeded_instances(self, three_connected_factory):
        import random

        checked = 0
        for seed in range(200):
            g = three_connected_factory(seed)
            v = random.Random(seed).randrange(g.n)
            c = stabilized(g, v)
            if c is None:
                continue
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

    # b is the C6 0..5, whose vertices 0, 2 and 4 are pairwise quasi-diagonal;
    # the triangles 678, 0 9 10 and 0 1 11 meet it in none, one and two vertices
    MALFORMED = Graph.build(
        13,
        [(i, (i + 1) % 6) for i in range(6)]
        + [(6, 7), (7, 8), (6, 8), (0, 9), (9, 10), (0, 10), (0, 11), (1, 11)]
        + [(0, 6), (2, 7), (4, 8), (3, 7), (2, 9), (4, 10), (3, 11)]
        + [(0, 12), (2, 12), (6, 12), (7, 12)],
    )

    @pytest.mark.parametrize(
        "d, connectors, message",
        [
            ((0, 9, 10), [(2, 9), (4, 10)], "connector"),
            ((6, 7, 8), [(0, 6)], "connector"),
            ((0, 1, 11), [(3, 11)], "connector"),
            ((0, 1, 11), [], "connector"),
            ((6, 7, 8), [], "connector"),
            ((6, 7, 8), [(0, 6), (2, 7), (4, 8)], "connector"),
            ((0, 9, 10), [(2, 12, 0, 9)], "internally"),
            ((0, 9, 10), [(0, 12, 2)], "connector"),
            ((6, 7, 8), [(0, 6), (2, 3, 7)], "internally"),
            ((6, 7, 8), [(0, 12), (2, 7)], "join b to d"),
            ((6, 7, 8), [(0, 12, 6), (2, 12, 7)], "not disjoint"),
        ],
        ids=[
            "two-connectors-shared-vertex",
            "one-connector-disjoint",
            "two-shared-vertices",
            "no-connector-two-shared-vertices",
            "no-connector",
            "three-connectors",
            "connector-through-u",
            "connector-ending-at-u",
            "connector-inner-vertex-on-b",
            "connector-misses-d",
            "connectors-meet",
        ],
    )
    def test_rejects_malformed(self, d, connectors, message):
        g = self.MALFORMED
        b, d, paths = Cycle(g, tuple(range(6))), Cycle(g, d), [Path(g, p) for p in connectors]
        with pytest.raises(GraphError, match=message):
            combine_quasi_diagonal(b, d, paths)


    def test_quasi_diagonality_is_read_off_b(self, monkeypatch):
        def no_structure(c):
            raise AssertionError("combine_quasi_diagonal built the quasi-diagonal structure")

        monkeypatch.setattr(finder, "quasi_diagonal", no_structure)
        self.test_disjoint_form()
        self.test_shared_form()
        for size in (4, 6, 8, 10):
            # b = C_size on 0..size - 1 and a triangle d: connectors from 0 to
            # size and from i to size + 1, quasi-diagonal iff i = size/2 -+ 1
            g = complete_graph(size + 3)
            b, d = Cycle(g, tuple(range(size))), Cycle(g, (size, size + 1, size + 2))
            for i in range(1, size):
                paths = [Path(g, (0, size)), Path(g, (i, size + 1))]
                if abs(i - size // 2) == 1:
                    assert oracle.validate(combine_quasi_diagonal(b, d, paths), g)[0]
                else:
                    with pytest.raises(GraphError, match="not quasi-diagonal"):
                        combine_quasi_diagonal(b, d, paths)


class TestLemmaPipelines:
    def test_disjoint_odd_even(self):
        g = complete_graph(7)
        d = Cycle(g, (0, 1, 2))
        cert = finder._pair_from_disjoint_odd_even(g, d, even_cycle_within(g, {3, 4, 5, 6}))
        assert_valid_pair(cert, g)

    def test_shared_vertex(self):
        g = complete_graph(7)
        b = Cycle(g, (0, 1, 2, 3))
        d = Cycle(g, (0, 4, 5))
        cert = pair_from_shared_vertex(g, b, d, 0)
        assert_valid_pair(cert, g)

    def test_shared_vertex_reads_the_cycles_in_g(self):
        # b and d are checked as cycles of g, not of the graph they came with
        k = complete_graph(12)
        with pytest.raises(GraphError):
            pair_from_shared_vertex(generalized_petersen(7, 2), Cycle(k, (0, 1, 2, 3)), Cycle(k, (0, 4, 5)), 0)
        g = complete_graph(7)
        h = Graph.build(7, g.sorted_edges())
        cert = pair_from_shared_vertex(g, Cycle(h, (0, 1, 2, 3)), Cycle(h, (0, 4, 5)), 0)
        assert_valid_pair(cert, g)
        assert cert.c1.graph is g and cert.c2.graph is g

    def test_shared_vertex_validates_intersection(self):
        g = complete_graph(7)
        with pytest.raises(GraphError):
            pair_from_shared_vertex(g, Cycle(g, (0, 1, 2, 3)), Cycle(g, (0, 1, 4)), 0)

    def test_shared_vertex_needs_a_3_connected_graph(self):
        # vertex 0 has degree 1 and 6 is a cut vertex; the proof of the step
        # needs 3-connectivity, so this is a hypothesis failure, not a bug
        g = Graph.build(8, [(0, 6), (1, 5), (1, 7), (2, 5), (2, 6), (2, 7), (3, 6), (4, 5),
                            (4, 7), (5, 6), (6, 7)])
        with pytest.raises(HypothesisFailure, match="not 3-connected") as exc:
            pair_from_shared_vertex(g, Cycle(g, (1, 5, 4, 7)), Cycle(g, (2, 5, 6)), 5)
        assert exc.value.name == "connectivity" and exc.value.witness == {6}

    def test_two_disjoint_odd(self, monkeypatch):
        # K6 minus its shortest odd cycle (0, 1, 2) is the triangle (3, 4, 5)
        calls, real = [], finder._cubic_endgame
        monkeypatch.setattr(
            finder, "_cubic_endgame", lambda g, b, d: calls.append(d.vertices) or real(g, b, d)
        )
        g = complete_graph(6)
        assert_valid_pair(three_connected_pair(g), g)
        assert calls == [(3, 4, 5)]


# Inputs that together run every block of the 3-connected step, each with
# the certificate it gives: a graph6 string; the cycles b and d, and the
# vertex u they share, handed to pair_from_shared_vertex, or None for
# three_connected_pair; and the pair.
THREE_CONNECTED_PINS = [
    # _long_odd_case: no vertex of D past v3 has an F-neighbour (the
    # `continue`), so F is the path u w u'
    ("IqeBJGSQG", None, ((0, 1, 6, 5), (0, 1, 7, 2, 6, 5))),
    # the stabilized even cycle misses u
    ("F@vfw", ((1, 4, 6, 5), (2, 3, 6), 6), ((0, 4, 3, 6), (0, 5, 1, 4, 3, 6))),
    # both quasi-diagonal partners of u are buried: the chord triangle
    ("G@U^FC", ((0, 5, 3, 4, 1, 6), (2, 6, 7), 6), ((0, 5, 3, 4, 1, 6), (0, 5, 3, 4, 1, 6, 2, 7))),
    # _two_disjoint_odd: an odd end-block of F without a cut vertex
    ("JUcgcCJRB_?", None, ((0, 2, 10, 1, 3, 6, 8, 7), (0, 2, 10, 1, 9, 4, 3, 6, 8, 7))),
    # ... and one with a cut vertex of F
    ("G@Q^No", None, ((1, 6, 2, 7), (1, 6, 5, 3, 2, 7))),
    # ... and an end-block K2
    ("F@vn_", None, ((0, 4, 3, 6), (0, 5, 1, 4, 3, 6))),
    # _cubic_endgame: B and D matched 5-cycles, an edge of one with partners
    # one apart on the other, so that edge and its partners close a C4
    ("IRDKAEHH_", None, ((0, 2, 9, 6), (1, 3, 2, 9, 6, 7))),
    # ... every odd arc of length 1 (a relabelled pentagonal prism)
    ("IqCcISoBG", None, ((0, 1, 7, 6), (0, 1, 3, 4, 7, 6))),
    # ... every odd arc of length 3 (GP(5, 2): the C6 and the C8)
    ("IheA@GUAo", None, ((0, 1, 6, 9, 7, 5), (0, 1, 6, 9, 7, 2, 3, 4))),
    # ... a vertex with two neighbours on the other cycle, and then in
    # _pair_from_shared_vertex a quasi-diagonal partner of it that sees F
    ("ELvg", None, ((0, 3, 4, 5), (0, 3, 4, 1, 2, 5))),
    # _long_odd_case: the first leaf u of F sees D at a and b > a, two steps
    # apart along D from a, so v1 = a and v3 = b
    ("Gp_ZIo", None, ((2, 3, 5, 6), (0, 1, 6, 5, 3, 2))),
    # _triangle_case: g - V(D) is three K1s, each joined to all of D
    ("E~z_", None, ((0, 2, 1, 3), (0, 3, 2, 5, 1, 4))),
    # ... a K2 and a K1
    ("E]}g", None, ((0, 2, 1, 4), (0, 3, 1, 4, 2, 5))),
    # ... a path between leaves of length 2
    ("EFzg", None, ((0, 4, 1, 5), (0, 4, 1, 3, 2, 5))),
    # ... and of length 3, the smallest input that 16 seeded relabellings of
    # the 3-connected graphs of order 6-8 bring there
    ("F[pz_", None, ((1, 2, 5, 4), (0, 3, 6, 2, 1, 4))),
]


def pinned_call(g, shared):
    """The call that THREE_CONNECTED_PINS pins on g."""
    if shared is None:
        return lambda: three_connected_pair(g)
    b, d, u = shared
    return lambda: pair_from_shared_vertex(g, Cycle(g, b), Cycle(g, d), u)


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
        # graph6 Jne{vwJnhW? (order 11): the stabilizer fans a stray
        # component of g - V(C) onto C; the certificate is pinned
        calls = []
        real_fan = finder.fan
        monkeypatch.setattr(finder, "fan", lambda *a, **kw: calls.append(a) or real_fan(*a, **kw))
        cert = three_connected_pair(decode_graph6("Jne{vwJnhW?"))
        assert len(calls) == 1
        assert (cert.c1.vertices, cert.c2.vertices) == (
            (1, 2, 5, 3),
            (1, 2, 10, 4, 5, 3),
        )

    def test_triangle_with_a_k2_component(self, monkeypatch):
        # graph6 E]}g: g - V(D) for the triangle D is a K2 and a K1, and the
        # C6 runs through both
        sizes, real = [], finder._triangle_case
        monkeypatch.setattr(
            finder, "_triangle_case", lambda g, d, comps: sizes.append(len(comps[0])) or real(g, d, comps)
        )
        g = decode_graph6("E]}g")
        assert_valid_pair(three_connected_pair(g), g)
        assert sizes == [2]

    def test_triangle_necklace(self):
        # a hub triangle {0, 1, 2} and a ring of k triangles (s_i, a_i,
        # s_i+1), a_i joined to hub i mod 3 and s_i to hub i + 1 mod 3: a
        # 3-connected graph with far too many cycles to list
        k = 200
        s, a = (lambda i: 3 + 2 * (i % k)), (lambda i: 4 + 2 * i)
        edges = [(0, 1), (1, 2), (0, 2)]
        for i in range(k):
            edges += [(s(i), a(i)), (a(i), s(i + 1)), (s(i), s(i + 1))]
            edges += [(a(i), i % 3), (s(i), (i + 1) % 3)]
        g = Graph.build(2 * k + 3, edges)
        cert = three_connected_pair(g)
        assert oracle.validate(cert, g)[0]

    @pytest.mark.parametrize(
        "g",
        [
            # g - V(D) for the triangle D is the rest of the rim, one long
            # path, and the hub has a neighbour on each of its vertices
            wheel_graph(3000),
            # g - V(D) is 3000 isolated vertices, each joined to all of D
            Graph.build(3003, [(0, 1), (1, 2), (0, 2)] + [(t, v) for v in range(3, 3003) for t in range(3)]),
        ],
        ids=["W3000", "K3-joined-to-3000"],
    )
    def test_large_forest_branch(self, g):
        ok, why = oracle.validate(three_connected_pair(g), g)
        assert ok, why

    def test_every_branch_runs(self, monkeypatch):
        names = (
            "_pair_tree_attachment",
            "_pair_b_branches",
            "_fix_disconnected",
            "_even_proper_subcycle",
            "_cubic_endgame",
            "_triangle_case",
            "_long_odd_case",
        )
        ran = set()
        for name in names:
            f = getattr(finder, name)
            monkeypatch.setattr(finder, name, lambda *a, f=f, name=name: ran.add(name) or f(*a))
        for s in ("Jne{vwJnhW?", "G@Q^Fs", "E]}g", "G?NNf_"):
            g = decode_graph6(s)
            assert oracle.validate(three_connected_pair(g), g)[0], s
        for n, k in ((5, 2), (6, 2), (7, 3)):
            # GP(5, 2) takes the cubic endgame, GP(6, 2) the tree attachment
            # and GP(7, 3) the B-branches
            g = generalized_petersen(n, k)
            assert oracle.validate(three_connected_pair(g), g)[0], (n, k)
        assert ran == set(names)

    @pytest.mark.parametrize(
        "g6, shared, pair", THREE_CONNECTED_PINS, ids=[r[0] for r in THREE_CONNECTED_PINS]
    )
    def test_pinned_certificate(self, g6, shared, pair):
        g = decode_graph6(g6)
        cert = pinned_call(g, shared)()
        assert oracle.validate(cert, g)[0]
        assert (cert.c1.vertices, cert.c2.vertices) == pair

    def test_every_block_of_the_3_connected_step_runs(self):
        # the first statement of every block of these functions runs on
        # some pinned input, so no proof branch of the step goes untested
        calls = [pinned_call(decode_graph6(g6), shared) for g6, shared, _ in THREE_CONNECTED_PINS]
        missing = []
        for fn in (
            finder._pair_from_shared_vertex,
            finder._two_disjoint_odd,
            finder._cubic_endgame,
            finder._triangle_case,
            finder._long_odd_case,
        ):
            ran = set().union(*(source_lines_run(fn, call) for call in calls))
            missing += [(fn.__name__, text) for line, text in block_heads(fn).items() if line not in ran]
        assert missing == []

    @pytest.mark.parametrize("n, k, length", [(6, 2, 6), (16, 6, 10)])
    def test_tree_attachment_builds_only_the_pair_it_returns(self, monkeypatch, n, k, length):
        # l(C) = 6 and 10: k = 3 and 5 attachment paths, each of which closes
        # two cycles, but only the even one chosen and its partner are built
        built, calls, real = [], [], finder._pair_tree_attachment
        monkeypatch.setattr(
            finder, "cycle_from_paths", lambda p, q, f=finder.cycle_from_paths: built.append(1) or f(p, q)
        )

        def spy(g, c, qd, fset):
            built.clear()
            cert = real(g, c, qd, fset)
            calls.append((c.length, len(built)))
            return cert

        monkeypatch.setattr(finder, "_pair_tree_attachment", spy)
        g = generalized_petersen(n, k)
        assert oracle.validate(three_connected_pair(g), g)[0]
        assert calls == [(length, 2)]

    def test_generalized_petersen_golden(self):
        # the exact cycles on every non-bipartite GP(n, k) with n <= 25
        for case in THREE_CONNECTED_GOLDEN:
            cert = three_connected_pair(generalized_petersen(case["n"], case["k"]))
            got = [list(cert.c1.vertices), list(cert.c2.vertices)]
            assert got == [case["c1"], case["c2"]], (case["n"], case["k"])
        assert len(THREE_CONNECTED_GOLDEN) == 108

    def test_rejects_small(self):
        with pytest.raises(HypothesisFailure):
            three_connected_pair(complete_graph(5))

    def test_rejects_low_connectivity(self):
        with pytest.raises(HypothesisFailure) as exc:
            three_connected_pair(cycle_graph(6))
        assert exc.value.name == "connectivity"

    def test_rejects_a_disconnected_graph(self):
        # two disjoint K4s, and a K6 beside a K4 for cycles that share one vertex
        k4 = complete_graph(4).edges
        two_k4 = Graph.build(8, [*k4, *((u + 4, v + 4) for u, v in k4)])
        with pytest.raises(HypothesisFailure) as exc:
            three_connected_pair(two_k4)
        assert (exc.value.name, exc.value.detail) == ("connectivity", "graph is disconnected")
        k6_k4 = Graph.build(10, [*complete_graph(6).edges, *((u + 6, v + 6) for u, v in k4)])
        with pytest.raises(HypothesisFailure) as exc:
            pair_from_shared_vertex(k6_k4, Cycle(k6_k4, (0, 1, 2, 3)), Cycle(k6_k4, (0, 4, 5)), 0)
        assert (exc.value.name, exc.value.detail) == ("connectivity", "graph is disconnected")


def scanned_path_hypotheses(g: Graph, x: int, y: int) -> Graph:
    """`finder._check_path_hypotheses` as it was before `Graph._low_degree`:
    every degree and every edge scanned on each call.  The reference that
    the cached scan must match, failure text included."""
    if not (graphs._is_vertex(x, g.n) and graphs._is_vertex(y, g.n) and x != y):
        raise HypothesisFailure("terminals", f"bad terminal pair ({x!r}, {y!r})")
    if not (g._two_connected or graphs._is_two_connected(g, (x, y))):
        raise HypothesisFailure("2-connectivity", "g + xy is not 2-connected")
    adj = g.adj
    deg = [len(row) for row in adj]
    for v, dv in enumerate(deg):
        if dv < 3 and v != x and v != y:
            raise HypothesisFailure("minimum degree", f"vertex {v} has degree {dv}")
    h = g.without_edge(x, y)
    for u in g.vertices:  # the edges uv, u < v, in sorted order
        if u == x or u == y:
            continue
        for v in adj[u]:
            if v > u and v != x and v != y and deg[u] + deg[v] < 7:
                if is_bipartite(h)[0]:
                    return h
                raise HypothesisFailure(
                    "edge degree sum", f"edge ({u}, {v}) has degree sum < 7"
                )
    return h


def _hypotheses_outcome(check, g: Graph, x: int, y: int) -> tuple:
    """What check(g, x, y) did: the graph it returned, or the failure it raised."""
    try:
        h = check(g, x, y)
    except HypothesisFailure as exc:
        return exc.name, exc.detail
    return "ok", h.n, h.edges


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
        # a terminal must be an int, as a vertex id of Graph is: 1.0 and "1"
        # once passed the range check and raised a bare TypeError
        for x, y in ((2, 2), (0, 5), (0, 1.0), (0, "1"), (None, 1)):
            with pytest.raises(HypothesisFailure) as exc:
                two_paths_diff_two(complete_graph(5), x, y)
            assert exc.value.name == "terminals", (x, y)

    def test_edge_degree_sum_failure(self):
        # square 0-1-2-3 with terminals 4, 5; the edge (0, 1) joins two
        # degree-3 vertices, violating the degree-sum condition
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
        edges += [(0, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5)]
        g = Graph.build(6, edges)
        with pytest.raises(HypothesisFailure) as exc:
            two_paths_diff_two(g, 4, 5)
        assert exc.value.name == "edge degree sum"

    def test_three_reductions_check_hypotheses_once(self, monkeypatch):
        # the order-8 graph GJ\{K[ with terminals (0, 7) contracts three
        # times before the base case; only the input is checked
        calls = []
        for name in ("_check_path_hypotheses", "contract"):
            f = getattr(finder, name)
            monkeypatch.setattr(finder, name, lambda *a, f=f, name=name: calls.append(name) or f(*a))
        cert = two_paths_diff_two(decode_graph6("GJ\\{K["), 0, 7)
        assert (calls.count("contract"), calls.count("_check_path_hypotheses")) == (3, 1)
        assert cert.lengths[1] - cert.lengths[0] == 2

    def test_depth_does_not_grow_with_the_input(self, monkeypatch):
        # the rung (0, n) of the prism GP(n, 1) takes n - 4 contraction
        # steps, and each runs at the same stack depth
        depths, step = [], finder._paths_case_contract
        monkeypatch.setattr(
            finder, "_paths_case_contract", lambda *a: depths.append(_stack_depth()) or step(*a)
        )
        n = 300
        g = generalized_petersen(n, 1)
        cert = two_paths_diff_two(g, 0, n)
        assert cert.lengths == (n - 1, n + 1) and oracle.validate(cert, g)[0]
        assert len(depths) == n - 4 and len(set(depths)) == 1

    def test_cut_vertex_of_the_contraction_on_the_way_to_y(self):
        # the terminal 11 has degree 2, so the loop starts from x = 11;
        # contracting it with N(x) = {5, 10} leaves G* with a cut vertex 0
        # between x* and y = 12, which the edge x*y* bridges
        g = decode_graph6("LQbTPTOSGG_`i_")
        cert = two_paths_diff_two(g, 12, 11)
        assert not g.has_edge(12, 11) and oracle.validate(cert, g)[0]
        assert cert.lengths == (4, 6)

    def test_two_connected_with_agrees_with_building_g_plus_xy(self):
        # every graph of order <= 7 and every ordered pair x != y
        agree = checked = 0
        for n in range(1, 8):
            for g in enumerate_small(n):
                for x in range(n):
                    for y in range(n):
                        if x == y:
                            continue
                        gp = g.with_edge(x, y)
                        want = gp.n >= 3 and is_connected(gp) and connectivity_cut(gp, 2) is None
                        assert graphs._is_two_connected(g, (x, y)) == want, (encode_graph6(g), x, y)
                        agree += want
                        checked += 1
        assert (checked, agree) == (49368, 24642)

    def test_two_connectivity_verdict_is_g_plus_xy_one_spanning_block(self):
        # every pair x < y of every graph of order <= 7, 2-connected or not,
        # asked of one Graph object per graph, so that every pair after the
        # first reads the cached verdict on g
        verdicts = {}
        for n in range(1, 8):
            for g in enumerate_small(n):
                for x in range(n):
                    for y in range(x + 1, n):
                        dec = blocks(g.with_edge(x, y))
                        spans = len(dec.blocks) == 1 and dec.blocks[0].vertices == set(g.vertices)
                        want = n >= 3 and spans
                        try:
                            finder._check_path_hypotheses(g, x, y)
                            got = True
                        except HypothesisFailure as exc:
                            got = exc.name != "2-connectivity"
                        assert got == want, (encode_graph6(g), x, y)
                        key = (want, g._two_connected)
                        verdicts[key] = verdicts.get(key, 0) + 1
        # g + xy is 2-connected from the cache, from the per-pair search,
        # or not at all
        assert verdicts == {(True, True): 10789, (True, False): 1532, (False, False): 12363}

    def test_a_graph_checks_its_two_connectivity_once(self, monkeypatch):
        # the complement of C7 is 2-connected, so its 21 pairs make one
        # search of g between them, not one each
        g = Graph.build(7, [(u, v) for u in range(7) for v in range(u + 2, 7) if (u, v) != (0, 6)])
        searched, search = [], graphs._block_search
        monkeypatch.setattr(graphs, "_block_search", lambda *a: searched.append(a[0]) or search(*a))
        for x in range(7):
            for y in range(x + 1, 7):
                assert oracle.validate(two_paths_diff_two(g, x, y), g)[0], (x, y)
        assert sum(h is g for h in searched) == 1

    def test_cached_degree_scan_matches_the_per_pair_scan(self):
        # every graph of order <= 7 and every ordered terminal pair, equal
        # terminals too: the same graph back, or the same first failure with
        # the same text; the `paths` digest sees only minimum degree 3
        tally = {}
        for n in range(1, 8):
            for g in enumerate_small(n):
                for x in range(n):
                    for y in range(n):
                        want = _hypotheses_outcome(scanned_path_hypotheses, g, x, y)
                        got = _hypotheses_outcome(finder._check_path_hypotheses, g, x, y)
                        assert got == want, (encode_graph6(g), x, y)
                        tally[want[0]] = tally.get(want[0], 0) + 1
        assert tally == {
            "terminals": 8475, "2-connectivity": 24726, "minimum degree": 14886,
            "edge degree sum": 2878, "ok": 6878,
        }

    def test_a_graph_scans_its_degrees_once(self, monkeypatch):
        # every ordered pair of every graph of order 6, each a new Graph:
        # the degree scan runs once for a graph whose pairs pass the
        # 2-connectivity check, whatever they fail after it, and never
        # for one whose pairs all fail before it
        scans, scan = [], Graph._low_degree.func
        counted = functools.cached_property(lambda g: scans.append(g) or scan(g))
        counted.__set_name__(Graph, "_low_degree")
        monkeypatch.setattr(Graph, "_low_degree", counted)
        reached = []
        for g in enumerate_small(6):
            g = Graph.build(g.n, g.edges)
            names = {_hypotheses_outcome(finder._check_path_hypotheses, g, x, y)[0]
                     for x in range(6) for y in range(6)}
            if names - {"terminals", "2-connectivity"}:
                reached.append(g)
        assert [id(g) for g in scans] == [id(g) for g in reached]
        assert len(reached) == 97

    def test_four_cycle_step_paths_are_shortest_through_f(self, monkeypatch):
        # on every step on a 4-cycle x x1 a x2, the certificate's path from
        # x1 or x2 (x1 if it sees F), or the lift's path from a, goes on to
        # y by a shortest path through F, the component of y in
        # h - {x, x1, a, x2}, as bfs_path measures it in h[F + {near}]
        steps, step = [], finder._paths_case_four_cycle

        def spy(*args):
            steps.append((*args, step(*args)))
            return steps[-1][-1]

        monkeypatch.setattr(finder, "_paths_case_four_cycle", spy)
        # every instance of order <= 7, and the golden ones: no instance of
        # order <= 7 hands on a smaller one from this step, two golden ones do
        instances = [
            (g, x, y)
            for n in range(4, 8)
            for g in enumerate_small(n)
            for x, y in itertools.combinations(range(n), 2)
        ]
        instances += [(decode_graph6(c["graph6"]), c["x"], c["y"]) for c in TWO_PATHS_GOLDEN["cases"]]
        for g, x, y in instances:
            try:
                two_paths_diff_two(g, x, y)
            except HypothesisFailure:
                pass
        branches = {}
        for h, x, y, (x1, a, x2), out in steps:
            stop = frozenset({x, x1, a, x2})
            fset = next(set(c) for c in components(h, stop) if y in c)
            if isinstance(out, oracle.PathPairCertificate):
                near = out.p1.vertices[1]
                assert near == (x1 if any(w in fset for w in h.adj[x1]) else x2)
                far = x2 if near == x1 else x1
                assert out.p2.vertices == (x, far, a) + out.p1.vertices[1:]
                tail = out.p1.length - 1
            else:
                sub, sx, sa, lift = out
                q = bfs_path(sub, {sx}, {sa})
                near, tail = a, lift(q).length - q.length
            outside = frozenset(h.vertices) - fset - {near}
            assert tail == bfs_path(h, {near}, {y}, outside).length, (encode_graph6(h), x, y)
            kind = "certificate" if near != a else "instance"
            branches[kind] = branches.get(kind, 0) + 1
        assert branches == {"certificate": 3243, "instance": 2}

    def test_golden_digest(self):
        # every terminal pair x < y of every graph of order <= 7, as one
        # digest of the paths or of the name of the failed hypothesis
        golden = TWO_PATHS_GOLDEN
        lines = [
            _path_outcome(g, x, y)
            for n in range(1, golden["max_order"] + 1)
            for g in enumerate_small(n)
            for x in range(n)
            for y in range(x + 1, n)
        ]
        digest = hashlib.sha256("".join(s + "\n" for s in lines).encode()).hexdigest()
        solved = sum(s.endswith(")") for s in lines)
        assert (len(lines), solved, digest) == (golden["instances"], golden["solved"], golden["sha256"])

    @pytest.mark.parametrize(
        "case", TWO_PATHS_GOLDEN["cases"], ids=[c["name"] for c in TWO_PATHS_GOLDEN["cases"]]
    )
    def test_golden_multi_level(self, case):
        # one instance per kind of reduction step, with the exact paths
        cert = two_paths_diff_two(decode_graph6(case["graph6"]), case["x"], case["y"])
        assert [list(cert.p1.vertices), list(cert.p2.vertices)] == [case["p1"], case["p2"]]

    @pytest.mark.parametrize(
        "g, x, y",
        [
            (generalized_petersen(4, 1), 0, 1),  # the cube Q3: every degree sum is 6
            (complete_bipartite(3, 3).with_edge(0, 1), 0, 1),  # g is not bipartite, g - xy is
            (complete_bipartite(3, 3), 0, 3),
        ],
        ids=["Q3", "K33-plus-xy", "K33-edge"],
    )
    def test_bipartite_waiver(self, g, x, y):
        # an edge avoiding {x, y} has degree sum 6, which the waiver admits
        # because g - xy is bipartite
        h = g.without_edge(x, y)
        assert is_bipartite(h)[0]
        assert any(g.degree(u) + g.degree(v) < 7 for u, v in g.edges if not {u, v} & {x, y})
        cert = two_paths_diff_two(g, x, y)
        assert oracle.validate(cert, h)[0]
        reps = oracle.xy_path_lengths(h, x, y)
        assert cert.lengths[0] in reps and cert.lengths[1] in reps


def _path_outcome(g: Graph, x: int, y: int) -> str:
    try:
        c = two_paths_diff_two(g, x, y)
    except HypothesisFailure as exc:
        return f"{encode_graph6(g)} {x} {y} {exc.name}"
    return f"{encode_graph6(g)} {x} {y} {c.p1.vertices} {c.p2.vertices}"


def _clique(vs) -> list:
    return [(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :]]


def k5_path(blocks: int) -> Graph:
    """K5 blocks in a row, block i on 4i..4i+4: one cut-vertex split per block."""
    edges = [e for i in range(blocks) for e in _clique(range(4 * i, 4 * i + 5))]
    return Graph.build(4 * blocks + 1, edges)


def relabelled(g: Graph, rng) -> Graph:
    perm = rng.sample(range(g.n), g.n)
    return Graph.build(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def peel_graph(k: int, m: int, seed: int = 1) -> Graph:
    """K_k plus m vertices of degree 2, each joined to two random clique vertices."""
    rng = random.Random(seed)
    edges = _clique(range(k))
    for t in range(m):
        edges += [(k + t, w) for w in rng.sample(range(k), 2)]
    return Graph.build(k + m, edges)


def glued_union(seed: int) -> Graph:
    """K3-K7 pieces, some short of an edge or two, each glued to the graph so
    far at one or two shared vertices, plus a few degree-2 vertices; about
    one in five is a tree of K5 blocks.  Odd seeds relabel the vertices."""
    rng = random.Random(seed)
    k5_tree = rng.random() < 0.2
    n, edges = 1, []
    for _ in range(rng.randint(1, 5)):
        k = 5 if k5_tree else rng.randint(3, 7)
        shared = rng.sample(range(n), 1 if k5_tree else min(n, rng.randint(1, 2)))
        piece = _clique(shared + list(range(n, n + k - len(shared))))
        n += k - len(shared)
        if not k5_tree and rng.random() < 0.3:
            piece = rng.sample(piece, len(piece) - rng.randint(1, 2))
        edges += piece
    for _ in range(0 if k5_tree else rng.randint(0, 2)):
        edges += [(n, w) for w in rng.sample(range(n), 2)]
        n += 1
    if seed % 2:
        perm = rng.sample(range(n), n)
        edges = [(perm[u], perm[v]) for u, v in edges]
    return Graph.build(n, edges)


def _stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


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

    @pytest.mark.parametrize(
        "g, kind",
        [(k5_path(120), "k5-witness"), (peel_graph(20, 150), "certificate")],
        ids=["k5-path-120", "k20-plus-150"],
    )
    def test_depth_does_not_grow_with_the_input(self, g, kind):
        # 120 cut vertices or 150 peeled vertices, with 100 frames to spare
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 100)
        try:
            out = main_theorem(g)
        finally:
            sys.setrecursionlimit(limit)
        assert out.kind == kind
        if kind == "certificate":
            assert oracle.validate(out.certificate, g)[0]
        else:
            assert (out.witness.n, out.witness.e) == (g.n, g.e)

    WATCHED = ("_block_search", "blocks", "components", "induced_subgraph", "connectivity_cut")

    @staticmethod
    def _watch(monkeypatch, calls, names=WATCHED):
        """Record each call of the named finder imports, and of heapify, in
        calls as (name, first argument)."""
        for name in names:
            f = getattr(finder, name)
            monkeypatch.setattr(finder, name, lambda *a, f=f, name=name: calls.append((name, a[0])) or f(*a))
        heap = types.SimpleNamespace(**vars(heapq))
        heap.heapify = lambda h: calls.append(("heapify", h)) or heapq.heapify(h)
        monkeypatch.setattr(finder, "heapq", heap)

    def test_k5_path_is_split_once(self, monkeypatch):
        # all 120 blocks come from one low-point search of g itself, not a
        # copy; no degree is below 4 and no edge is low-sum, so neither the
        # peel heap nor a connectivity pass runs, and no second search
        # (`blocks`) builds the blocks again
        calls = []
        self._watch(monkeypatch, calls)
        g = k5_path(120)
        out = main_theorem(g)
        assert [(name, h is g) for name, h in calls] == [("_block_search", True)]
        assert (out.kind, out.witness.n, out.witness.e) == ("k5-witness", g.n, g.e)

    def test_two_connected_level_is_one_search(self, monkeypatch):
        # a 2-connected level asks for its separation pair after one
        # low-point search, with no components pass before it, and the pair
        # test reads that search: the graph is searched once, with no
        # connectivity_cut; the search and the pair read g itself when
        # e <= 3(n - 1), else one spanning subgraph of g with at most
        # 3(n - 1) edges (its sparse certificate)
        class Stop(Exception):
            pass

        def stop(h, search):
            calls.append(("_separation_pair", h))
            assert search is found[-1]
            raise Stop

        monkeypatch.setattr(finder, "_separation_pair", stop)
        calls, found = [], []
        self._watch(monkeypatch, calls, names=("_block_search", "components", "connectivity_cut"))
        watched = finder._block_search
        monkeypatch.setattr(finder, "_block_search", lambda *a: found.append(watched(*a)) or found[-1])
        rng = random.Random(22)
        for g in [complete_graph(7)] + [relabelled(complete_bipartite(4, m), rng) for m in (5, 8, 13)]:
            calls.clear()
            with pytest.raises(Stop):
                main_theorem(g)
            assert [name for name, _ in calls] == ["_block_search", "_separation_pair"], g.sorted_edges()
            h = calls[0][1]
            assert calls[1][1] is h
            if g.e <= 3 * (g.n - 1):
                assert h is g
            else:
                assert h.n == g.n and h.edges <= g.edges and h.e <= 3 * (g.n - 1)
                assert is_connected(h)

    def test_dense_three_connected_level_runs_the_proof_on_its_certificate(self, monkeypatch):
        # the 3-connected proof of a dense level reads the sparse certificate
        # H of the level, at most 3(n - 1) edges, and its certificate, made of
        # cycles of H, still validates in g
        seen = []
        proof = finder._three_connected_pair
        monkeypatch.setattr(finder, "_three_connected_pair", lambda h: seen.append(h) or proof(h))
        rng = random.Random(26)
        gnp = [Graph.build(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 10 / n])
               for n in (40, 60, 90, 120)]
        peel = [peel_graph(k, m) for k, m in ((8, 12), (20, 60), (40, 600))]
        for g in [complete_graph(n) for n in range(6, 61)] + peel + gnp:
            seen.clear()
            out = main_theorem(g)
            assert out.kind == "certificate" and oracle.validate(out.certificate, g)[0], g.sorted_edges()
            assert len(seen) == 1 and seen[0].e <= 3 * (seen[0].n - 1), g.sorted_edges()

    @staticmethod
    def _min_degree_3_cases():
        cases = [g for n in (6, 7) for g in enumerate_small(n, "min-degree-3")]
        return cases + [k5_path(b) for b in (2, 5, 20)] + [complete_graph(6), petersen_graph()]

    def test_peel_keeps_every_vertex_above_degree_two(self):
        for g in self._min_degree_3_cases():
            deg = [g.degree(v) for v in g.vertices]
            assert finder._peel(g, deg) == set(g.vertices), g.sorted_edges()

    def test_reduce_peels_only_below_degree_three(self, monkeypatch):
        # _peel has no guard of its own: _reduce calls it only when some
        # degree is <= 2, so a level where nothing can be peeled builds no
        # heap; a peel graph shows that the spy sees the calls there are
        mins = []
        peel = finder._peel
        monkeypatch.setattr(finder, "_peel", lambda h, deg: mins.append(min(deg)) or peel(h, deg))
        for g in self._min_degree_3_cases() + [peel_graph(8, 6)]:
            main_theorem(g)
        assert mins and max(mins) <= 2

    def test_peel_leaves_the_degree_list(self):
        g = peel_graph(8, 6)
        deg = [g.degree(v) for v in g.vertices]
        keep = finder._peel(g, deg)
        assert len(keep) < g.n and deg == [g.degree(v) for v in g.vertices]

    def test_glued_unions(self):
        # the witness exactly on K5-block trees, every certificate valid
        kinds = set()
        for seed in range(200):
            g = glued_union(seed)
            out = main_theorem(g)
            kinds.add(out.kind)
            assert (out.kind == "k5-witness") == is_k5_block_tree(g), seed
            if out.kind == "certificate":
                assert oracle.validate(out.certificate, g)[0], seed
        assert kinds == {"certificate", "k5-witness", "hypothesis-failure"}

    def test_large_peel_graph(self):
        g = peel_graph(60, 1200)
        out = main_theorem(g)
        assert out.kind == "certificate"
        assert oracle.validate(out.certificate, g)[0]

    @pytest.mark.parametrize("case", GOLDEN, ids=[c["name"] for c in GOLDEN])
    def test_golden_outcomes(self, case):
        # one input per reduction branch, with the exact cycles or witness size
        out = main_theorem(Graph.build(case["n"], case["edges"]))
        want = case["outcome"]
        if want["kind"] == "certificate":
            got = [list(out.certificate.c1.vertices), list(out.certificate.c2.vertices)]
            assert (out.kind, got) == ("certificate", [want["c1"], want["c2"]])
        else:
            assert (out.kind, out.witness.n, out.witness.e) == (want["kind"], want["n"], want["e"])

    @pytest.mark.parametrize(
        "n, edges, message",
        [
            (6, _clique(range(5)) + [(0, 5)], "low-degree removal cannot leave a witness"),
            (6, _clique(range(5)), "slackest component cannot be extremal"),
            (10, _clique(range(5)) + _clique(range(4, 9)) + [(0, 9)], "low-degree removal"),
            (12, sorted(complete_bipartite(4, 4).edges) + _clique(range(7, 12)), "only K5 blocks"),
        ],
        ids=["peeled", "component", "cut-after-peel", "sparse-block"],
    )
    def test_witness_below_a_tail_step(self, monkeypatch, n, edges, message):
        # Below the density bound, so a valid reduction never gets here: with
        # the density check waived, the witness left after a peel or a
        # component choice must contradict that step, and a K5 beside a
        # sparse block must not pass for a tree of K5 blocks.
        require = finder._require
        waived = lambda ok, what: require(ok or "density" in what, what)
        monkeypatch.setattr(finder, "_require", waived)
        with pytest.raises(InternalInvariantError, match=message):
            finder._reduce(Graph.build(n, edges))


class TestOutcomeTypes:
    def test_outcome_exactly_one_variant(self):
        with pytest.raises(GraphError):
            Outcome()
        with pytest.raises(TypeError):  # the variant is named, never positional
            Outcome("certificate")
        w = K5BlockWitness(blocks(complete_graph(5)), 5, 10)
        f = HypothesisFailure("density")
        with pytest.raises(GraphError):
            Outcome(witness=w, failure=f)
        # the kind is the one variant that is set
        c = main_theorem(complete_graph(6)).certificate
        assert Outcome(certificate=c).certificate is c
        assert Outcome(certificate=c).kind == "certificate"
        assert Outcome(witness=w).kind == "k5-witness"
        assert Outcome(failure=f).kind == "hypothesis-failure"

    def test_witness_validation(self):
        with pytest.raises(GraphError):
            K5BlockWitness(blocks(complete_graph(6)), 6, 15)
        with pytest.raises(GraphError):
            K5BlockWitness(blocks(complete_graph(5)), 5, 9)

    def test_witness_block_count_agrees_with_n_and_e(self):
        # n = 9 and e = 20 agree with each other (9 = 1 mod 4, 2e = 5(n - 1))
        # but not with one K5 block, which has n - 1 = 4 and e = 10
        with pytest.raises(GraphError, match="n - 1 != 4b"):
            K5BlockWitness(blocks(complete_graph(5)), 9, 20)
        with pytest.raises(GraphError, match="n - 1 != 4b"):
            K5BlockWitness(blocks(gen_k5_block_tree(3)), 9, 20)
        for b in (1, 2, 5):
            g = gen_k5_block_tree(b)
            assert len(K5BlockWitness(blocks(g), g.n, g.e).decomposition.blocks) == b
        K5BlockWitness(blocks(Graph.build(1, [])), 1, 0)  # K1: b = 0 and its one K1 block


K7, K8 = complete_graph(7), complete_graph(8)
K5_WITNESS = K5BlockWitness(blocks(complete_graph(5)), 5, 10)


class TestInputErrors:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: combine_quasi_diagonal(Cycle(K7, (0, 1, 2)), Cycle(K7, (3, 4, 5)), []),
             "needs an even b and an odd d"),
            (lambda: combine_quasi_diagonal(Cycle(K8, (0, 1, 2, 3)), Cycle(K8, (4, 5, 6, 7)), []),
             "needs an even b and an odd d"),
            (lambda: pair_from_shared_vertex(K7, Cycle(K7, (0, 1, 2)), Cycle(K7, (0, 3, 4)), 0),
             "need an even b and an odd d"),
            (lambda: pair_from_shared_vertex(K7, Cycle(K7, (0, 1, 2, 3)), Cycle(K7, (0, 4, 5, 6)), 0),
             "need an even b and an odd d"),
            (lambda: quasi_diagonal(Cycle(K7, (0, 1, 2, 3, 4))), "requires an even cycle"),
            (lambda: K5BlockWitness(blocks(complete_graph(6)), 9, 20), "non-K5 block"),
            (lambda: Outcome(), "exactly one variant"),
            (lambda: Outcome(witness=K5_WITNESS, failure=HypothesisFailure("density")),
             "exactly one variant"),
        ],
        ids=[
            "combine-odd-b",
            "combine-even-d",
            "shared-vertex-odd-b",
            "shared-vertex-even-d",
            "quasi-diagonal-odd-cycle",
            "witness-non-k5-block",
            "outcome-no-variant",
            "outcome-two-variants",
        ],
    )
    def test_raises_graph_error(self, call, message):
        with pytest.raises(GraphError, match=message):
            call()


class TestCycleTwoModFour:
    def test_k6(self):
        c = cycle_two_mod_four(complete_graph(6))
        assert c.length % 4 == 2

    def test_density_required(self):
        with pytest.raises(HypothesisFailure):
            cycle_two_mod_four(complete_graph(5))  # e = 10 < 12.5

    def test_empty_graph_is_a_hypothesis_failure(self):
        # 0 >= 0 meets e >= 5n/2, so the order check of main_theorem refuses it
        with pytest.raises(HypothesisFailure, match="order: empty graph"):
            cycle_two_mod_four(Graph(0, frozenset()))

    def test_k8(self):
        g = complete_graph(8)
        c = cycle_two_mod_four(g)
        assert c.length % 4 == 2
        assert c.length in oracle.cycle_spectrum(g).lengths


def hypercube(d: int) -> Graph:
    return Graph.build(1 << d, [(u, u ^ (1 << i)) for u in range(1 << d) for i in range(d)])


def glued_cliques(a: int, b: int) -> Graph:
    """K_a and K_b sharing the vertices 0 and 1, so {0, 1} is a 2-cut."""
    return Graph.build(a + b - 2, _clique(range(a)) + _clique([0, 1, *range(a, a + b - 2)]))


def _biclique(left, right) -> list:
    return [(u, v) for u in left for v in right]


class TestTwoCut:
    """One input per way `_two_cut` closes its cycles, on the 2-cut {0, 1}.
    The side H2 is the one with the smaller interior."""

    K33 = _biclique([0, 8, 9], [1, 10, 11])  # x, y in different parts: odd x-y paths

    @pytest.mark.parametrize(
        "edges, parity_paths, oracle_calls",
        [
            (sorted(glued_cliques(8, 6).edges), 1, 0),  # H2 - xy is not bipartite
            (_clique(range(8)) + K33, 1, 0),  # H2 bipartite, H1 - xy not
            (_biclique([0, 2, 3, 4], [1, 5, 6, 7]) + K33, 0, 0),  # both odd
            (_biclique([0, 1, 2, 3], [4, 5, 6, 7]) + K33, 0, 0),  # opposite, with xy
            (_biclique([0, 1, 2, 3], [4, 5, 6, 7]) + K33[1:], 0, 1),  # opposite, no xy
        ],
        ids=["parity-path-in-H2", "parity-path-in-H1", "same-parity", "edge-xy", "oracle"],
    )
    def test_bipartite_sides(self, monkeypatch, edges, parity_paths, oracle_calls):
        g = Graph.build(12, edges)
        calls = []
        for host, name in ((finder, "_parity_path"), (finder.oracle, "find_consecutive_even_pair_bf")):
            f = getattr(host, name)
            monkeypatch.setattr(host, name, lambda *a, f=f, name=name: calls.append(name) or f(*a))
        cert = finder._two_cut(g, frozenset([0, 1]))
        assert_valid_pair(cert, g)
        assert calls.count("_parity_path") == parity_paths
        assert calls.count("find_consecutive_even_pair_bf") == oracle_calls


class TestParityPath:
    def test_every_small_instance(self, monkeypatch):
        # every graph of order <= 7 and terminals x < y with g + xy
        # 2-connected and g - xy not bipartite: both parities, each a simple
        # x-y path avoiding the edge xy, once as `_parity_path` runs and once
        # with the shortest-walk step off, so that the odd-cycle
        # construction runs on every instance
        real_walk = finder._double_cover_walk
        on_d = [0, 0]  # instances with one, and with both, terminals on D
        checked = 0
        for n in range(3, 8):
            for g in enumerate_small(n):
                for x in range(n):
                    for y in range(x + 1, n):
                        gp, h = g.with_edge(x, y), g.without_edge(x, y)
                        if not is_connected(gp) or connectivity_cut(gp, 2) is not None:
                            continue
                        d = shortest_odd_cycle(h)
                        if d is None:
                            continue
                        terminals_on_d = len({x, y} & d.vertex_set())
                        if terminals_on_d:
                            on_d[terminals_on_d - 1] += 1
                        reps = oracle.xy_path_lengths(h, x, y)
                        for walk in (real_walk, lambda *a: None):
                            monkeypatch.setattr(finder, "_double_cover_walk", walk)
                            for parity in (0, 1):
                                p = finder._parity_path(g, x, y, parity)
                                vs = p.vertices
                                assert (vs[0], vs[-1]) == (x, y)
                                assert len(set(vs)) == len(vs)
                                assert all(g.has_edge(a, b) for a, b in zip(vs, vs[1:]))
                                assert all({a, b} != {x, y} for a, b in zip(vs, vs[1:]))
                                assert p.length % 2 == parity and p.length in reps
                        checked += 1
        assert (checked, on_d) == (11876, [7902, 79])

    def test_rejects_bipartite(self):
        with pytest.raises(GraphError):
            finder._parity_path(complete_bipartite(3, 3), 0, 3, 0)


class TestNoExhaustiveFallback:
    """The bipartite and 2-cut branches construct their answers: the oracle's
    enumerations may run only on the bounded n <= 5 cases."""

    @pytest.fixture(autouse=True)
    def bounded_oracle(self, monkeypatch):
        for name in ("find_consecutive_even_pair_bf", "xy_path_lengths"):
            f = getattr(oracle, name)

            def guarded(g, *a, f=f, name=name, **kw):
                if g.n > 5:
                    raise AssertionError(f"oracle.{name} on a graph of order {g.n}")
                return f(g, *a, **kw)

            monkeypatch.setattr(finder.oracle, name, guarded)

    @pytest.mark.parametrize(
        "g",
        [hypercube(d) for d in (5, 6, 7)]
        + [complete_bipartite(4, m) for m in range(5, 41)]
        + [glued_cliques(a, a) for a in range(5, 21)],
        ids=[f"Q{d}" for d in (5, 6, 7)]
        + [f"K4,{m}" for m in range(5, 41)]
        + [f"glued-K{a}" for a in range(5, 21)],
    )
    def test_main_theorem(self, g):
        out = main_theorem(g)
        assert out.kind == "certificate"
        assert oracle.validate(out.certificate, g)[0]

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12, 20, 30, 50, 100])
    def test_bipartite_generalized_petersen(self, n):
        # GP(n, k) with n even and k odd is bipartite; n = 100 has order 200
        for k in range(1, (n + 1) // 2, 2):
            g = generalized_petersen(n, k)
            assert is_bipartite(g)[0]
            cert = three_connected_pair(g)
            assert oracle.validate(cert, g)[0], (n, k)


class TestPublicSurface:
    def test_finder_public_functions(self):
        # each proof step has one entry; the steps inside the 3-connected
        # proof are private and take the cycles the proof builds
        public = {
            name
            for name, obj in vars(finder).items()
            if inspect.isfunction(obj) and obj.__module__ == finder.__name__ and not name.startswith("_")
        }
        assert public == {
            "combine_quasi_diagonal",
            "cycle_two_mod_four",
            "main_theorem",
            "odd_even_arcs",
            "pair_from_shared_vertex",
            "quasi_diagonal",
            "three_connected_pair",
            "two_paths_diff_two",
        }


class TestNoEnumeration:
    def test_finder_lists_nothing(self):
        # the finder builds every cycle it uses; no generator lists them
        tree = ast.parse(pathlib.Path(finder.__file__).read_text())
        assert not [n for n in ast.walk(tree) if isinstance(n, (ast.Yield, ast.YieldFrom))]


class TestOracleCallSites:
    # the oracle's exhaustive searches the finder may call, and where
    ALLOWED = {
        "xy_path_lengths": {"_paths_base_case"},  # n <= 5
        # the reinserted edge in _reduce, and two bipartite sides of a 2-cut
        # with x-y paths of opposite parities; the n <= 5 level of _reduce
        # needs no oracle, since only K1 and K5 are dense there
        "find_consecutive_even_pair_bf": {"_reduce", "_two_cut"},
    }

    def test_oracle_calls_are_on_the_allow_list(self):
        tree = ast.parse(pathlib.Path(finder.__file__).read_text())
        sites = set()

        def visit(node, where):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, child.name)
                    continue
                if (
                    isinstance(child, ast.Attribute)
                    and isinstance(child.value, ast.Name)
                    and child.value.id == "oracle"
                ):
                    sites.add((child.attr, where))
                visit(child, where)

        visit(tree, "<module>")
        stray = {
            (fn, where)
            for fn, where in sites
            if fn != "validate" and where not in self.ALLOWED.get(fn, ())
        }
        assert not stray
        assert {fn for fn, _ in sites} >= {"validate", *self.ALLOWED}
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "oracle"
            for alias in node.names
        }
        assert imported == {"CyclePairCertificate", "PathPairCertificate"}
