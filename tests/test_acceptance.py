"""Acceptance gate: one test per shipping criterion.

These are the slow exhaustive checks; the full module takes a few minutes
because it enumerates every unlabeled graph up to order 8.
"""

import csv
import math
import random

from conftest import even_cycle_within

from evencycles import cli, finder, oracle
from evencycles.codecs import encode_graph6
from evencycles.finder import (
    HypothesisFailure,
    _pair_from_disjoint_odd_even,
    _stabilize_even_cycle,
    _stabilize_violation,
    cycle_two_mod_four,
    main_theorem,
    quasi_diagonal,
    three_connected_pair,
    two_paths_diff_two,
)
from evencycles.generators import (
    cycle_graph,
    enumerate_small,
    gen_k5_block_tree,
    is_k5_block_tree,
)
from evencycles.graphs import Cycle, blocks, shortest_odd_cycle


def test_criterion_1_three_connected_exhaustive():
    """Every 3-connected graph with 6 <= n <= 8 yields a validated pair."""
    checked = 0
    for n in (6, 7, 8):
        for g in enumerate_small(n, "3-connected"):
            cert = three_connected_pair(g)
            ok, why = oracle.validate(cert, g)
            assert ok, (encode_graph6(g), why)
            # both lengths are in the cycle spectrum: Cycle raises unless each is a cycle of g
            assert tuple(Cycle(g, c.vertices).length for c in (cert.c1, cert.c2)) == cert.lengths
            checked += 1
    assert checked == 17 + 136 + 2388


def test_criterion_2_main_theorem_exhaustive():
    """Dense connected graphs up to order 8: certificate or K5-block witness,
    with witnesses occurring exactly on K5-block trees (K1 and K5 here)."""
    witnesses = []
    checked = 0
    for n in range(1, 9):
        for g in enumerate_small(n, "connected"):
            if 2 * g.e < 5 * (g.n - 1):
                continue
            checked += 1
            out = main_theorem(g)
            assert out.kind in ("certificate", "k5-witness"), encode_graph6(g)
            if out.kind == "certificate":
                ok, why = oracle.validate(out.certificate, g)
                assert ok, (encode_graph6(g), why)
                assert oracle.has_consecutive_even_pair(g)
            else:
                assert is_k5_block_tree(g), encode_graph6(g)
                assert not oracle.has_consecutive_even_pair(g)
                witnesses.append((g.n, g.e))
    assert checked == 1578
    assert sorted(witnesses) == [(1, 0), (5, 10)]


def test_criterion_3_tightness_of_block_trees():
    """K5-block trees meet the density bound with equality and have cycle
    spectrum {3, 4, 5}, hence no consecutive even pair."""
    for b in range(1, 21):
        g = gen_k5_block_tree(b)
        assert g.n == 4 * b + 1
        assert 2 * g.e == 5 * (g.n - 1)
        dec = blocks(g)
        assert len(dec.blocks) == b and all(blk.is_k5() for blk in dec.blocks)
        if b <= 3:
            spec = oracle.cycle_spectrum(g, size_guard=g.n)
            assert spec.lengths == frozenset({3, 4, 5})
            assert oracle.find_consecutive_even_pair_bf(g, size_guard=g.n) is None


def test_criterion_4_two_mod_four():
    """Upper bound: e >= 5n/2 forces a cycle of length 2 mod 4 (checked
    exhaustively to order 8).  Lower bound: block trees approach density
    5/2 from below with no such cycle."""
    checked = 0
    for n in range(1, 9):
        for g in enumerate_small(n):
            if 2 * g.e < 5 * g.n:
                continue
            checked += 1
            c = cycle_two_mod_four(g)
            assert c.length % 4 == 2
            expect = oracle.cycle_mod_residue(g, 2, 4)
            assert expect is not None and expect.length % 4 == 2
    assert checked == 446

    table = []
    for b in range(1, 51):
        n, e = 4 * b + 1, 10 * b
        density = e / n
        table.append((b, f"{density:.6f}"))
        assert density < 2.5
    assert table[0] == (1, "2.000000")
    assert table[49] == (50, "2.487562")
    assert math.isclose(float(table[-1][1]), 2.5, abs_tol=0.02)
    for b in (1, 2, 3):
        g = gen_k5_block_tree(b)
        assert oracle.cycle_mod_residue(g, 2, 4, size_guard=g.n) is None


def test_criterion_5_two_paths_exhaustive():
    """All (graph, terminal-pair) instances up to order 8 satisfying the
    path-theorem hypotheses yield a validated pair differing by two.  The
    instances admitted only by the bipartite waiver (an edge avoiding
    {x, y} has degree sum < 7, but g - xy is bipartite) are counted apart."""
    checked = waived = 0
    for n in range(3, 9):
        for g in enumerate_small(n):
            for x in range(n):
                for y in range(x + 1, n):
                    try:
                        finder._check_path_hypotheses(g, x, y)
                    except HypothesisFailure:
                        continue
                    off = (e for e in g.edges if not set(e) & {x, y})
                    if any(g.degree(u) + g.degree(v) < 7 for u, v in off):
                        waived += 1
                    else:
                        checked += 1
                    cert = two_paths_diff_two(g, x, y)
                    h = g.without_edge(x, y) if g.has_edge(x, y) else g
                    ok, why = oracle.validate(cert, h)
                    assert ok, (encode_graph6(g), x, y, why)
                    reps = oracle.xy_path_lengths(h, x, y)
                    assert cert.lengths[0] in reps and cert.lengths[1] in reps
    assert (checked, waived) == (75710, 157)


def test_criterion_6_near_length_pairs():
    """Graphs up to order 8 with at most two low-degree vertices always
    carry two cycles with length difference one or two."""
    checked = 0
    for n in range(3, 9):
        for g in enumerate_small(n):
            if sum(1 for v in g.vertices if g.degree(v) < 3) > 2:
                continue
            checked += 1
            found = oracle.bondy_vince_search(g)
            assert found is not None, encode_graph6(g)
            assert abs(found.lengths[1] - found.lengths[0]) in (1, 2)
    assert checked == 9226


def test_criterion_7_structural_suites(three_connected_factory):
    """Quasi-diagonal component shape, stabilizer postconditions on 1,000
    seeded 3-connected instances, and the attachment parity identity
    (asserted inside every tree-attachment combination)."""
    for length in range(4, 21, 2):
        c = Cycle(cycle_graph(length), tuple(range(length)))
        qd = quasi_diagonal(c)
        if length % 4 == 0:
            assert len(qd.components) == 1
        else:
            assert len(qd.components) == 2
            assert len(qd.components[0]) == len(qd.components[1])
            assert len(qd.components[0]) % 2 == 1

    stabilized = 0
    exercised_attachment = 0
    for seed in range(1000):
        g = three_connected_factory(seed)
        v = random.Random(seed).randrange(g.n)
        start = even_cycle_within(g, set(g.vertices) - {v})
        if start is None:
            continue
        c = _stabilize_even_cycle(g, frozenset({v}), start)
        assert _stabilize_violation(g, c) is None
        assert v not in c.vertex_set()
        assert c.length % 2 == 0
        stabilized += 1
        # drive the full combination (parity identity asserted inside)
        odd = shortest_odd_cycle(g)
        start = None if odd is None else even_cycle_within(g, set(g.vertices) - odd.vertex_set())
        if start is not None:
            cert = _pair_from_disjoint_odd_even(g, odd, start)
            ok, why = oracle.validate(cert, g)
            assert ok, why
            exercised_attachment += 1
    assert stabilized >= 900
    assert exercised_attachment >= 500


def test_criterion_8_codec_and_sweep_determinism(tmp_path, capsys):
    """graph6 round-trips the whole order <= 7 enumeration; sweeps are
    byte-identical apart from the timing column."""
    from evencycles.codecs import decode_graph6

    for n in range(8):
        for g in enumerate_small(n):
            s = encode_graph6(g)
            h = decode_graph6(s)
            assert h.n == g.n and h.edges == g.edges
            assert encode_graph6(h) == s

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["sweep", "enum:6:density", "--check-oracle", "--csv", str(a)]) == 0
    assert cli.main(["sweep", "enum:6:density", "--check-oracle", "--csv", str(b)]) == 0
    capsys.readouterr()

    def strip_timing(path):
        with open(path, newline="") as fh:
            return [row[:-1] for row in csv.reader(fh)]

    assert strip_timing(a) == strip_timing(b)
