"""The benchmark's checker must reject corrupted certificates.

Run with ``python3 -m pytest bench``.
"""

import random

import check
import inputs

# K4 on 0..3 plus the path 0-4-5-3: cycles of lengths 3, 4, 5 and 6
N, EDGES = 6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (4, 5), (3, 5)]
ES = check.edge_set(EDGES)
C4, C6 = (0, 1, 2, 3), (0, 4, 5, 3, 2, 1)


def test_accepts_valid_cycle_pair():
    assert check.check_cycle_pair(N, ES, C4, C6) is None
    assert check.check_cycle_pair(N, ES, C6, (0, 4, 5, 3)) is None


def test_rejects_odd_cycle():
    assert "odd" in check.check_cycle_pair(N, ES, (0, 1, 2), (0, 4, 5, 3, 1))


def test_rejects_non_edge():
    assert "non-edge" in check.check_cycle_pair(N, ES, (0, 1, 4, 3), C6)
    assert "non-edge" in check.check_cycle_pair(N, ES, C4, (0, 4, 5, 2, 1, 3))


def test_rejects_repeated_vertex():
    assert "repeats" in check.check_cycle_pair(N, ES, C4, (0, 1, 3, 0, 2, 3))


def test_rejects_wrong_length_difference():
    assert "differ by two" in check.check_cycle_pair(N, ES, C4, C4)


def test_path_pair():
    # with the chords 1-4 and 2-5, 0-1-3 and 0-4-1-2-3 have lengths 2 and 4
    hs = check.edge_set(EDGES + [(1, 4), (2, 5)])
    assert check.check_path_pair(N, hs, 0, 3, (0, 1, 3), (0, 4, 1, 2, 3)) is None
    assert check.check_path_pair(N, hs, 0, 3, (3, 1, 0), (3, 2, 1, 4, 0)) is None


def test_rejects_path_pair_using_edge_xy():
    why = check.check_path_pair(N, ES, 0, 3, (0, 3), (0, 1, 2, 3))
    assert "edge xy" in why


def test_rejects_broken_paths():
    assert "repeats" in check.check_path_pair(N, ES, 0, 3, (0, 1, 3), (0, 1, 0, 1, 3))
    assert "non-edge" in check.check_path_pair(N, ES, 0, 3, (0, 1, 3), (0, 5, 4, 1, 3))
    assert "does not join" in check.check_path_pair(N, ES, 0, 3, (0, 1, 2), (0, 4, 5, 3))
    assert "k + 2" in check.check_path_pair(N, ES, 0, 3, (0, 1, 3), (0, 1, 2, 3))


def test_two_mod_four():
    assert check.check_two_mod_four(N, ES, (0, 4, 5, 3, 2, 1)) is None
    assert "2 (mod 4)" in check.check_two_mod_four(N, ES, (0, 1, 2, 3))
    assert "non-edge" in check.check_two_mod_four(N, ES, (0, 4, 5, 2, 1, 3))


def test_k5_witness():
    n, edges = inputs.k5_block_tree(4, random.Random(7))
    blocks = check.blocks(n, edges)
    assert len(blocks) == 4 and check.check_k5_witness(n, edges, blocks) is None
    assert check.check_k5_witness(n, edges, list(blocks)[:3]) is not None
    assert check.check_k5_witness(N, EDGES, [range(N)]) is not None


def test_spectrum_and_graph6():
    assert check.cycle_spectrum(N, EDGES) == frozenset({3, 4, 5, 6})
    assert check.has_consecutive_even(check.cycle_spectrum(N, EDGES))
    assert not check.has_consecutive_even(check.cycle_spectrum(*inputs.complete(5)))
    for g in (inputs.complete(7), inputs.peel_graph(9, 30, random.Random(5)), inputs.generalized_petersen(7, 2)):
        assert check.decode_graph6(inputs.graph6(g)) == g


def test_generators():
    rng = random.Random(3)
    g = inputs.random_cubic(20, rng)
    assert all(d == 3 for d in _degrees(g)) and inputs.is_three_connected(*g)
    assert inputs.girth(*g) >= 4 and not inputs.is_bipartite(*g)
    assert inputs.is_bipartite(*inputs.hypercube(4)) and inputs.is_bipartite(*inputs.complete_bipartite(3, 5))
    assert not inputs.is_three_connected(*inputs.glued_cliques(6, 7))
    assert inputs.is_three_connected(*inputs.generalized_petersen(5, 2))
    n, edges = inputs.dense_gnp(60, 10 / 60, rng)
    assert 2 * len(edges) >= 5 * (n - 1)


def _degrees(g):
    n, edges = g
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg
