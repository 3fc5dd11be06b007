"""Independent checks of the program's answers.

Nothing here imports evencycles, and in particular not evencycles.oracle,
the program's own validator: graphs arrive as ``(n, edges)`` or graph6 text
and answers as plain vertex sequences.  The certificate checks return None
when the answer holds and a one-line reason when it does not.  Brute-force
cycle spectra and block decompositions come from networkx.
"""

from __future__ import annotations

import networkx as nx


def decode_graph6(text: str) -> tuple:
    """(n, sorted edges) of a graph6 string."""
    s = text.strip()
    if s[0] == "~":
        n = 0
        for ch in s[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        body = s[4:]
    else:
        n, body = ord(s[0]) - 63, s[1:]
    bits = [(ord(ch) - 63) >> sh & 1 for ch in body for sh in range(5, -1, -1)]
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return n, sorted(edges)


def edge_set(edges) -> set:
    return {(u, v) if u < v else (v, u) for u, v in edges}


def _has(es: set, u: int, v: int) -> bool:
    return ((u, v) if u < v else (v, u)) in es


def _cycle_problem(n: int, es: set, vs) -> str | None:
    if len(vs) < 3:
        return f"cycle {list(vs)} has fewer than 3 vertices"
    if any(not 0 <= v < n for v in vs):
        return f"cycle {list(vs)} leaves the vertex range"
    if len(set(vs)) != len(vs):
        return f"cycle {list(vs)} repeats a vertex"
    for a, b in zip(vs, vs[1:] + vs[:1]):
        if not _has(es, a, b):
            return f"cycle {list(vs)} uses the non-edge ({a}, {b})"
    return None


def check_cycle_pair(n: int, es: set, c1, c2) -> str | None:
    """Two simple cycles of the graph, of even lengths that differ by two."""
    c1, c2 = tuple(c1), tuple(c2)
    for c in (c1, c2):
        why = _cycle_problem(n, es, c)
        if why:
            return why
    a, b = sorted((len(c1), len(c2)))
    if a % 2:
        return f"cycle lengths {a} and {b} are odd"
    if b != a + 2:
        return f"cycle lengths {a} and {b} do not differ by two"
    return None


def check_path_pair(n: int, es: set, x: int, y: int, p1, p2) -> str | None:
    """Two simple x-y paths of G - xy, of lengths k and k + 2."""
    p1, p2 = tuple(p1), tuple(p2)
    for p in (p1, p2):
        if len(p) < 2 or {p[0], p[-1]} != {x, y}:
            return f"path {list(p)} does not join {x} and {y}"
        if any(not 0 <= v < n for v in p):
            return f"path {list(p)} leaves the vertex range"
        if len(set(p)) != len(p):
            return f"path {list(p)} repeats a vertex"
        for a, b in zip(p, p[1:]):
            if {a, b} == {x, y}:
                return f"path {list(p)} uses the edge xy"
            if not _has(es, a, b):
                return f"path {list(p)} uses the non-edge ({a}, {b})"
    if len(p2) - 1 != len(p1) - 1 + 2:
        return f"path lengths {len(p1) - 1} and {len(p2) - 1} are not k and k + 2"
    return None


def check_two_mod_four(n: int, es: set, c) -> str | None:
    """A simple cycle of the graph with length 2 (mod 4)."""
    c = tuple(c)
    why = _cycle_problem(n, es, c)
    if why:
        return why
    if len(c) % 4 != 2:
        return f"cycle length {len(c)} is not 2 (mod 4)"
    return None


def _nx(n: int, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def blocks(n: int, edges) -> set:
    """Vertex sets of the blocks (isolated vertices are blocks of their own)."""
    g = _nx(n, edges)
    out = {frozenset(b) for b in nx.biconnected_components(g)}
    out |= {frozenset([v]) for v in g if g.degree(v) == 0}
    return out


def is_k5_block_tree(n: int, edges) -> bool:
    """Connected, every block a K5, and 2e = 5(n - 1) (K1 counts)."""
    g = _nx(n, edges)
    if n == 0 or not nx.is_connected(g):
        return False
    if 2 * len(edges) != 5 * (n - 1):
        return False
    return n == 1 or all(
        len(b) == 5 and g.subgraph(b).number_of_edges() == 10 for b in blocks(n, edges)
    )


def check_k5_witness(n: int, edges, witness_blocks) -> str | None:
    """The graph is a K5-block tree and the witness lists exactly its blocks."""
    if not is_k5_block_tree(n, edges):
        return "k5 witness on a graph that is not a K5-block tree"
    if {frozenset(b) for b in witness_blocks} != blocks(n, edges):
        return "k5 witness blocks differ from the graph's blocks"
    return None


def cycle_spectrum(n: int, edges) -> frozenset:
    """Lengths of all simple cycles, by exhaustive enumeration."""
    return frozenset(len(c) for c in nx.simple_cycles(_nx(n, edges)))


def has_consecutive_even(spectrum) -> bool:
    return any(k % 2 == 0 and k + 2 in spectrum for k in spectrum)
