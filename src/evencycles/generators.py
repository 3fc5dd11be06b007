"""Extremal and test-family generators, plus exhaustive small-graph enumeration.

Enumeration emits exactly one representative per isomorphism class.  The
canonical form is the lexicographically minimal tuple of adjacency columns
(graph6 bit order) over all vertex orders.  It is hereditary: the first
n - 2 columns of a canonical tuple are the canonical tuple of the graph on
its first n - 1 vertices.  So the graphs of order n are built by orderly
generation from those of order n - 1, testing each one-vertex extension for
minimality.  Enumeration is capped at n = 8, since order 9 would mean
3.2 million extensions of the 12346 graphs of order 8; larger corpora are an
ingestion concern.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from .graphs import Graph, GraphError, _connectivity, blocks, is_connected

_LCG_MUL, _LCG_ADD, _LCG_MOD = 1103515245, 12345, 1 << 31


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    params: tuple = ()
    seed: int = 1


def gen_k5_block_tree(b: int, shape_seed: int = 1) -> Graph:
    """Connected graph with b blocks, each a K5: n = 4b+1, e = 10b = 5(n-1)/2.

    The shape seed drives a linear-congruential choice of which existing
    vertex each new block attaches to, so a fixed (b, seed) is reproducible.
    """
    if b < 1:
        raise GraphError("gen_k5_block_tree requires b >= 1")
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    n = 5
    state = shape_seed % _LCG_MOD
    for _ in range(b - 1):
        state = (_LCG_MUL * state + _LCG_ADD) % _LCG_MOD
        attach = state % n
        fresh = list(range(n, n + 4))
        group = [attach] + fresh
        edges += [(u, v) for i, u in enumerate(group) for v in group[i + 1 :]]
        n += 4
    return Graph.build(n, edges)


def complete_graph(n: int) -> Graph:
    return Graph.build(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    if min(a, b) < 0:
        raise GraphError(f"K_{{{a},{b}}} needs sides >= 0")
    return Graph.build(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return Graph.build(n, [(i, (i + 1) % n) for i in range(n)])


def theta_graph(a: int, b: int, c: int) -> Graph:
    """Two branch vertices (0 and 1) joined by paths of lengths a, b, c."""
    lens = (a, b, c)
    if min(lens) < 1 or sum(1 for x in lens if x == 1) > 1:
        raise GraphError(f"invalid theta path lengths {lens}")
    edges = []
    nxt = 2
    for length in lens:
        prev = 0
        for _ in range(length - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return Graph.build(nxt, edges)


def wheel_graph(rim: int) -> Graph:
    """Hub vertex 0 plus a rim cycle on 1..rim."""
    if rim < 3:
        raise GraphError("wheel rim needs at least 3 vertices")
    edges = [(0, i) for i in range(1, rim + 1)]
    edges += [(i, i % rim + 1) for i in range(1, rim + 1)]
    return Graph.build(rim + 1, edges)


def prism_graph() -> Graph:
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    return Graph.build(6, edges)


def generalized_petersen(n: int, k: int) -> Graph:
    """GP(n, k): outer cycle on 0..n-1, spokes i ~ n+i, inner n+i ~ n+(i+k) mod n."""
    if not 1 <= k < n / 2:
        raise GraphError(f"GP({n}, {k}) needs 1 <= k < n/2")
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    edges += [(n + i, n + (i + k) % n) for i in range(n)]
    return Graph.build(2 * n, edges)


def petersen_graph() -> Graph:
    return generalized_petersen(5, 2)


_FAMILIES = {  # family: (number of parameters, generator of (params, seed))
    "k5-block-tree": (1, lambda params, seed: gen_k5_block_tree(*params, seed)),
    "complete": (1, lambda params, seed: complete_graph(*params)),
    "complete-bipartite": (2, lambda params, seed: complete_bipartite(*params)),
    "cycle": (1, lambda params, seed: cycle_graph(*params)),
    "theta": (3, lambda params, seed: theta_graph(*params)),
    "wheel": (1, lambda params, seed: wheel_graph(*params)),
    "prism": (0, lambda params, seed: prism_graph()),
    "petersen": (0, lambda params, seed: petersen_graph()),
}


def gen_named(spec: GeneratorSpec) -> Graph:
    if spec.family not in _FAMILIES:
        raise GraphError(f"unknown family {spec.family!r}")
    count, gen = _FAMILIES[spec.family]
    if len(spec.params) != count:
        raise GraphError(f"{spec.family} takes {count} parameter(s), got {len(spec.params)}")
    try:
        return gen(spec.params, spec.seed)
    except TypeError as exc:
        raise GraphError(f"bad parameters {spec.params} for {spec.family}") from exc


# ---------------------------------------------------------------------------
# canonical form and exhaustive enumeration

_INF_COL = 1 << 40


def canonical_columns(g: Graph) -> tuple:
    """Lexicographically minimal adjacency bit-string over all permutations.

    Returned as one integer per upper-triangle column (graph6 bit order):
    column j holds bits adj(p_0, p_j) .. adj(p_{j-1}, p_j), first bit most
    significant.  Branch-and-bound over permutations with tightening bound.
    """
    n = g.n
    bits = [0] * n
    for u, v in g.edges:
        bits[u] |= 1 << v
        bits[v] |= 1 << u
    if n <= 1:
        return ()
    best = [_INF_COL] * (n - 1)
    perm = [0] * n
    used = [False] * n

    def dfs(pos):
        cands = []
        for v in range(n):
            if used[v]:
                continue
            c = 0
            bv = bits[v]
            for i in range(pos):
                c = (c << 1) | ((bv >> perm[i]) & 1)
            cands.append((c, v))
        cands.sort()
        for c, v in cands:
            if c > best[pos - 1]:
                break
            if c < best[pos - 1]:
                best[pos - 1] = c
                for j in range(pos, n - 1):
                    best[j] = _INF_COL
            if pos == n - 1:
                continue
            used[v] = True
            perm[pos] = v
            dfs(pos + 1)
            used[v] = False

    for v0 in range(n):
        perm[0] = v0
        used[v0] = True
        dfs(1)
        used[v0] = False
    return tuple(best)


def graph_from_columns(n: int, cols: tuple) -> Graph:
    edges = []
    for j in range(1, n):
        c = cols[j - 1]
        for i in range(j):
            if (c >> (j - 1 - i)) & 1:
                edges.append((i, j))
    return Graph.build(n, edges)


def are_isomorphic(a: Graph, b: Graph) -> bool:
    return a.n == b.n and canonical_columns(a) == canonical_columns(b)


def _is_canonical(n: int, bits: list, target: tuple) -> bool:
    """True iff no vertex order gives a column tuple smaller than `target`.

    `bits[v]` is the adjacency bit row of vertex v, and `target` is the
    column tuple of the identity order.  Branch and bound over vertex orders,
    bounded by `target` itself: an order is extended only while its columns
    equal the target's, and the search returns at the first smaller column.
    `perm` holds the placed vertices.  At position pos the `unused` mask is
    narrowed through the rows of perm[0], ..., perm[pos - 1], one bit of
    target[pos - 1] each, most significant first.  On a 1-bit a survivor off
    the row has a smaller code, so the target is not minimal; on a 0-bit the
    survivors on the row have a larger code and drop out, and once none is
    left the branch is larger than the target.  The survivors tie with it.

    Twins (N(v) - w = N(w) - v) are swapped by an automorphism that fixes
    every other vertex.  So two unused twins have the same code against the
    placed prefix, and narrowing keeps both or neither: a twin is smaller
    than, or tied with, the target exactly when the first unused vertex of
    its class is, and only that first vertex is branched on.
    """
    twin_before = [0] * n  # bit u set: u < v is a twin of v
    for v in range(n):
        for u in range(v):
            if bits[u] & ~(1 << v) == bits[v] & ~(1 << u):
                twin_before[v] |= 1 << u
    perm = [0] * n

    def extend(pos, unused):
        col = target[pos - 1]
        ties = unused
        for i in range(pos):
            if col >> (pos - 1 - i) & 1:
                if ties & ~bits[perm[i]]:
                    return False
            else:
                ties &= ~bits[perm[i]]
                if not ties:
                    return True
        if pos == n - 1:
            return True
        while ties:
            low = ties & -ties
            ties ^= low
            v = low.bit_length() - 1
            if not twin_before[v] & unused:
                perm[pos] = v
                if not extend(pos + 1, unused ^ low):
                    return False
        return True

    everyone = (1 << n) - 1
    for v in range(n):
        if not twin_before[v]:
            perm[0] = v
            if not extend(1, everyone ^ (1 << v)):
                return False
    return True


@lru_cache(maxsize=None)
def _all_graphs(n: int) -> tuple:
    """Canonical column tuples of all unlabeled graphs of order n, sorted.

    Orderly generation (Read, "Every one a winner", 1978): the first n - 2
    columns of a canonical tuple are the canonical tuple of the graph on its
    first n - 1 vertices, so every canonical tuple of order n is a canonical
    tuple of order n - 1 plus one last column, and each such extension is
    kept iff it is canonical.  Parents and columns are taken in increasing
    order, so the result comes out sorted.
    """
    if n <= 1:
        return ((),)
    last = n - 1
    out = []
    for cols in _all_graphs(n - 1):
        rows = [0] * last
        for j in range(1, last):
            for i in range(j):
                if cols[j - 1] >> (j - 1 - i) & 1:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        # Swapping the last two vertices turns column n - 2 into col >> 1, so
        # a canonical col is at least twice the column before it.
        first = cols[-1] << 1 if cols else 0
        for col in range(first, 1 << last):
            bits = rows[:]
            new_row = 0
            for i in range(last):
                if col >> (last - 1 - i) & 1:
                    bits[i] |= 1 << last
                    new_row |= 1 << i
            bits.append(new_row)
            if _is_canonical(n, bits, cols + (col,)):
                out.append(cols + (col,))
    return tuple(out)


def _filter(tag: Optional[str]):
    """The test a graph must pass to be kept under the filter tag; raises
    GraphError on an unknown tag."""
    if tag is None:
        return lambda g: True
    if tag == "connected":  # K0 is disconnected, as in the sweep's class
        return lambda g: g.n > 0 and is_connected(g)
    if tag.startswith("min-degree-") and (digits := tag.rsplit("-", 1)[1]).isdecimal():
        d = int(digits)
        return lambda g: all(g.degree(v) >= d for v in g.vertices)
    if tag == "3-connected":
        return lambda g: _connectivity(g) == 3
    if tag == "density":
        return lambda g: 2 * g.e >= 5 * (g.n - 1)
    raise GraphError(f"unknown filter tag {tag!r}")


def enumerate_small(n: int, filter_tag: Optional[str] = None) -> Iterator[Graph]:
    """One representative per isomorphism class of order n, optionally filtered.

    Yields the graphs of the canonical column tuples in increasing order.
    They come from orderly generation, which extends each canonical graph
    of order n - 1 by one vertex in every way and keeps the extensions that
    are canonical.  Guarded at n <= 8; larger corpora must be ingested from
    graph6 files instead.  The order and the tag are checked at the call.
    """
    if n > 8:
        raise GraphError("enumerate_small is guarded at n <= 8")
    if n < 0:
        raise GraphError("negative order")
    return filter(_filter(filter_tag), (graph_from_columns(n, cols) for cols in _all_graphs(n)))


def is_k5_block_tree(g: Graph) -> bool:
    """True iff g is connected and every block is a K5 (K1 counts trivially)."""
    if g.n == 0 or not is_connected(g):
        return False
    if g.n == 1:
        return True
    return all(b.is_k5() for b in blocks(g).blocks)
