"""Seeded input generators for the benchmark.

Nothing here imports evencycles.  A graph is a pair ``(n, edges)`` on the
vertices 0..n-1, with ``edges`` a sorted list of pairs ``(u, v)``, u < v.
Every random choice comes from the ``random.Random`` the caller passes, so a
fixed seed gives the same graphs.  The program only ever sees these graphs
as graph6 strings (`graph6`).
"""

from __future__ import annotations

import random
from collections import deque


def _graph(n: int, edges) -> tuple:
    return n, sorted({(u, v) if u < v else (v, u) for u, v in edges})


def _adjacency(n: int, edges) -> list:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def complete(n: int) -> tuple:
    return _graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> tuple:
    return _graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def hypercube(d: int) -> tuple:
    n = 1 << d
    return _graph(n, [(u, u ^ (1 << i)) for u in range(n) for i in range(d) if u < u ^ (1 << i)])


def generalized_petersen(n: int, k: int) -> tuple:
    """GP(n, k): outer cycle u_i = i, spokes u_i v_i, inner v_i = n + i joined to v_{i+k}."""
    if not 1 <= k < n / 2:
        raise ValueError(f"GP({n}, {k}) needs 1 <= k < n/2")
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    edges += [(n + i, n + (i + k) % n) for i in range(n)]
    return _graph(2 * n, edges)


def relabel_by(g: tuple, perm) -> tuple:
    n, edges = g
    return _graph(n, [(perm[u], perm[v]) for u, v in edges])


def relabel(g: tuple, rng: random.Random) -> tuple:
    return relabel_by(g, rng.sample(range(g[0]), g[0]))


def dense_gnp(n: int, p: float, rng: random.Random) -> tuple:
    """G(n, p), redrawn until 2e >= 5(n - 1) so that the main theorem applies."""
    while True:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        if 2 * len(edges) >= 5 * (n - 1):
            return _graph(n, edges)


def k5_block_tree(blocks: int, rng: random.Random) -> tuple:
    """`blocks` copies of K5, each new one glued at a random earlier vertex."""
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    n = 5
    for _ in range(blocks - 1):
        group = [rng.randrange(n)] + list(range(n, n + 4))
        edges += [(a, b) for i, a in enumerate(group) for b in group[i + 1 :]]
        n += 4
    return _graph(n, edges)


def peel_graph(k: int, m: int, rng: random.Random) -> tuple:
    """K_k plus m vertices of degree 2, each joined to two random clique vertices.

    Dense (2e >= 5(n - 1)) exactly when m <= k^2 - 6k + 5.
    """
    if m > k * k - 6 * k + 5:
        raise ValueError(f"K{k} plus {m} degree-2 vertices is below the density bound")
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    for t in range(m):
        a, b = rng.sample(range(k), 2)
        edges += [(k + t, a), (k + t, b)]
    return _graph(k + m, edges)


def glued_cliques(a: int, b: int) -> tuple:
    """K_a and K_b sharing the vertices 0 and 1, so {0, 1} is a 2-cut."""
    first = list(range(a))
    second = [0, 1] + list(range(a, a + b - 2))
    edges = [(u, v) for i, u in enumerate(first) for v in first[i + 1 :]]
    edges += [(u, v) for i, u in enumerate(second) for v in second[i + 1 :]]
    return _graph(a + b - 2, edges)


# ---------------------------------------------------------------------------
# random cubic graphs


def is_bipartite(n: int, edges) -> bool:
    adj = _adjacency(n, edges)
    colour = [-1] * n
    for root in range(n):
        if colour[root] >= 0:
            continue
        colour[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if colour[w] < 0:
                    colour[w] = 1 - colour[v]
                    queue.append(w)
                elif colour[w] == colour[v]:
                    return False
    return True


def girth(n: int, edges) -> float:
    """Length of a shortest cycle (inf for a forest), by BFS from every vertex."""
    adj = _adjacency(n, edges)
    best = float("inf")
    for s in range(n):
        dist = {s: 0}
        parent = {s: -1}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    queue.append(w)
                elif parent[v] != w:
                    best = min(best, dist[v] + dist[w] + 1)
    return best


def _biconnected_without(adj: list, n: int, gone: int) -> bool:
    """True iff the graph minus vertex `gone` is connected with no cut vertex."""
    root = 1 if gone == 0 else 0
    disc = {root: 0}
    low = {}
    stack = [(root, -1, iter(adj[root]))]
    root_children = 0
    while stack:
        v, parent, it = stack[-1]
        for w in it:
            if w == gone or w == parent:
                continue
            if w in disc:
                low[v] = min(low.get(v, disc[v]), disc[w])
                continue
            disc[w] = len(disc)
            stack.append((w, v, iter(adj[w])))
            break
        else:
            stack.pop()
            low.setdefault(v, disc[v])
            if parent >= 0:
                low[parent] = min(low.get(parent, disc[parent]), low[v])
                if parent == root:
                    root_children += 1
                elif low[v] >= disc[parent]:
                    return False
    return len(disc) == n - 1 and root_children <= 1


def is_three_connected(n: int, edges) -> bool:
    """More than 3 vertices and no vertex cut of size < 3."""
    adj = _adjacency(n, edges)
    return n > 3 and all(_biconnected_without(adj, n, v) for v in range(n))


def random_cubic(n: int, rng: random.Random) -> tuple:
    """Random 3-connected non-bipartite cubic graph of girth >= 4.

    Pairing model with rejection.  A draw is dropped at the first loop,
    repeated edge or triangle, so that the costlier checks run about once
    per graph.  Bipartite draws are rejected because the program answers
    those by exhaustive enumeration (see README).
    """
    if n % 2 or n < 4:
        raise ValueError("a cubic graph needs an even order >= 4")
    while True:
        points = [v for v in range(n) for _ in range(3)]
        adj = [set() for _ in range(n)]
        while points:
            # pair the last point with a uniformly random other one
            j = rng.randrange(len(points) - 1)
            points[j], points[-2] = points[-2], points[j]
            u, v = points.pop(), points.pop()
            if u == v or v in adj[u] or adj[u] & adj[v]:
                break
            adj[u].add(v)
            adj[v].add(u)
        else:
            edges = [(u, v) for u in range(n) for v in adj[u] if u < v]
            if not is_bipartite(n, edges) and is_three_connected(n, edges):
                return _graph(n, edges)


# ---------------------------------------------------------------------------
# selection of exhaustive-corpus instances


def is_connected(n: int, edges, gone: int = -1) -> bool:
    """True iff the graph minus vertex `gone` (if any) is connected."""
    adj = _adjacency(n, edges)
    rest = [v for v in range(n) if v != gone]
    if len(rest) <= 1:
        return True
    seen = {rest[0]}
    queue = deque([rest[0]])
    while queue:
        for w in adj[queue.popleft()]:
            if w != gone and w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(rest)


def path_terminal_pairs(n: int, edges) -> list:
    """Pairs (x, y), x < y, meeting the two-paths hypotheses: G + xy is
    2-connected, every other vertex has degree >= 3, and every edge avoiding
    {x, y} has degree sum >= 7."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    out = []
    for x in range(n):
        for y in range(x + 1, n):
            if n < 3 or any(deg[v] < 3 for v in range(n) if v not in (x, y)):
                continue
            if any(deg[u] + deg[v] < 7 for u, v in edges if x not in (u, v) and y not in (u, v)):
                continue
            plus = list(edges) if (x, y) in edges else list(edges) + [(x, y)]
            if all(is_connected(n, plus, v) for v in range(-1, n)):
                out.append((x, y))
    return out


# ---------------------------------------------------------------------------
# graph6


def graph6(g: tuple) -> str:
    """graph6 text of g (orders up to 258047)."""
    n, edges = g
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    # bit index of (i, j), i < j, in column-major upper-triangle order
    bits = bytearray(n * (n - 1) // 2 + 5)
    for u, v in edges:
        bits[v * (v - 1) // 2 + u] = 1
    body = []
    for k in range(0, n * (n - 1) // 2, 6):
        val = 0
        for b in bits[k : k + 6]:
            val = (val << 1) | b
        body.append(chr(val + 63))
    return head + "".join(body)
