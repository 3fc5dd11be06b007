#!/usr/bin/env python3
"""Check that ten deterministic outputs are unchanged.

Prints one sha256 per output and exits 1 if any differs from the value
pinned below:

- `cycles`: `three_connected_pair` on every 3-connected graph of order
  6-8 and on GP(n, k) for 5 <= n <= 40, 1 <= k < n/2, hashed one
  `repr((c1.vertices, c2.vertices))` at a time (2919 certificates);
- `paths`: `two_paths_diff_two` on every terminal pair x < y of every
  graph of order 8 and minimum degree 3, hashed one
  `repr((p1.vertices, p2.vertices))`, or the name of the failed
  hypothesis, at a time (72520 pairs, 56512 of them solved);
- `sweep`: the CSV of `evencycles sweep enum:8:density --check-oracle`
  without its `wall_time` column (1501 rows);
- `main`: `main_theorem` on every graph of `enumerate_small(n, "density")`,
  n <= 8, and on `gen_k5_block_tree(b, b)`, 1 <= b <= 30, hashed one
  outcome at a time: its kind, then the vertices of both cycles, the
  vertex sets of the witness blocks or the failure text (1619 outcomes);
- `flows`: `disjoint_paths`, `fan` and `_menger(..., allowed=...)` on every
  graph of order 2-6 and on 33 seeded G(n, p), 10 <= n <= 60 and
  p >= 0.3, with fixed endpoint sets and k = 1, 2, 3, hashed one outcome at
  a time: the vertices of the paths, or the sorted separator (4320 flows);
- `odd`: `shortest_odd_cycle` on every graph of order <= 7, disconnected
  ones included, on GP(n, k) for 3 <= n <= 40, 1 <= k < n/2, on K3-K40 and
  on seeded G(n, p), 10 <= n <= 300, hashed one `repr` of the cycle's
  vertices, or None, at a time (1791 graphs, 253 of them bipartite);
- `validate`: `oracle.validate` on corruptions of the certificates of
  `two_paths_diff_two` on every terminal pair of every graph of order 6
  and minimum degree 3, and of `three_connected_pair` on every 3-connected
  graph of order 6 and 7: each vertex replaced by every id in -1..n, each
  vertex repeated, a path (x, y) or (y, x) in place of either path, the
  first two or last two vertices swapped, the two paths or x and y
  swapped.  Each is checked against g - xy and g + xy (paths) or g
  (cycles), and hashed one `repr` of the verdict and reason at a time
  (45734 checks, 3568 of them accepted);
- `reduce`: `main_theorem` on seeded families built here, hashed one
  outcome at a time as in `main`: K5-block trees of 1-200 blocks, each
  block glued at a random earlier vertex and the whole tree relabelled by
  a random permutation, so that its cut vertices are not its smallest ids;
  K_a and K_b glued at one or two vertices, relabelled; K_k plus degree-2
  vertices on random clique pairs; G(n, 10/n) for 20 <= n <= 200; and
  K_{4,m} for 5 <= m <= 20 (219 outcomes, 62 of them witnesses);
- `levels`: `main_theorem` on the level branches `reduce` misses, hashed
  one outcome at a time as in `main`: disconnected dense graphs (cliques
  of orders 5-8 side by side, a K5-block tree beside a K6, each also
  relabelled), stars of 1-40 K5 blocks with the hub first and with it
  last, relabelled K5-block trees of 2-60 blocks with one K6 block among
  them, and stars of 1-8 K5 blocks whose hub has the largest id, plus u
  and v joined to each other, to the hub and to one more vertex each
  (the reinserted edge) (174 outcomes, 80 of them witnesses);
- `connectivity`: `connectivity_cut(g, k)` for k = 1, 2, 3 and
  `_connectivity(g)` on every graph of order 4-7, relabelled, on GP(n, k)
  for 5 <= n <= 40, 1 <= k < n/2, on wheels and GP graphs glued on a
  non-adjacent pair, on K_a and K_b glued at one or two vertices and
  relabelled (most have more than 3(n - 1) edges, so the sparse
  certificate is read), and on the 3-cores of seeded G(n, c/n), alone and
  glued to a copy of themselves on a pair, hashed one `repr` of the three
  sorted cuts, or the error, and the class at a time (2030 graphs, 551
  of them 3-connected).  Before a graph is hashed, each cut must separate
  it and the class must be that of the k = 3 cut; the script stops if not.

A refactor that should not change any output must leave all ten equal.
Run from the repository root:

    PYTHONPATH=src python3 scripts/output_digest.py
"""

import collections
import contextlib
import csv
import hashlib
import io
import os
import random
import sys
import tempfile

from evencycles import (
    HypothesisFailure,
    main_theorem,
    oracle,
    three_connected_pair,
    two_paths_diff_two,
)
from evencycles.cli import main as cli_main
from evencycles.generators import (
    complete_bipartite,
    complete_graph,
    enumerate_small,
    gen_k5_block_tree,
    generalized_petersen,
    wheel_graph,
)
from evencycles.graphs import (
    Graph,
    GraphError,
    _connectivity,
    _menger,
    components,
    connectivity_cut,
    disjoint_paths,
    fan,
    induced_subgraph,
    shortest_odd_cycle,
)
from evencycles.oracle import CyclePairCertificate, PathPairCertificate

PINNED = {
    "cycles": "4c2b4d7698743ae2453a16d76ad78de8710a086ff6695c22403a704150177e5f",
    "paths": "c4849d90e16c50b27648c94da067a00d537f7759690b4cbd4b252e5d3e7ff9f5",
    "sweep": "22853b79455cf978ad8ea5b0b5a1d6224f5c0aa232b1caf213762e1d2fd4d4db",
    "main": "7e862f2d91c241ac9de61ba82147563488caa7239c4cb2e86b6db55d865ce043",
    "flows": "e105c84cd9cd7496274a25dedc1f4911dbf22865d4b115f656681118919346e1",
    "odd": "3c32fab16218ada399ada64137ce3e34e19e54a9dbf48213cea85b6f764e95b8",
    "validate": "dbe480a77f54d5d72c43ed89faba5ab314f6fbb6eee5ccfd1d304fdab5d6d56f",
    "reduce": "e6c568be9a3debbc20199054f39699f8cfb9b2261bfa123f1d51ee7cab82f9b1",
    "levels": "ac5d13f74a9f48d0c6ebcf8261f8a70e6d85a78537294fa72c7fdd3de7fdf500",
    "connectivity": "30fcfaa241045c7defec7748d19bf42ed9ce0c0209389b9da09729f704791381",
}


def cycles_digest() -> tuple:
    graphs = [g for n in (6, 7, 8) for g in enumerate_small(n, "3-connected")]
    graphs += [generalized_petersen(n, k) for n in range(5, 41) for k in range(1, (n + 1) // 2)]
    m = hashlib.sha256()
    for g in graphs:
        cert = three_connected_pair(g)
        m.update(repr((cert.c1.vertices, cert.c2.vertices)).encode())
    return m.hexdigest(), f"{len(graphs)} certificates"


def paths_digest() -> tuple:
    m = hashlib.sha256()
    pairs = solved = 0
    for g in enumerate_small(8, "min-degree-3"):
        for x in range(g.n):
            for y in range(x + 1, g.n):
                pairs += 1
                try:
                    cert = two_paths_diff_two(g, x, y)
                except HypothesisFailure as exc:
                    m.update(exc.name.encode())
                    continue
                solved += 1
                m.update(repr((cert.p1.vertices, cert.p2.vertices)).encode())
    return m.hexdigest(), f"{pairs} pairs, {solved} solved"


def sweep_digest() -> tuple:
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "sweep.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["sweep", "enum:8:density", "--check-oracle", "--csv", out])
        with open(out, newline="", encoding="ascii") as fh:
            rows = list(csv.reader(fh))
    drop = rows[0].index("wall_time")
    text = "".join(",".join(r[:drop] + r[drop + 1 :]) + "\n" for r in rows)
    return hashlib.sha256(text.encode()).hexdigest(), f"{len(rows) - 1} rows, exit {code}"


def _outcomes_digest(graphs) -> tuple:
    """The hash of `main_theorem` on each graph, and its kinds counted."""
    m = hashlib.sha256()
    kinds = collections.Counter()
    for g in graphs:
        out = main_theorem(g)
        kinds[out.kind] += 1
        if out.certificate is not None:
            what = (out.certificate.c1.vertices, out.certificate.c2.vertices)
        elif out.witness is not None:
            what = tuple(tuple(sorted(b.vertices)) for b in out.witness.decomposition.blocks)
        else:
            what = str(out.failure)
        m.update(repr((out.kind, what)).encode())
    return m.hexdigest(), ", ".join(f"{v} {k}" for k, v in sorted(kinds.items()))


def main_digest() -> tuple:
    graphs = [g for n in range(9) for g in enumerate_small(n, "density")]
    graphs += [gen_k5_block_tree(b, b) for b in range(1, 31)]
    return _outcomes_digest(graphs)


def _relabelled(n: int, edges, rng: random.Random) -> Graph:
    perm = rng.sample(range(n), n)
    return Graph.build(n, [(perm[u], perm[v]) for u, v in edges])


def _clique_edges(vs) -> list:
    return [(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :]]


def reduce_digest() -> tuple:
    rng = random.Random(21)
    graphs = []
    for b in (*range(1, 40), *range(40, 201, 8), 200):
        n, edges = 5, _clique_edges(range(5))
        for _ in range(b - 1):
            edges += _clique_edges([rng.randrange(n), *range(n, n + 4)])
            n += 4
        graphs.append(_relabelled(n, edges, rng))
    for a in range(5, 13):
        for b in range(a, 13):
            for shared in (1, 2):
                second = [*range(shared), *range(a, a + b - shared)]
                edges = _clique_edges(range(a)) + _clique_edges(second)
                graphs.append(_relabelled(a + b - shared, edges, rng))
    for k in range(6, 21, 2):
        for m in sorted({0, 1, (k - 1) * (k - 5) // 2, (k - 1) * (k - 5)}):
            edges = _clique_edges(range(k))
            for t in range(m):
                edges += [(k + t, w) for w in rng.sample(range(k), 2)]
            graphs.append(_relabelled(k + m, edges, rng))
    for n in range(20, 201, 10):
        for _ in range(2):
            p = 10 / n
            graphs.append(Graph.build(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]))
    graphs += [complete_bipartite(4, m) for m in range(5, 21)]
    return _outcomes_digest(graphs)


def _k5_star(b: int, hub: int) -> list:
    """The edges of b K5 blocks sharing the vertex hub (0 or 4b) only."""
    rest = [v for v in range(4 * b + 1) if v != hub]
    return [e for i in range(b) for e in _clique_edges([hub, *rest[4 * i : 4 * i + 4]])]


def levels_digest() -> tuple:
    rng = random.Random(22)
    graphs = []
    for a in range(5, 9):
        for b in range(a, 9):
            edges = _clique_edges(range(a)) + _clique_edges(range(a, a + b))
            if 2 * len(edges) >= 5 * (a + b - 1):
                graphs += [Graph.build(a + b, edges), _relabelled(a + b, edges, rng)]
    for b in range(1, 12):
        tree = gen_k5_block_tree(b, b)
        edges = sorted(tree.edges) + _clique_edges(range(tree.n, tree.n + 6))
        graphs += [Graph.build(tree.n + 6, edges), _relabelled(tree.n + 6, edges, rng)]
    for b in range(1, 41):
        graphs += [Graph.build(4 * b + 1, _k5_star(b, hub)) for hub in (0, 4 * b)]
    for b in range(2, 61, 2):
        n, edges = 6, _clique_edges(range(6))
        for _ in range(b - 1):
            edges += _clique_edges([rng.randrange(n), *range(n, n + 4)])
            n += 4
        graphs.append(_relabelled(n, edges, rng))
    for b in range(1, 9):
        hub, u, v = 4 * b, 4 * b + 1, 4 * b + 2
        for x, y in sorted({(0, 1), (0, 4 * (b - 1)), (1, 4 * b - 1)}):
            edges = _k5_star(b, hub) + [(u, v), (u, hub), (v, hub), (u, x), (v, y)]
            graphs.append(Graph.build(4 * b + 3, edges))
    return _outcomes_digest(graphs)


def _glued_on_pair(g1: Graph, x1: int, y1: int, g2: Graph, x2: int, y2: int) -> Graph:
    """g1 and a copy of g2 on new vertices, with x2, y2 identified with x1, y1."""
    ids, fresh = {x2: x1, y2: y1}, iter(range(g1.n, g1.n + g2.n))
    for v in g2.vertices:
        if v not in ids:
            ids[v] = next(fresh)
    return Graph.build(g1.n + g2.n - 2, set(g1.edges) | {(ids[u], ids[v]) for u, v in g2.edges})


def _three_core(g: Graph) -> Graph:
    """The subgraph of g induced by its vertices of core number >= 3."""
    alive, deg = set(g.vertices), [len(row) for row in g.adj]
    low = [v for v in g.vertices if deg[v] < 3]
    while low:
        v = low.pop()
        if v in alive:
            alive.discard(v)
            for w in g.adj[v]:
                deg[w] -= 1
                if deg[w] < 3:
                    low.append(w)
    return induced_subgraph(g, alive)[0]


def connectivity_digest() -> tuple:
    rng = random.Random(23)
    graphs = [_relabelled(g.n, sorted(g.edges), rng) for n in range(4, 8) for g in enumerate_small(n)]
    graphs += [generalized_petersen(n, k) for n in range(5, 41) for k in range(1, (n + 1) // 2)]
    for a in range(4, 13):
        for b in range(4, 13):
            # rim vertices 1 and 3 of a wheel and outer vertices 0 and 2 of GP(n, k) are not adjacent
            graphs.append(_glued_on_pair(wheel_graph(a), 1, 3, wheel_graph(b), 1, 3))
            gp = generalized_petersen(a + 1, 1 + b % (a // 2))
            graphs.append(_glued_on_pair(gp, 0, 2, wheel_graph(b), 1, 3))
            graphs.append(_glued_on_pair(gp, 0, 2, gp, 0, 2))
    for a in range(4, 15):
        for b in range(a, 15):
            for shared in (1, 2):
                second = [*range(shared), *range(a, a + b - shared)]
                edges = _clique_edges(range(a)) + _clique_edges(second)
                graphs.append(_relabelled(a + b - shared, edges, rng))
    for n in (20, 40, 60, 100, 200, 300):
        for c in (4, 6, 10):
            core = _three_core(Graph.build(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                               if rng.random() < c / n]))
            if core.n < 4:
                continue
            graphs.append(core)
            y = next((v for v in range(1, core.n) if not core.has_edge(0, v)), None)
            if y is not None:
                graphs.append(_glued_on_pair(core, 0, y, core, 0, y))
    m = hashlib.sha256()
    classes = collections.Counter()
    for g in graphs:
        what = []
        for k in (1, 2, 3):
            try:
                cut = connectivity_cut(g, k)
                what.append(None if cut is None else tuple(sorted(cut)))
            except GraphError as exc:
                what.append(str(exc))
                continue
            # the cut is checked before it is hashed: g - cut is disconnected
            if cut is not None and len(components(g, cut)) < 2:
                raise AssertionError(f"{sorted(cut)} does not separate {sorted(g.edges)}")
        what.append(_connectivity(g))
        # the class is that of the k = 3 cut: 0 on an error, its size, or 3 for none
        size = 0 if isinstance(what[2], str) else 3 if what[2] is None else len(what[2])
        if what[-1] != min(size, g.n - 1):
            raise AssertionError(f"class {what[-1]} disagrees with the cut {what[2]} of {sorted(g.edges)}")
        classes[what[-1]] += 1
        m.update(repr(what).encode())
    counts = ", ".join(f"{classes[c]} of class {c}" for c in sorted(classes))
    return m.hexdigest(), f"{len(graphs)} graphs: {counts}"


def flows_digest() -> tuple:
    graphs = [g for n in range(2, 7) for g in enumerate_small(n)]
    rng = random.Random(18)
    for n in range(10, 61, 5):
        for p in (0.3, 0.6, 0.9):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
            graphs.append(Graph.build(n, pairs))
    m = hashlib.sha256()
    flows = seps = 0
    for g in graphs:
        n = g.n
        half = frozenset(range(n // 2))
        ends = (frozenset([0, 1]), frozenset([n - 2, n - 1])) if n >= 4 else (half, half ^ {0, 1})
        targets = frozenset(range(max(1, n - 3), n))
        allowed = [v for v in range(n) if v % 3 != 2]
        for k in (1, 2, 3):
            outs = [
                disjoint_paths(g, {0}, {n - 1}, k),
                disjoint_paths(g, half, frozenset(range(n)) - half, k),
                disjoint_paths(g, *ends, k),
                _menger(g, *ends, k, allowed=frozenset(allowed) | ends[0] | ends[1]),
                (fan(g, 0, targets, k), None),
                (fan(g, 0, targets, k, allowed=allowed), None),
            ]
            for paths, sep in outs:
                flows += 1
                if paths is not None:
                    what = [p.vertices for p in paths]
                else:
                    seps += 1
                    what = None if sep is None else sorted(sep)  # a fan has no separator
                m.update(repr(what).encode())
    return m.hexdigest(), f"{flows} flows on {len(graphs)} graphs, {seps} without paths"


def odd_digest() -> tuple:
    graphs = [g for n in range(8) for g in enumerate_small(n)]
    graphs += [generalized_petersen(n, k) for n in range(3, 41) for k in range(1, (n + 1) // 2)]
    graphs += [complete_graph(n) for n in range(3, 41)]
    rng = random.Random(19)
    for n in range(10, 301, 10):
        for c in (1.5, 3.0, 8.0, 30.0):  # expected degree
            p = c / (n - 1)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
            graphs.append(Graph.build(n, pairs))
    m = hashlib.sha256()
    bipartite = 0
    for g in graphs:
        cyc = shortest_odd_cycle(g)
        bipartite += cyc is None
        m.update(repr(None if cyc is None else cyc.vertices).encode())
    return m.hexdigest(), f"{len(graphs)} graphs, {bipartite} bipartite"


# a vertex sequence in the shape `oracle.validate` reads, with no checks, so
# that it can carry the corruptions a checked Path or Cycle would refuse
Seq = collections.namedtuple("Seq", "vertices length")


def _corruptions(vs: tuple, n: int):
    """vs with one vertex replaced by each id in -1..n, with one vertex
    repeated, and with its first or last two vertices swapped."""
    for i, v in enumerate(vs):
        for w in range(-1, n + 1):
            if w != v:
                yield vs[:i] + (w,) + vs[i + 1 :]
        yield vs[: i + 1] + vs[i:]
    yield vs[1::-1] + vs[2:]
    yield vs[:-2] + vs[:-3:-1]


def validate_digest() -> tuple:
    m = hashlib.sha256()
    verdicts = collections.Counter()

    def check(cert, host):
        out = oracle.validate(cert, host)
        verdicts[out[0]] += 1
        m.update(repr(out).encode())

    for g in enumerate_small(6, "min-degree-3"):
        for x in range(g.n):
            for y in range(x + 1, g.n):
                try:
                    cert = two_paths_diff_two(g, x, y)
                except HypothesisFailure:
                    continue
                hosts = (g.without_edge(x, y), g.with_edge(x, y))
                p1, p2 = (Seq(p.vertices, p.length) for p in (cert.p1, cert.p2))
                pairs = [(x, y, p1, p2), (y, x, p1, p2), (x, y, p2, p1)]
                for vs in _corruptions(p1.vertices, g.n):
                    pairs.append((x, y, Seq(vs, len(vs) - 1), p2))
                for vs in _corruptions(p2.vertices, g.n):
                    pairs.append((x, y, p1, Seq(vs, len(vs) - 1)))
                for xy in ((x, y), (y, x)):
                    pairs += [(x, y, Seq(xy, 1), p2), (x, y, p1, Seq(xy, 1))]
                for pair in pairs:
                    for host in hosts:
                        check(PathPairCertificate(*pair), host)
    for g in (g for n in (6, 7) for g in enumerate_small(n, "3-connected")):
        cert = three_connected_pair(g)
        c1, c2 = (Seq(c.vertices, c.length) for c in (cert.c1, cert.c2))
        pairs = [(c1, c2), (c2, c1)]
        pairs += [(Seq(vs, len(vs)), c2) for vs in _corruptions(c1.vertices, g.n)]
        pairs += [(c1, Seq(vs, len(vs))) for vs in _corruptions(c2.vertices, g.n)]
        for pair in pairs:
            check(CyclePairCertificate(*pair), g)
    return m.hexdigest(), f"{sum(verdicts.values())} checks, {verdicts[True]} accepted"


def main() -> int:
    bad = []
    digests = (
        ("cycles", cycles_digest),
        ("paths", paths_digest),
        ("sweep", sweep_digest),
        ("main", main_digest),
        ("flows", flows_digest),
        ("odd", odd_digest),
        ("validate", validate_digest),
        ("reduce", reduce_digest),
        ("levels", levels_digest),
        ("connectivity", connectivity_digest),
    )
    for name, fn in digests:
        digest, what = fn()
        ok = digest == PINNED[name]
        bad += [] if ok else [name]
        print(f"{name:12} {digest}  {'ok' if ok else 'DIFFERS'}  ({what})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
