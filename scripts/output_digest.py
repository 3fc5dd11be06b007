#!/usr/bin/env python3
"""Check that six deterministic outputs are unchanged.

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
  vertices, or None, at a time (1791 graphs, 253 of them bipartite).

A refactor that should not change any output must leave all six equal.
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

from evencycles import HypothesisFailure, main_theorem, three_connected_pair, two_paths_diff_two
from evencycles.cli import main as cli_main
from evencycles.generators import (
    complete_graph,
    enumerate_small,
    gen_k5_block_tree,
    generalized_petersen,
)
from evencycles.graphs import Graph, _menger, disjoint_paths, fan, shortest_odd_cycle

PINNED = {
    "cycles": "4c2b4d7698743ae2453a16d76ad78de8710a086ff6695c22403a704150177e5f",
    "paths": "c4849d90e16c50b27648c94da067a00d537f7759690b4cbd4b252e5d3e7ff9f5",
    "sweep": "0c60e4e02955eb7ef85a651a736f222324d89dea87e4f707fb37e47bd6c0e188",
    "main": "4c3a0941ee0d9d2e61e3f16dcfa018da8a48713c5fa6119889906319ace059cd",
    "flows": "e105c84cd9cd7496274a25dedc1f4911dbf22865d4b115f656681118919346e1",
    "odd": "3c32fab16218ada399ada64137ce3e34e19e54a9dbf48213cea85b6f764e95b8",
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


def main_digest() -> tuple:
    graphs = [g for n in range(9) for g in enumerate_small(n, "density")]
    graphs += [gen_k5_block_tree(b, b) for b in range(1, 31)]
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


def main() -> int:
    bad = []
    digests = (
        ("cycles", cycles_digest),
        ("paths", paths_digest),
        ("sweep", sweep_digest),
        ("main", main_digest),
        ("flows", flows_digest),
        ("odd", odd_digest),
    )
    for name, fn in digests:
        digest, what = fn()
        ok = digest == PINNED[name]
        bad += [] if ok else [name]
        print(f"{name:6} {digest}  {'ok' if ok else 'DIFFERS'}  ({what})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
