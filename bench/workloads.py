"""The benchmark's workloads.

A workload is built from a seed; that is its set-up.  It then runs in
rounds.  `Workload.round` is a generator of operations: the code between
two yields prepares inputs and is not timed, and each yielded `Op` is one
call of a public entry point on one input, timed by the caller.  Every
round runs the same operations on the same inputs, decoded afresh from
graph6 so that no round reuses the program's per-graph caches.  `check`
then verifies the answers with the benchmark's own checker; the checker
module (and networkx) is imported only then, after the timed rounds, so
that neither set-up time nor peak memory includes it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import inputs
import speed
from evencycles import cli, codecs, finder, generators

# OEIS A000088 (graphs on n nodes, n = 1..7) and A006290 (3-connected, n = 6, 7)
GRAPHS_BY_ORDER = (1, 2, 4, 11, 34, 156, 1044)
THREE_CONNECTED_BY_ORDER = {6: 17, 7: 136}


@dataclass
class Op:
    kind: str  # which entry point: a key of SUMMARIES
    graph: tuple  # key of the input graph, stable across rounds
    call: Callable
    terminals: tuple = ()  # (x, y) for two_paths_diff_two
    fails: Callable = field(default=lambda out: None)  # why a returned answer is a failure


def _outcome(out) -> tuple:
    if out.kind == "certificate":
        return ("certificate", out.certificate.c1.vertices, out.certificate.c2.vertices)
    if out.kind == "k5-witness":
        return ("k5-witness", tuple(tuple(sorted(b.vertices)) for b in out.witness.decomposition.blocks))
    return ("hypothesis-failure", out.failure.name)


def _without_timing(text: str) -> str:
    """The sweep output without its last CSV column, the only nondeterministic one."""
    return "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())


# answers reduced to plain data, taken outside the timed call
SUMMARIES = {
    "sweep": lambda out: (out[0], _without_timing(out[1])),
    "main_theorem": _outcome,
    "three_connected_pair": lambda c: (c.c1.vertices, c.c2.vertices),
    "two_paths_diff_two": lambda c: (c.x, c.y, c.p1.vertices, c.p2.vertices),
    "cycle_two_mod_four": lambda c: c.vertices,
}


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.graphs: dict = {}  # key -> (n, edges) as the program receives it
        self.g6: dict = {}  # key -> graph6 text of graphs[key]

    def add(self, key: tuple, g: tuple):
        self.graphs[key] = g
        self.g6[key] = inputs.graph6(g)

    def round(self):
        raise NotImplementedError

    def tick_inside(self):
        """Make the operations that run for seconds take speed samples while
        they run (see speed.tick); untraced runs only."""

    def check(self, op: Op, answer) -> str | None:
        """None if the answer is right, else why not."""
        import check

        n, edges = self.graphs[op.graph]
        es = check.edge_set(edges)
        if op.kind == "main_theorem":
            witness_expected = self.expect_witness(op.graph)
            if answer[0] == "certificate":
                if witness_expected:
                    return "certificate where a K5-block witness was expected"
                return check.check_cycle_pair(n, es, *answer[1:])
            if answer[0] == "k5-witness":
                if not witness_expected:
                    return "K5-block witness where a certificate was expected"
                return check.check_k5_witness(n, edges, answer[1])
            return f"hypothesis failure {answer[1]!r} on a dense graph"
        if op.kind == "three_connected_pair":
            return check.check_cycle_pair(n, es, *answer)
        if op.kind == "two_paths_diff_two":
            if answer[:2] != op.terminals:
                return f"certificate is for terminals {answer[:2]}, not {op.terminals}"
            return check.check_path_pair(n, es, *op.terminals, *answer[2:])
        if op.kind == "cycle_two_mod_four":
            return check.check_two_mod_four(n, es, answer)
        raise ValueError(op.kind)

    def expect_witness(self, key: tuple) -> bool:
        import check

        return check.is_k5_block_tree(*self.graphs[key])

    def final_checks(self) -> list:
        """Problems found in figures gathered across the run."""
        return []


# ---------------------------------------------------------------------------


def _nonzero_exit(out) -> str | None:
    return f"exit code {out[0]}" if out[0] else None


class Exhaustive7(Workload):
    """Every unlabeled graph of order <= 7: the sweep builds the corpus, then
    the entry points run on it, each graph relabelled by a seeded permutation."""

    name = "exhaustive-7"
    SWEEP = ["sweep", "enum:7:connected", "--check-oracle", "--jobs", "1"]

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(f"{self.name}:{seed}")
        self.perms = {n: [rng.sample(range(n), n) for _ in range(64)] for n in range(1, 8)}
        self.selection = None  # [(graph key, {entry point: use})], made once per run
        self.counts = None
        self.program_three_connected = None
        self.connected7 = set()  # graph6 of the connected order-7 corpus graphs

    def _select(self):
        """Decide, once per run, which corpus graphs feed which entry point."""
        corpus = {n: list(generators.enumerate_small(n)) for n in range(1, 8)}
        self.counts = tuple(len(corpus[n]) for n in range(1, 8))
        self.program_three_connected = {
            n: sum(1 for _ in generators.enumerate_small(n, "3-connected")) for n in (6, 7)
        }
        self.selection = []
        for n, graphs in corpus.items():
            for i, g in enumerate(graphs):
                canon = (n, sorted(g.edges))
                e = len(canon[1])
                connected = inputs.is_connected(*canon)
                if n == 7 and connected:
                    self.connected7.add(inputs.graph6(canon))
                feeds = {
                    "three_connected_pair": n >= 6 and inputs.is_three_connected(*canon),
                    "pairs": inputs.path_terminal_pairs(*canon),
                    "main_theorem": connected and 2 * e >= 5 * (n - 1),
                    "cycle_two_mod_four": 2 * e >= 5 * n,
                }
                if not any(feeds.values()):
                    continue
                perm = self.perms[n][i % 64]
                self.add((n, i), inputs.relabel_by(canon, perm))
                feeds["pairs"] = [tuple(sorted((perm[x], perm[y]))) for x, y in feeds["pairs"]]
                self.selection.append(((n, i), feeds))

    def tick_inside(self):
        # corpus enumeration is most of the sweep, and calls this per graph
        speed.tick_inside(generators, "canonical_columns")

    def _sweep(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(self.SWEEP))
        return code, out.getvalue()

    def round(self):
        # a sweep process starts with no corpus, so none is carried across rounds
        generators._all_graphs.cache_clear()
        yield Op("sweep", ("sweep",), self._sweep, fails=_nonzero_exit)
        if self.selection is None:
            self._select()
        graph = {key: codecs.decode_graph6(self.g6[key]) for key, _ in self.selection}
        for key, feeds in self.selection:
            if feeds["three_connected_pair"]:
                yield Op("three_connected_pair", key, partial(finder.three_connected_pair, graph[key]))
        for key, feeds in self.selection:
            for x, y in feeds["pairs"]:
                call = partial(finder.two_paths_diff_two, graph[key], x, y)
                yield Op("two_paths_diff_two", key, call, terminals=(x, y))
        for key, feeds in self.selection:
            if feeds["main_theorem"]:
                yield Op("main_theorem", key, partial(finder.main_theorem, graph[key]))
        for key, feeds in self.selection:
            if feeds["cycle_two_mod_four"]:
                yield Op("cycle_two_mod_four", key, partial(finder.cycle_two_mod_four, graph[key]))

    def check(self, op, answer):
        if op.kind == "sweep":
            return self._check_sweep(answer)
        return super().check(op, answer)

    def _check_sweep(self, answer):
        """Each CSV row against a brute-force spectrum; the row set against the corpus."""
        import check

        rows = list(csv.DictReader(io.StringIO(answer[1])))[:-1]  # last line: summary
        if {r["graph6"] for r in rows} != self.connected7 or len(rows) != len(self.connected7):
            return f"sweep rows ({len(rows)}) are not the connected order-7 graphs"
        for r in rows:
            g6 = r["graph6"]
            n, edges = check.decode_graph6(g6)
            dense = 2 * len(edges) >= 5 * (n - 1)
            if (int(r["n"]), int(r["e"]), r["density_ok"]) != (n, len(edges), str(dense).lower()):
                return f"sweep row {g6}: wrong n, e or density"
            if not dense:
                # oracle_agrees is not checked here: it is the fault that fails the sweep
                if r["outcome"] != "hypothesis-failure":
                    return f"sweep row {g6}: {r['outcome']} below the density bound"
                continue
            spectrum = check.cycle_spectrum(n, edges)
            if check.has_consecutive_even(spectrum):
                a, _, b = r["lengths"].partition("+")
                ok = a.isdigit() and b.isdigit() and int(a) % 2 == 0 and int(b) == int(a) + 2
                if r["outcome"] != "certificate" or not ok or not {int(a), int(b)} <= spectrum:
                    return f"sweep row {g6}: no valid certificate lengths"
            elif r["outcome"] != "k5-witness" or not check.is_k5_block_tree(n, edges):
                return f"sweep row {g6}: {r['outcome']} without a consecutive even pair"
            if r["oracle_agrees"] != "true":
                return f"sweep row {g6}: oracle disagrees on a dense graph"
        return None

    def final_checks(self):
        import check

        problems = []
        if self.counts != GRAPHS_BY_ORDER:
            problems.append(f"corpus sizes {self.counts} differ from A000088 {GRAPHS_BY_ORDER}")
        ours = {n: 0 for n in range(1, 8)}
        for (n, _), feeds in self.selection:
            ours[n] += bool(feeds["three_connected_pair"])
        for n, want in THREE_CONNECTED_BY_ORDER.items():
            if ours[n] != want or self.program_three_connected[n] != want:
                problems.append(
                    f"order {n}: {ours[n]} 3-connected by our test, "
                    f"{self.program_three_connected[n]} by the program, A006290 says {want}"
                )
        # with the per-answer checks: a certificate exactly when the spectrum has a pair
        for key, feeds in self.selection:
            if feeds["main_theorem"]:
                n, edges = self.graphs[key]
                if check.has_consecutive_even(check.cycle_spectrum(n, edges)) == self.expect_witness(key):
                    problems.append(f"graph {key}: spectrum and block structure disagree")
        return problems


class SimpleWorkload(Workload):
    """A fixed list of (key, graph) inputs, each run through one entry point."""

    kind = ""

    def round(self):
        graph = {key: codecs.decode_graph6(text) for key, text in self.g6.items()}
        entry = getattr(finder, self.kind)
        for key in self.g6:
            yield Op(self.kind, key, partial(entry, graph[key]))


class DenseLarge(SimpleWorkload):
    """Few large dense graphs through main_theorem: the asymptotic costs."""

    name = "dense-large"
    kind = "main_theorem"

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(f"{self.name}:{seed}")
        for n in range(40, 61, 5):
            self.add(("complete", n), inputs.complete(n))
        for n in (100, 120):
            self.add(("gnp", n), inputs.dense_gnp(n, 10 / n, rng))
        for k, m in ((20, 100), (30, 300), (40, 600)):
            self.add(("peel", k, m), inputs.relabel(inputs.peel_graph(k, m, rng), rng))
        # The families below keep fixed labels: the time of the program's
        # exhaustive searches and of its smallest-id-first splitting depends
        # on the labelling, and a per-seed labelling of a few large inputs
        # spreads the figures more than any change worth measuring.
        for b in (*range(5, 101, 5), 200):
            shape = random.Random(f"k5-block-tree:{b}")
            self.add(("k5-block-tree", b), inputs.k5_block_tree(b, shape))
        for a, b in ((6, 6), (7, 8), (8, 10), (9, 9), (10, 10)):
            self.add(("glued", a, b), inputs.glued_cliques(a, b))
        for m in range(5, 12, 2):
            self.add(("k4m", m), inputs.complete_bipartite(4, m))

    def expect_witness(self, key):
        return key[0] == "k5-block-tree"


class ThreeConnected(SimpleWorkload):
    """Mid-size 3-connected graphs through three_connected_pair: the proof
    branches and the flow primitives."""

    name = "three-connected"
    kind = "three_connected_pair"

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(f"{self.name}:{seed}")
        for n in range(5, 26):
            for k in range(1, (n - 1) // 2 + 1):
                g = inputs.generalized_petersen(n, k)
                if not inputs.is_bipartite(*g):
                    self.add(("gp", n, k), g)
        # the orders are fixed, so that only the graphs change with the seed
        for i, n in enumerate(2 * list(range(12, 41, 2))):
            self.add(("cubic", i, n), inputs.random_cubic(n, rng))
        for d in (3, 4):
            self.add(("cube", d), inputs.hypercube(d))
        for m in range(3, 9):
            self.add(("k3m", m), inputs.complete_bipartite(3, m))


WORKLOADS = {w.name: w for w in (Exhaustive7, DenseLarge, ThreeConnected)}
