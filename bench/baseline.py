"""Single-input reference timings, to set beside the benchmark's workloads.

    python3 bench/baseline.py

Prints the median of REPEATS times, as timed and at reference speed (see
speed.py), of each of: main_theorem on K80, main_theorem on a seeded
G(200, 10/n) with the share of that call spent inside connectivity_cut
(from one traced call), building the corpus of every graph of order <= 7
from an empty cache, and three_connected_pair on the prism GP(25, 1).  Run it from the
root of a source checkout.
"""

from __future__ import annotations

import os
import random
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from evencycles import codecs, finder, generators  # noqa: E402

REPEATS = 3
SEED = 1  # of the G(200, 10/n) input


def median_time(fn) -> tuple:
    """Median seconds of fn() as timed and at reference speed."""
    timed, scaled = [], []
    for _ in range(REPEATS):
        before = speed.sample()
        start = time.perf_counter()
        fn()
        end = time.perf_counter()
        timed.append(end - start)
        scaled += speed.scale([(start, end)], [before, speed.sample()])
    return statistics.median(timed), statistics.median(scaled)


def graph(g):
    return codecs.decode_graph6(inputs.graph6(g))


def build_corpus():
    generators._all_graphs.cache_clear()
    return list(generators.enumerate_small(7))


def main() -> int:
    k80 = graph(inputs.complete(80))
    gnp = graph(inputs.dense_gnp(200, 10 / 200, random.Random(f"baseline:{SEED}")))
    prism = graph(inputs.generalized_petersen(25, 1))
    rows = [
        ("main_theorem(K80)", median_time(lambda: finder.main_theorem(k80))),
        (f"main_theorem(G(200, 10/n)), e = {gnp.e}",
         median_time(lambda: finder.main_theorem(gnp))),
        ("corpus of order <= 7 from an empty cache", median_time(build_corpus)),
        ("three_connected_pair(GP(25, 1))",
         median_time(lambda: finder.three_connected_pair(prism))),
    ]
    print("   timed  reference speed")
    for name, (timed, scaled) in rows:
        print(f"{timed:8.3f} s {scaled:8.3f} s  {name}")

    tracer = tracing.install_on_program()
    tracer.current_op = 0
    start = time.perf_counter()
    finder.main_theorem(gnp)
    traced = time.perf_counter() - start
    tracer.end_op(time.perf_counter())
    metrics = tracer.layer_metrics(len(tracer.start), 1, traced)
    cut, _ = metrics["graphs.connectivity_cut.total_s"]
    calls, _ = metrics["graphs.connectivity_cut.calls"]
    print(f"traced main_theorem(G(200, 10/n)): {traced:.3f} s, of which "
          f"{100 * cut / traced:.1f}% inside {calls} connectivity_cut calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
