import random

import pytest

from evencycles.finder import _block_even_cycle
from evencycles.graphs import Graph, blocks, connectivity_cut, induced_subgraph, is_connected


def even_cycle_within(g: Graph, allowed):
    """An even cycle of g inside `allowed`, or None if g[allowed] has none:
    the even start cycle that the finder builds from the blocks of g - d."""
    sub, ids = induced_subgraph(g, allowed)
    return _block_even_cycle(g, ids, blocks(sub))


def seeded_three_connected(seed: int) -> Graph:
    """Deterministic random 3-connected graph with 6 <= n <= 12."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(6, 12)
        p = rng.uniform(0.4, 0.8)
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
        ]
        g = Graph.build(n, edges)
        if is_connected(g) and connectivity_cut(g, 3) is None:
            return g


@pytest.fixture(scope="session")
def three_connected_factory():
    return seeded_three_connected
