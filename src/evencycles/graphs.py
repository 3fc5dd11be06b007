"""Immutable graph representation and connectivity machinery.

Vertices are dense integers 0..n-1.  All operations are pure: "edits"
return new Graph values, and every nondeterministic choice is broken
smallest-id-first so outputs are reproducible byte-for-byte.

A graph derived from a vertex subset comes with one id map, (graph, ids):
ids[i] is the host id of vertex i, and ids increase, so the map keeps the
order of vertices, rows and edges.  `induced_subgraph` maps every vertex;
`contract` maps the survivors, and its contracted vertex is the last one,
with no entry.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence


class GraphError(ValueError):
    """Raised on malformed graph data or violated operation preconditions."""


class InternalInvariantError(RuntimeError):
    """An object the proof guarantees was not found: an implementation bug."""


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise GraphError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset

    def __post_init__(self):
        n = self.n
        if not isinstance(n, int) or n < 0:
            raise GraphError(f"order must be an int >= 0, not {n!r}")
        if not isinstance(self.edges, frozenset):
            # a list or tuple could repeat an edge, which `e` and `adj` would count twice
            kind = type(self.edges).__name__
            raise GraphError(f"edges must be a frozenset, not {kind}; use Graph.build")
        for e in self.edges:
            if not (isinstance(e, tuple) and len(e) == 2 and isinstance(e[0], int)
                    and isinstance(e[1], int) and 0 <= e[0] < e[1] < n):
                raise GraphError(f"bad edge {e!r} for order {n}")

    @staticmethod
    def build(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        try:
            pairs = frozenset([_norm_edge(*e) for e in edges])
        except TypeError as exc:  # an edge that is no pair, or ids that do not compare
            raise GraphError("edges must be pairs of vertex ids") from exc
        return Graph(n, pairs)

    @classmethod
    def _trusted(cls, n: int, edges: frozenset, adj: tuple) -> "Graph":
        """The graph with the given edges and adjacency, which the caller
        derived from a valid graph: a frozenset of pairs u < v below n, and
        its rows as sorted tuples.  Nothing is checked or rebuilt."""
        g = object.__new__(cls)
        g.__dict__.update(n=n, edges=edges, adj=adj)
        return g

    @cached_property
    def adj(self) -> tuple:
        nbrs = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        for ns in nbrs:
            ns.sort()
        return tuple(map(tuple, nbrs))

    @cached_property
    def _two_connected(self) -> bool:
        """Whether g is 2-connected: one search reaches all n >= 3 vertices
        and finds no cut vertex."""
        _, _, _, reached, cut = _palm_tree(self)
        return self.n >= 3 and cut is None and reached == self.n

    @property
    def e(self) -> int:
        return len(self.edges)

    @property
    def vertices(self) -> range:
        return range(self.n)

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and ((u, v) if u < v else (v, u)) in self.edges

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def sorted_edges(self) -> list:
        return sorted(self.edges)

    def _edge(self, u: int, v: int) -> tuple[int, int]:
        if not (isinstance(u, int) and isinstance(v, int)):
            raise GraphError(f"vertex ids must be ints, not ({u!r}, {v!r})")
        e = _norm_edge(u, v)
        if not (0 <= e[0] and e[1] < self.n):
            raise GraphError(f"bad edge {e} for order {self.n}")
        return e

    def without_edge(self, u: int, v: int) -> "Graph":
        e = self._edge(u, v)
        if e not in self.edges:
            return self
        adj = list(self.adj)
        adj[u] = tuple(w for w in adj[u] if w != v)
        adj[v] = tuple(w for w in adj[v] if w != u)
        return Graph._trusted(self.n, self.edges - {e}, tuple(adj))

    def with_edge(self, u: int, v: int) -> "Graph":
        e = self._edge(u, v)
        if e in self.edges:
            return self
        adj = list(self.adj)
        adj[u] = tuple(sorted(adj[u] + (v,)))
        adj[v] = tuple(sorted(adj[v] + (u,)))
        return Graph._trusted(self.n, self.edges | {e}, tuple(adj))


def _unchecked(cls, graph: Graph, vertices: tuple):
    """The Path or Cycle of graph with these vertices, which the caller
    derived from a checked one of the same graph.  Nothing is checked."""
    obj = object.__new__(cls)
    obj.__dict__.update(graph=graph, vertices=vertices)
    return obj


@dataclass(frozen=True)
class Path:
    """A simple path, stored as its ordered vertex sequence in a host graph."""

    graph: Graph
    vertices: tuple

    _trusted = classmethod(_unchecked)

    def __post_init__(self):
        vs = self.vertices
        if len(vs) == 0:
            raise GraphError("empty path")
        if len(set(vs)) != len(vs):
            raise GraphError(f"repeated vertex in path {vs}")
        if not isinstance(vs[0], int) or len(vs) == 1 and not 0 <= vs[0] < self.graph.n:
            raise GraphError(f"path vertex {vs[0]!r} outside graph of order {self.graph.n}")
        edges = self.graph.edges  # the vertices are distinct, so a != b
        for a, b in zip(vs, vs[1:]):  # ints only: (0, 1.0) == (0, 1) is in edges
            if not isinstance(b, int) or ((a, b) if a < b else (b, a)) not in edges:
                raise GraphError(f"non-edge ({a!r}, {b!r}) in path {vs}")

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]

    def reverse(self) -> "Path":
        return Path._trusted(self.graph, tuple(reversed(self.vertices)))

    def vertex_set(self) -> frozenset:
        return frozenset(self.vertices)


@dataclass(frozen=True)
class Cycle:
    """A simple cycle with a fixed orientation; vertices[0] is the anchor."""

    graph: Graph
    vertices: tuple

    _trusted = classmethod(_unchecked)

    def __post_init__(self):
        vs = self.vertices
        if len(vs) < 3:
            raise GraphError(f"cycle too short: {vs}")
        if len(set(vs)) != len(vs):
            raise GraphError(f"repeated vertex in cycle {vs}")
        if not isinstance(vs[0], int):
            raise GraphError(f"cycle vertex {vs[0]!r} is not an int")
        edges = self.graph.edges  # the vertices are distinct, so a != b
        for a, b in zip(vs, vs[1:] + vs[:1]):  # ints only: (0, 1.0) == (0, 1) is in edges
            if not isinstance(b, int) or ((a, b) if a < b else (b, a)) not in edges:
                raise GraphError(f"non-edge ({a!r}, {b!r}) in cycle {vs}")

    @property
    def length(self) -> int:
        return len(self.vertices)

    def vertex_set(self) -> frozenset:
        return frozenset(self.vertices)

    def index_of(self, v: int) -> int:
        return self.vertices.index(v)

    def arc(self, u: int, v: int) -> Path:
        """Subpath from u to v following the cycle's orientation."""
        i, j = self.index_of(u), self.index_of(v)
        if i <= j:
            seq = self.vertices[i : j + 1]
        else:
            seq = self.vertices[i:] + self.vertices[: j + 1]
        return Path._trusted(self.graph, seq)

    def arc_length(self, u: int, v: int) -> int:
        i, j = self.index_of(u), self.index_of(v)
        return (j - i) % len(self.vertices)

    def chords(self) -> list:
        """Host-graph edges joining non-consecutive cycle vertices, sorted."""
        vs = self.vertices
        k = len(vs)
        pos = {v: i for i, v in enumerate(vs)}
        adj = self.graph.adj
        out = []
        for a in sorted(vs):
            for b in adj[a]:
                if b > a and b in pos and (pos[b] - pos[a]) % k not in (1, k - 1):
                    out.append((a, b))
        return out

    def canonical(self) -> "Cycle":
        """Rotate/reflect so the smallest vertex is first, smaller neighbor second."""
        vs = self.vertices
        i = vs.index(min(vs))
        fwd = vs[i:] + vs[:i]
        rev = (fwd[0],) + tuple(reversed(fwd[1:]))
        return Cycle._trusted(self.graph, min(fwd, rev))


def cycle_from_paths(p: Path, q: Path) -> Cycle:
    """Close two internally disjoint paths with common endpoints into a cycle."""
    if {p.start, p.end} != {q.start, q.end}:
        raise GraphError("paths do not share endpoints")
    if q.start != p.end:
        q = q.reverse()
    return Cycle(p.graph, p.vertices + q.vertices[1:-1])


def theta_even_cycle(paths: Sequence[Path]) -> Cycle:
    """The even cycle guaranteed inside a theta-graph: three internally
    vertex-disjoint paths, in either orientation, between its two branch
    vertices, the paths' ends.

    Among the three pairwise-union cycles (lengths a+b, a+c, b+c) at least
    one is even; ties break by shortest, then least canonical sequence.
    Building the three cycles checks the theta: a shared inner vertex
    repeats a vertex, two one-edge paths make a 2-cycle, and mismatched
    ends fail `cycle_from_paths`.
    """
    if len(paths) != 3:
        raise GraphError("theta-graph needs exactly three paths")
    cands = []
    for i in range(3):
        for j in range(i + 1, 3):
            c = cycle_from_paths(paths[i], paths[j])
            if c.length % 2 == 0:
                cc = c.canonical()
                cands.append((cc.length, cc.vertices, cc))
    if not cands:
        raise InternalInvariantError("theta-graph with no even cycle (impossible)")
    return min(cands)[2]


# ---------------------------------------------------------------------------
# traversal helpers (shared by the oracle and the finder)


def components(g: Graph, removed: frozenset = frozenset()) -> list:
    """Connected components of g - removed, each a sorted tuple of vertices."""
    seen = set(removed)
    out = []
    for s in g.vertices:
        if s in seen:
            continue
        comp = [s]
        seen.add(s)
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in g.adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    queue.append(w)
        out.append(tuple(sorted(comp)))
    return out


def is_connected(g: Graph, removed: frozenset = frozenset()) -> bool:
    return len(components(g, frozenset(removed))) <= 1


def bfs_path(g: Graph, sources, targets, forbidden=frozenset()) -> Optional[Path]:
    """Shortest path from any source to any target avoiding forbidden vertices.

    Internal vertices avoid both forbidden and (by first-hit stopping) the
    target set; deterministic via sorted expansion; read off the rows of g
    from checked sources, so the path is built unchecked.
    """
    sources = sorted(set(sources) - set(forbidden))
    _check_ids(g, sources)
    targets = set(targets)
    parent = {s: None for s in sources}
    queue = deque(sources)
    for s in sources:
        if s in targets:
            return Path._trusted(g, (s,))
    while queue:
        v = queue.popleft()
        for w in g.adj[v]:
            if w in parent or w in forbidden:
                continue
            parent[w] = v
            if w in targets:
                seq = [w]
                while seq[-1] is not None and parent[seq[-1]] is not None:
                    seq.append(parent[seq[-1]])
                return Path._trusted(g, tuple(reversed(seq)))
            queue.append(w)
    return None


def spanning_tree(g: Graph, vertices) -> dict:
    """BFS spanning tree of the (connected) induced subgraph; parent map, root -> None."""
    vs = sorted(vertices)
    if not vs:
        raise GraphError("spanning_tree of an empty vertex set")
    _check_ids(g, vs)
    allowed = set(vs)
    root = vs[0]
    parent = {root: None}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in g.adj[v]:
            if w in allowed and w not in parent:
                parent[w] = v
                queue.append(w)
    if len(parent) != len(vs):
        raise GraphError("spanning_tree on disconnected vertex set")
    return parent


def tree_path(parent: dict, a: int, b: int) -> tuple:
    """Vertex sequence of the unique a-b path in a tree given as a parent map."""
    anc_a = [a]
    while parent[anc_a[-1]] is not None:
        anc_a.append(parent[anc_a[-1]])
    pos = {v: i for i, v in enumerate(anc_a)}
    anc_b = [b]
    while anc_b[-1] not in pos:
        anc_b.append(parent[anc_b[-1]])
    meet = anc_b[-1]
    return tuple(anc_a[: pos[meet] + 1]) + tuple(reversed(anc_b[:-1]))


# ---------------------------------------------------------------------------
# induced subgraphs and contraction


def _check_ids(g: Graph, vs) -> None:
    for v in vs:
        if not (0 <= v < g.n):
            raise GraphError(f"unknown vertex id {v}")


def induced_subgraph(g: Graph, s) -> tuple:
    """Subgraph induced by vertex set s.

    Returns (graph, mapping) where mapping[i] is the original id of new
    vertex i (original ids in sorted order).
    """
    s = sorted(set(s))
    _check_ids(g, s)
    idx = {v: i for i, v in enumerate(s)}
    # idx is monotone, so each row stays sorted
    adj = tuple([tuple([idx[w] for w in g.adj[v] if w in idx]) for v in s])
    edges = frozenset([(i, j) for i, row in enumerate(adj) for j in row if j > i])
    return Graph._trusted(len(s), edges, adj), tuple(s)


def contract(g: Graph, s) -> tuple:
    """Contract vertex set s into a single new vertex (no multi-edges).

    Returns (graph, ids) as induced_subgraph does: ids[i] is the original
    id of survivor i (original ids in sorted order), and the contracted
    vertex is the last one, graph.n - 1, with no entry in ids.
    """
    s = frozenset(s)
    if not s:
        raise GraphError("cannot contract an empty set")
    _check_ids(g, s)
    survivors = [v for v in g.vertices if v not in s]
    new_id = {v: i for i, v in enumerate(survivors)}
    sid = len(survivors)
    # new_id is monotone and sid the largest id, so each row stays sorted
    adj, touching = [], []
    for i, v in enumerate(survivors):
        row = [new_id[w] for w in g.adj[v] if w not in s]
        if len(row) < len(g.adj[v]):
            row.append(sid)
            touching.append(i)
        adj.append(tuple(row))
    adj.append(tuple(touching))
    edges = frozenset([(i, j) for i, row in enumerate(adj) for j in row if j > i])
    return Graph._trusted(sid + 1, edges, tuple(adj)), tuple(survivors)


# ---------------------------------------------------------------------------
# blocks and cuts


@dataclass(frozen=True)
class Block:
    vertices: frozenset
    edges: frozenset

    @classmethod
    def _trusted(cls, vertices: frozenset, edges: frozenset) -> "Block":
        """A block read off a valid graph, set without the dataclass __init__."""
        b = object.__new__(cls)
        b.__dict__.update(vertices=vertices, edges=edges)
        return b

    def is_k5(self) -> bool:
        return len(self.vertices) == 5 and len(self.edges) == 10


@dataclass(frozen=True)
class BlockDecomposition:
    blocks: tuple  # of Block
    cut_vertices: frozenset

    def end_blocks(self) -> list:
        return [b for b in self.blocks if len(b.vertices & self.cut_vertices) <= 1]

    def block_of_vertex_set(self, s) -> Block:
        s = frozenset(s)
        for b in self.blocks:
            if s <= b.vertices:
                return b
        raise GraphError(f"no block contains {sorted(s)}")


def blocks(g: Graph) -> BlockDecomposition:
    """Biconnected components: the low-point search `_block_search` from
    every vertex not yet reached, so once per component, then `_decomposition`."""
    return _decomposition(*_block_search(g, g.vertices)[:2])


def _block_search(g: Graph, roots) -> tuple:
    """Tarjan's low-point depth-first search ("Depth-first search and linear
    graph algorithms", SIAM J. Comput. 1972) from each root not yet reached.

    Returns (closed, cuts, reached): each block as it closes, a pair of lists
    (vertices, edges); the set of cut vertices; and the number of vertices
    reached.  Each stack frame keeps the positions of its vertex on the
    vertex stack and of its tree edge on the edge stack, so the block closed
    at the tree edge (p, v) is a slice of each, plus p.  A root with an empty
    row is its own K1 block, and a root is a cut vertex iff it closes more
    than one block.  The blocks keep this search of their own: `_palm_tree`
    and a pass that labels the blocks took about 1.2 times as long."""
    adj = g.adj
    disc = [0] * g.n
    low = [0] * g.n
    timer = 1
    cuts = set()
    vertex_stack, edge_stack, closed = [], [], []
    for r in roots:
        if disc[r]:
            continue
        disc[r] = low[r] = timer
        timer += 1
        if not adj[r]:
            closed.append(([r], []))
            continue
        root_blocks = 0
        stack = [(r, -1, iter(adj[r]), 0, 0)]
        while stack:
            v, p, it, at_v, at_e = stack[-1]
            for w in it:
                if disc[w] == 0:
                    stack.append((w, v, iter(adj[w]), len(vertex_stack), len(edge_stack)))
                    vertex_stack.append(w)
                    edge_stack.append((v, w) if v < w else (w, v))
                    disc[w] = low[w] = timer
                    timer += 1
                    break
                if w != p and disc[w] < disc[v]:
                    edge_stack.append((v, w) if v < w else (w, v))
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:
                stack.pop()
                if p < 0:
                    continue
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] >= disc[p]:
                    closed.append((vertex_stack[at_v:] + [p], edge_stack[at_e:]))
                    del vertex_stack[at_v:], edge_stack[at_e:]
                    if p != r:
                        cuts.add(p)
                    else:
                        root_blocks += 1
        if root_blocks > 1:
            cuts.add(r)
    return closed, cuts, timer - 1


def _decomposition(closed: list, cuts) -> BlockDecomposition:
    """The blocks that `_block_search` closed, sorted by their sorted vertex lists."""
    for vs, _ in closed:
        vs.sort()
    closed.sort(key=lambda c: c[0])
    out = tuple([Block._trusted(frozenset(vs), frozenset(es)) for vs, es in closed])
    return BlockDecomposition(out, frozenset(cuts))


def _palm_tree(g: Graph, extra=None) -> tuple:
    """(num, parent, lowpt1, reached, cut) of the depth-first search from
    vertex 0 of g, with the edge xy added if extra = (x, y): preorder
    numbers from 1 (0: not reached), tree parents (-1: none), the low
    points, how many vertices it reached, and the smallest cut vertex of
    the component of 0, or None.  Of num[v] and the ends of the fronds out
    of the subtree of v, lowpt1[v] is the least.  A non-root v is a cut
    vertex iff a child w has lowpt1[w] >= num[v], the root iff it has two
    children.  `extra` is read as one more entry in the rows of x and y, so
    g + xy is not built.  O(n + m).  Only the separation-pair test reads
    lowpt2, ND and the preorder, so `_arcs` derives them: kept here, lowpt2
    and ND made every search 1.3-1.4 times as dear on small graphs."""
    n, adj = g.n, g.adj
    if extra is not None and not g.has_edge(*extra):
        x, y = extra
        adj = list(adj)
        adj[x], adj[y] = adj[x] + (y,), adj[y] + (x,)
    num, parent, low = [0] * n, [-1] * n, [0] * n
    if not n:
        return num, parent, low, 0, None
    children, cut = 0, n
    t = num[0] = low[0] = 1
    stack = [(0, -1, iter(adj[0]))]
    while stack:
        v, p, it = stack[-1]
        for w in it:
            x = num[w]
            if not x:
                parent[w] = v
                t += 1
                num[w] = low[w] = t
                stack.append((w, v, iter(adj[w])))
                break
            # a frond up from v; an arc to a descendant has x > num[v] >= lowpt1
            if x < low[v] and w != p:
                low[v] = x
        else:
            stack.pop()
            if p == 0:
                children += 1
            elif p > 0:
                if low[v] >= num[p] and p < cut:
                    cut = p
                if low[v] < low[p]:
                    low[p] = low[v]
    return num, parent, low, t, 0 if children > 1 else (cut if cut < n else None)


def _arcs(g: Graph, palm: tuple) -> tuple:
    """(lowpt2, nd, arcs, order) of the palm tree of the connected graph g.
    Of num[v] and the ends of the fronds out of the subtree of v, lowpt2[v]
    is the least other than lowpt1[v], or num[v] (Hopcroft-Tarjan); nd[v] is
    the size of that subtree; arcs[v] lists the arcs out of v by phi; order
    lists the reached vertices in preorder, rebuilt from num by one bucket
    pass.  One pass in reverse preorder, so each child is finished before
    its parent.  Rows are sorted and fronds differ in phi, so sorting
    (phi, w) keeps the order of a bucket sort."""
    num, parent, low1, reached, _ = palm
    order = [0] * reached
    for v, x in enumerate(num):
        if x:
            order[x - 1] = v
    low2, nd, arcs = [0] * g.n, [1] * g.n, [()] * g.n
    for v in reversed(order):
        nv, pv, l1 = num[v], parent[v], low1[v]
        l2, keyed = nv, []
        for w in g.adj[v]:
            if parent[w] == v:
                nd[v] += nd[w]
                x = low1[w] if low1[w] != l1 else low2[w]  # l1 <= lowpt1[w]
                keyed.append((3 * low1[w] + (2 if low2[w] >= nv else 0), w))
            elif num[w] < nv and w != pv:
                x = num[w] if num[w] != l1 else nv
                keyed.append((3 * num[w] + 1, w))
            else:
                continue
            if x < l2:
                l2 = x
        low2[v] = l2
        arcs[v] = [w for _, w in sorted(keyed)]
    return low2, nd, arcs, order


def _separation_pair(g: Graph, palm: tuple) -> Optional[frozenset]:
    """A separation pair {a, b} of the 2-connected simple graph g, whose
    palm tree is palm, or None if g has none.

    Hopcroft-Tarjan ("Dividing a graph into triconnected components",
    SIAM J. Comput. 1973) as corrected by Gutwenger-Mutzel (GD 2000), up to
    the first split, so with no split components: arcs ordered by phi
    (`_arcs`), a path finder for the new numbers (children visited first get
    the highest) and the first frond into each vertex (high), and the path
    search with the type-1 and type-2 checks on its triple stack (h, a, b),
    in original ids with h and a new numbers (two vertices on one tree path
    compare alike in either numbering).  The pair is the first one met: the
    neighbours of the first vertex of degree 2 (a pair as n >= 4, so the
    search has no degree-2 check), else {v, b} of the first type-2 check or
    {lowpt1(w), v} of the first type-1 check that holds.  O(n + m).
    """
    n, adj = g.n, g.adj
    if n < 4:
        return None
    for ns in adj:
        if len(ns) == 2:
            return frozenset(ns)
    num, parent, low1 = palm[:3]
    low2, nd, arcs, order = _arcs(g, palm)

    # path finder: new numbers and high.  Every non-root vertex has an arc
    # out, so paths end with fronds and start at all arcs but the first out
    # of a non-root vertex.
    new, high, count = [1] + [0] * (n - 1), [0] * n, n
    stack = [(0, iter(arcs[0]))]
    while stack:
        v, it = stack[-1]
        for w in it:
            if parent[w] == v:
                new[w] = count - nd[w] + 1
                stack.append((w, iter(arcs[w])))
                break
            if not high[w]:
                high[w] = new[v]
        else:
            stack.pop()
            count -= 1

    # path search from the root 0, which has one child; eos marks the end
    # of a segment of the triple stack, and its a and b match no vertex
    eos = (0, -1, -1)
    ts = [eos]
    stack = [(0, iter(arcs[0]))]
    while stack:
        v, it = stack[-1]
        for w in it:
            tree = parent[w] == v
            if not v or w != arcs[v][0]:  # the arc starts a path
                # the triples with a above the path's lowest end merge into one
                a = new[order[low1[w] - 1]] if tree else new[w]
                y, b = 0, None
                while ts[-1][1] > a:
                    h, _, b = ts.pop()
                    y = max(y, h)
                if tree:
                    last = new[w] + nd[w] - 1
                    ts += ((last, a, v) if b is None else (max(y, last), a, b)), eos
                else:
                    ts.append((new[v], a, v) if b is None else (y, a, b))
            if tree:
                stack.append((w, iter(arcs[w])))
                break
        else:
            stack.pop()
            if not stack:
                break
            w, v = v, stack[-1][0]
            nv = new[v]
            # type 2: {a, b} = {v, b} for the top triple, unless b is a child of v
            while v and ts[-1][1] == nv:
                if parent[ts[-1][2]] != v:
                    return frozenset([v, ts[-1][2]])
                ts.pop()
            # type 1: {lowpt1(w), v} cuts off the subtree of w, unless v is
            # the root's child and vw its last arc
            if low2[w] >= num[v] > low1[w] and (parent[v] or w != arcs[v][-1]):
                return frozenset([order[low1[w] - 1], v])
            if not v or w != arcs[v][0]:
                while ts.pop() is not eos:
                    pass
            while ts[-1] is not eos:
                h, a, b = ts[-1]
                if a == nv or b == v or high[v] <= h:
                    break
                ts.pop()
    return None


def _sparse_certificate(g: Graph) -> Graph:
    """The union H of three breadth-first forests: F1 of g, F2 of g - F1 and
    F3 of g - F1 - F2, on the vertices of g; g itself if it has at most
    3(n - 1) edges.

    A breadth-first search is a scan-first search, so H is a sparse
    certificate of 3-connectivity: H - S has the components of g - S for
    every set S of at most two vertices (Cheriyan, Kao and Thurimella,
    "Scan-first search and sparse certificates", SIAM J. Comput. 1993;
    Nagamochi and Ibaraki, Algorithmica 1992).  O(n + m), and O(n) on a
    near-complete g: a pass stops once it has seen every vertex.
    `connectivity_cut(g, 3)` reads H, and so do the block search, the cut
    and the 3-connected proof of a level of `finder._reduce`; that level
    reads g itself for its blocks and a 2-cut.
    """
    n, adj = g.n, g.adj
    if g.e <= 3 * (n - 1):
        return g
    rows = [set() for _ in range(n)]  # the forests so far
    for _ in range(3):
        seen = [False] * n
        left = n  # a pass that has seen every vertex adds no more edges
        for r in range(n):
            if seen[r]:
                continue
            seen[r] = True
            left -= 1
            queue = [r]
            for v in queue:
                if not left:
                    break
                for w in adj[v]:
                    if not seen[w] and w not in rows[v]:
                        seen[w] = True
                        left -= 1
                        queue.append(w)
                        rows[v].add(w)
                        rows[w].add(v)
    edges = frozenset((v, w) for v in range(n) for w in rows[v] if v < w)
    return Graph._trusted(n, edges, tuple(tuple(sorted(row)) for row in rows))


def _connectivity(g: Graph) -> int:
    """0 if g is disconnected, else the size of the cut that
    `connectivity_cut(g, 3)` returns (3 for None), at most n - 1."""
    if g.n <= 1:
        return g.n  # K0 is disconnected, K1 connected
    try:
        cut = connectivity_cut(g, 3)
    except GraphError:
        return 0
    return min(3 if cut is None else len(cut), g.n - 1)


def connectivity_cut(g: Graph, k: int) -> Optional[frozenset]:
    """A vertex cut of size < k if one exists; None certifies k-connectedness
    for graphs with more than k vertices.  Supports 1 <= k <= 3.

    One palm-tree search, of the sparse certificate H for k = 3, says
    whether g is connected and which is its smallest cut vertex; that
    vertex is the cut if there is one.  Else (k = 3) `_separation_pair`
    reads the same palm tree and returns the first pair its path search
    meets, which need not be the smallest.  O(n + m).
    """
    if not 1 <= k <= 3:
        raise GraphError("connectivity_cut supports 1 <= k <= 3 only")
    h = _sparse_certificate(g) if k == 3 else g
    palm = _palm_tree(h)
    if palm[3] < g.n:
        raise GraphError("connectivity_cut requires a connected graph")
    if k > 1 and palm[4] is not None:
        return frozenset([palm[4]])
    return _separation_pair(h, palm) if k == 3 else None


# ---------------------------------------------------------------------------
# disjoint paths and fans (Menger via unit-vertex-capacity augmenting paths)


def _menger(g: Graph, a: frozenset, b: frozenset, k: int, supply: int = 1, allowed=None):
    """k paths from vertex set a to vertex set b, or a separator of size < k.

    Vertex v splits into v_in = 2v and v_out = 2v + 1, joined by an arc of
    capacity 1 (`supply` if v is in a).  The source 2n feeds every v_in of a
    with `supply`, every v_out of b drains into the sink 2n + 1 with capacity
    1, and every edge xy inside `allowed` (default: all vertices) gives the
    uncapacitated arcs x_out -> y_in and y_out -> x_in, except those that
    enter a or leave b.  At most k shortest augmenting paths, each node's
    arcs taken in increasing order of their head.

    The network is implicit: arcs are read off the sorted rows of g.  The
    flow is `split[v]` on the split arc of v, equal to the flow on its
    source or sink arc, and the vertex `into[w]` that feeds w_in (-1: none),
    as w_in, w not in a, leaves only by its split arc of capacity 1.

    Returns (paths, None), the paths ordered by start vertex, running from a
    to b with no inner vertex in a | b and sharing no vertex but a start of
    supply > 1; or (None, separator), the vertices whose split arcs cross
    the minimum cut, fewer than k of them.
    """
    n, adj = g.n, g.adj
    S, T = 2 * n, 2 * n + 1
    inside = [allowed is None] * n
    for v in allowed or ():
        inside[v] = True
    enter = [inside[w] and w not in a for w in range(n)]  # w_in has edge arcs in
    starts = [v for v in sorted(a) if inside[v]]
    split, into = [0] * n, [-1] * n

    for _ in range(k):
        parent = [-1] * (2 * n + 2)
        queue = [2 * v for v in starts if split[v] < supply]
        for x in queue:
            parent[x] = S
        for x in queue:
            v = x >> 1
            if not x & 1:
                # one residual arc: the reverse of the arc into v_in, else the
                # split arc, which is full only if v_in was reached from v_out
                y = 2 * into[v] + 1 if into[v] >= 0 else x + 1
                heads = [y] if parent[y] < 0 else []
            else:
                row = adj[v] if v not in b else ()
                heads = [2 * w for w in row if enter[w] and parent[2 * w] < 0]
                if split[v] and parent[x - 1] < 0:
                    insort(heads, x - 1)  # the reverse split arc
            for y in heads:
                parent[y] = x
            queue += heads
            if x & 1 and v in b and not split[v]:
                parent[T] = x
                break
        if parent[T] < 0:
            # the search reached exactly the source side of a minimum cut
            return None, frozenset(
                v
                for v in range(n)
                if inside[v] and (v in a or parent[2 * v] >= 0) and (v in b or parent[2 * v + 1] < 0)
            )
        # from the sink back, so an arc that leaves x_in against the flow is
        # undone before an arc into x_in sets into[x] anew
        y = parent[T]
        while parent[y] != S:
            x = parent[y]
            if x >> 1 == y >> 1:
                split[x >> 1] += 1 if y & 1 else -1
            elif x & 1:
                into[y >> 1] = x >> 1
            else:
                into[x >> 1] = -1
            y = x

    paths = []
    for s in starts:
        for _ in range(split[s]):
            seq = [s]
            for v in seq:
                w = next((w for w in adj[v] if into[w] == v), -1)
                if w >= 0:
                    into[w] = -1
                    seq.append(w)
            paths.append(Path(g, tuple(seq)))
    return paths, None


def disjoint_paths(g: Graph, a, b, k: int):
    """k pairwise vertex-disjoint a-b paths, or a separator of size < k.

    Returns (paths, None) on success and (None, separator) otherwise.  Paths
    have one endpoint in a, the other in b, and no internal vertex in a | b.
    """
    a, b = frozenset(a), frozenset(b)
    _check_ids(g, a | b)
    if a & b:
        raise GraphError("disjoint_paths requires disjoint endpoint sets")
    return _menger(g, a, b, k)


def fan(g: Graph, u: int, targets, k: int, allowed=None):
    """k internally disjoint paths from u to k distinct target vertices.

    Internal vertices are confined to `allowed` (default: everything) minus
    the targets.  Returns a list of Paths sorted by target, or None.
    """
    targets = frozenset(targets)
    if u in targets:
        raise GraphError("fan requires a centre that is not a target")
    allowed = frozenset(g.vertices if allowed is None else allowed) | targets | {u}
    _check_ids(g, allowed)
    paths, _ = _menger(g, frozenset([u]), targets, k, supply=k, allowed=allowed)
    return None if paths is None else sorted(paths, key=lambda p: p.end)


# ---------------------------------------------------------------------------
# parity utilities


def is_bipartite(g: Graph):
    """(True, coloring) or (False, odd Cycle) with the witness validated."""
    color = {}
    for root in g.vertices:
        if root in color:
            continue
        color[root] = 0
        parent = {root: None}
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in g.adj[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    parent[w] = v
                    queue.append(w)
                elif color[w] == color[v]:
                    return False, Cycle(g, tree_path(parent, v, w)).canonical()
    return True, color


def _double_cover_walk(g: Graph, s: int, t: int, parity: int) -> Optional[tuple]:
    """Vertices of a shortest s-t walk of the given length parity, or None.

    A breadth-first search of the bipartite double cover from (s, 0) to
    (t, parity), with node (v, p) numbered 2v + p.  Neighbours are taken in
    increasing order and each node keeps the first node that reached it as
    its parent, so the walk is the same on every run.
    """
    src, dst = 2 * s, 2 * t + parity
    adj = g.adj
    parent = [-1] * (2 * g.n)
    parent[src] = src
    queue = deque([src])
    while queue and parent[dst] < 0:
        node = queue.popleft()
        flip = (node & 1) ^ 1
        for w in adj[node >> 1]:
            nxt = 2 * w + flip
            if parent[nxt] < 0:
                parent[nxt] = node
                queue.append(nxt)
    if parent[dst] < 0:
        return None
    walk, node = [t], dst
    while node != src:
        node = parent[node]
        walk.append(node >> 1)
    return tuple(reversed(walk))


def _odd_walk_length(g: Graph, s: int, bound: int, level: list) -> Optional[int]:
    """Length of a shortest odd closed walk through s in G[>= s], the
    subgraph on the vertices >= s, if it is below bound.

    That length is 2d + 1 for the first breadth-first level d from s with
    an edge inside it: such an edge closes a walk of length 2d + 1, and a
    closed walk with no such edge changes level at every step, so it is
    even.  The search stops at that level, or at the first level d with
    2d + 1 >= bound.  It writes `level` only at vertices >= s; `level` is
    -1 on every vertex on entry and on return.
    """
    adj = g.adj
    level[s] = 0
    queue = [s]  # also the vertices to reset
    try:
        for v in queue:
            d = level[v]
            if 2 * d + 1 >= bound:
                return None
            for w in adj[v]:
                if w < s:
                    continue
                if level[w] < 0:
                    level[w] = d + 1
                    queue.append(w)
                elif level[w] == d:
                    return 2 * d + 1
        return None
    finally:
        for v in queue:
            level[v] = -1


def shortest_odd_cycle(g: Graph) -> Optional[Cycle]:
    """A shortest odd cycle (None if bipartite); the result is chordless.

    The cycle is chosen at the smallest vertex s on a shortest odd cycle: it
    is the walk from (s, 0) to (s, 1) that the breadth-first search of the
    bipartite double cover of all of g gives (`_double_cover_walk`), in
    canonical form.

    Cost: one `is_bipartite` pass answers a bipartite g.  Otherwise each
    start s runs a plain breadth-first search of G[>= s] that stops at the
    first level d holding an edge, as a shortest odd closed walk through s
    there has length 2d + 1 (`_odd_walk_length`), or once 2d + 1 reaches
    the shortest length found so far (at first, the length of the odd cycle
    `is_bipartite` returned).  Leaving out the vertices below s changes no
    answer.  A shortest odd cycle, of length L, lies in G[>= s*] for its
    smallest vertex s*, so s* still measures L.  A start below s* measures
    at least what it would measure in all of g, and that is more than L,
    as an odd closed walk of length L is a cycle (else it would hold a
    shorter odd one).  So no start searches past radius (L - 1) / 2, a
    triangle ends the loop over starts, and only the chosen s gets the
    double-cover search.  O(n(n + m)) in the worst case, O(n + m) when
    vertex 0 lies on a triangle.
    """
    ok, witness = is_bipartite(g)
    if ok:
        return None
    level = [-1] * g.n
    best, start = witness.length + 1, None
    for s in g.vertices:
        length = _odd_walk_length(g, s, best, level)
        if length is not None:
            best, start = length, s
            if best == 3:
                break
    walk = _double_cover_walk(g, start, start, 1)[1:]
    if len(walk) != best or len(set(walk)) != best:  # best is odd: _odd_walk_length set it
        raise InternalInvariantError("shortest odd closed walk is not simple")
    cyc = Cycle(g, walk).canonical()
    if cyc.chords():
        raise InternalInvariantError("shortest odd cycle has a chord")
    return cyc
