"""Immutable graph representation and connectivity machinery.

Vertices are dense integers 0..n-1.  All operations are pure: "edits"
return new Graph values together with id mappings, and every
nondeterministic choice is broken smallest-id-first so outputs are
reproducible byte-for-byte.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence


class GraphError(ValueError):
    """Raised on malformed graph data or violated operation preconditions."""


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
        if self.n < 0:
            raise GraphError("negative order")
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise GraphError(f"bad edge ({u}, {v}) for order {self.n}")

    @staticmethod
    def build(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        return Graph(n, frozenset(_norm_edge(u, v) for u, v in edges))

    @cached_property
    def adj(self) -> tuple:
        nbrs = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(ns)) for ns in nbrs)

    @property
    def e(self) -> int:
        return len(self.edges)

    @property
    def vertices(self) -> range:
        return range(self.n)

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and _norm_edge(u, v) in self.edges

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def sorted_edges(self) -> list:
        return sorted(self.edges)

    def without_edge(self, u: int, v: int) -> "Graph":
        return Graph(self.n, self.edges - {_norm_edge(u, v)})

    def with_edge(self, u: int, v: int) -> "Graph":
        return Graph(self.n, self.edges | {_norm_edge(u, v)})


@dataclass(frozen=True)
class Path:
    """A simple path, stored as its ordered vertex sequence in a host graph."""

    graph: Graph
    vertices: tuple

    def __post_init__(self):
        vs = self.vertices
        if len(vs) == 0:
            raise GraphError("empty path")
        if len(set(vs)) != len(vs):
            raise GraphError(f"repeated vertex in path {vs}")
        for a, b in zip(vs, vs[1:]):
            if not self.graph.has_edge(a, b):
                raise GraphError(f"non-edge ({a}, {b}) in path {vs}")

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
        return Path(self.graph, tuple(reversed(self.vertices)))

    def vertex_set(self) -> frozenset:
        return frozenset(self.vertices)


@dataclass(frozen=True)
class Cycle:
    """A simple cycle with a fixed orientation; vertices[0] is the anchor."""

    graph: Graph
    vertices: tuple

    def __post_init__(self):
        vs = self.vertices
        if len(vs) < 3:
            raise GraphError(f"cycle too short: {vs}")
        if len(set(vs)) != len(vs):
            raise GraphError(f"repeated vertex in cycle {vs}")
        for a, b in zip(vs, vs[1:] + vs[:1]):
            if not self.graph.has_edge(a, b):
                raise GraphError(f"non-edge ({a}, {b}) in cycle {vs}")

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
        return Path(self.graph, seq)

    def arc_length(self, u: int, v: int) -> int:
        i, j = self.index_of(u), self.index_of(v)
        return (j - i) % len(self.vertices)

    def chords(self) -> list:
        """Host-graph edges joining non-consecutive cycle vertices."""
        vs = self.vertices
        k = len(vs)
        pos = {v: i for i, v in enumerate(vs)}
        out = []
        for a, b in self.graph.sorted_edges():
            if a in pos and b in pos:
                d = (pos[b] - pos[a]) % k
                if d not in (1, k - 1):
                    out.append((a, b))
        return out

    def canonical(self) -> "Cycle":
        """Rotate/reflect so the smallest vertex is first, smaller neighbor second."""
        vs = self.vertices
        k = len(vs)
        i = vs.index(min(vs))
        fwd = vs[i:] + vs[:i]
        rev = (fwd[0],) + tuple(reversed(fwd[1:]))
        return Cycle(self.graph, min(fwd, rev))


def cycle_from_paths(p: Path, q: Path) -> Cycle:
    """Close two internally disjoint paths with common endpoints into a cycle."""
    if {p.start, p.end} != {q.start, q.end}:
        raise GraphError("paths do not share endpoints")
    if q.start != p.end:
        q = q.reverse()
    return Cycle(p.graph, p.vertices + q.vertices[1:-1])


@dataclass(frozen=True)
class ThetaGraph:
    """Three internally vertex-disjoint paths between two branch vertices."""

    u: int
    v: int
    paths: tuple  # three Paths, each oriented u -> v

    def __post_init__(self):
        if len(self.paths) != 3:
            raise GraphError("theta-graph needs exactly three paths")
        seen = set()
        short = 0
        for p in self.paths:
            if (p.start, p.end) != (self.u, self.v):
                raise GraphError("theta path not oriented u -> v")
            inner = set(p.vertices[1:-1])
            if inner & seen:
                raise GraphError("theta paths not internally disjoint")
            seen |= inner
            if p.length == 1:
                short += 1
        if short > 1:
            raise GraphError("more than one length-1 path in theta-graph")

    @staticmethod
    def build(u: int, v: int, paths: Sequence[Path]) -> "ThetaGraph":
        oriented = []
        for p in paths:
            if p.start == v:
                p = p.reverse()
            oriented.append(p)
        return ThetaGraph(u, v, tuple(oriented))


def theta_even_cycle(t: ThetaGraph) -> Cycle:
    """The even cycle guaranteed inside a theta-graph.

    Among the three pairwise-union cycles (lengths a+b, a+c, b+c) at least
    one is even; ties break by shortest, then least canonical sequence.
    """
    cands = []
    for i in range(3):
        for j in range(i + 1, 3):
            c = cycle_from_paths(t.paths[i], t.paths[j].reverse())
            if c.length % 2 == 0:
                cc = c.canonical()
                cands.append((cc.length, cc.vertices, cc))
    if not cands:
        raise GraphError("theta-graph with no even cycle (impossible)")
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
    rest = g.n - len(set(removed))
    if rest <= 1:
        return True
    return len(components(g, frozenset(removed))) == 1


def bfs_path(g: Graph, sources, targets, forbidden=frozenset()) -> Optional[Path]:
    """Shortest path from any source to any target avoiding forbidden vertices.

    Internal vertices avoid both forbidden and (by first-hit stopping) the
    target set; deterministic via sorted expansion.
    """
    sources = sorted(set(sources) - set(forbidden))
    targets = set(targets)
    parent = {s: None for s in sources}
    queue = deque(sources)
    for s in sources:
        if s in targets:
            return Path(g, (s,))
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
                return Path(g, tuple(reversed(seq)))
            queue.append(w)
    return None


def spanning_tree(g: Graph, vertices) -> dict:
    """BFS spanning tree of the (connected) induced subgraph; parent map, root -> None."""
    vs = sorted(vertices)
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


def induced_subgraph(g: Graph, s) -> tuple:
    """Subgraph induced by vertex set s.

    Returns (graph, mapping) where mapping[i] is the original id of new
    vertex i (original ids in sorted order).
    """
    s = sorted(set(s))
    for v in s:
        if not (0 <= v < g.n):
            raise GraphError(f"unknown vertex id {v}")
    idx = {v: i for i, v in enumerate(s)}
    edges = [(idx[u], idx[v]) for u, v in g.edges if u in idx and v in idx]
    return Graph.build(len(s), edges), tuple(s)


@dataclass(frozen=True)
class ContractionRecord:
    """Bookkeeping for contracting a vertex set S into a single vertex s."""

    graph: Graph  # original graph
    vertex_map: dict  # original id -> contracted id (total on survivors and S)
    contracted_vertex: int  # id of s in the contracted graph
    preimage: frozenset  # S
    realizations: dict  # contracted neighbor id of s -> tuple of original endpoints in S

    def original_of(self, new_id: int) -> int:
        if new_id == self.contracted_vertex:
            raise GraphError("contracted vertex has no single preimage")
        return self._inverse[new_id]

    @cached_property
    def _inverse(self) -> dict:
        return {
            new: old
            for old, new in self.vertex_map.items()
            if new != self.contracted_vertex
        }


def contract(g: Graph, s) -> tuple:
    """Contract vertex set s into a single new vertex (no multi-edges).

    Survivors keep sorted order as ids 0..m-2; the contracted vertex gets
    id m-1.  Returns (contracted graph, ContractionRecord).
    """
    s = frozenset(s)
    if not s:
        raise GraphError("cannot contract an empty set")
    for v in s:
        if not (0 <= v < g.n):
            raise GraphError(f"unknown vertex id {v}")
    survivors = sorted(set(g.vertices) - s)
    new_id = {v: i for i, v in enumerate(survivors)}
    sid = len(survivors)
    vmap = dict(new_id)
    for v in s:
        vmap[v] = sid
    edges = set()
    realizations: dict = {}
    for u, v in g.edges:
        a, b = vmap[u], vmap[v]
        if a == b:
            continue
        edges.add(_norm_edge(a, b))
        if sid in (a, b):
            w = a if b == sid else b
            inside = u if vmap[u] == sid else v
            realizations.setdefault(w, []).append(inside)
    realizations = {w: tuple(sorted(ends)) for w, ends in realizations.items()}
    cg = Graph(sid + 1, frozenset(edges))
    return cg, ContractionRecord(g, vmap, sid, s, realizations)


def lift_path(rec: ContractionRecord, p: Path) -> tuple:
    """Lift a contracted-graph path back to the original graph.

    The contracted vertex may appear only as an endpoint; it is replaced by
    the smallest preimage vertex adjacent (in the original graph) to the
    path's next vertex.  Returns (lifted Path, chosen preimage or None).
    """
    sid = rec.contracted_vertex
    vs = p.vertices
    if sid in vs[1:-1]:
        raise GraphError("path visits the contracted vertex internally")
    if len(vs) == 1:
        if vs[0] == sid:
            chosen = min(rec.preimage)
            return Path(rec.graph, (chosen,)), chosen
        return Path(rec.graph, (rec.original_of(vs[0]),)), None
    if vs[0] == sid and vs[-1] == sid:
        raise GraphError("path touches the contracted vertex at both ends")
    if vs[-1] == sid:
        lifted, chosen = lift_path(rec, p.reverse())
        return lifted.reverse(), chosen
    if vs[0] == sid:
        nxt = vs[1]
        chosen = rec.realizations[nxt][0]
        seq = (chosen,) + tuple(rec.original_of(v) for v in vs[1:])
        return Path(rec.graph, seq), chosen
    seq = tuple(rec.original_of(v) for v in vs)
    return Path(rec.graph, seq), None


# ---------------------------------------------------------------------------
# blocks and cuts


@dataclass(frozen=True)
class Block:
    vertices: frozenset
    edges: frozenset

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
    """Biconnected components via the standard low-point depth-first search."""
    disc = [0] * g.n
    low = [0] * g.n
    timer = [1]
    cuts = set()
    edge_stack: list = []
    raw_blocks: list = []
    covered = set()

    def dfs(root):
        # iterative to survive deep graphs
        stack = [(root, None, iter(g.adj[root]))]
        disc[root] = low[root] = timer[0]
        timer[0] += 1
        children = {root: 0}
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if disc[w] == 0:
                    edge_stack.append(_norm_edge(v, w))
                    disc[w] = low[w] = timer[0]
                    timer[0] += 1
                    children[v] = children.get(v, 0) + 1
                    stack.append((w, v, iter(g.adj[w])))
                    advanced = True
                    break
                elif w != parent and disc[w] < disc[v]:
                    edge_stack.append(_norm_edge(v, w))
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            stack.pop()
            if parent is not None:
                low[parent] = min(low[parent], low[v])
                if low[v] >= disc[parent]:
                    if not (stack[0][0] == parent and len(stack) == 1):
                        cuts.add(parent)
                    elif children.get(parent, 0) > 1:
                        cuts.add(parent)
                    comp = []
                    while edge_stack:
                        e = edge_stack.pop()
                        comp.append(e)
                        if e == _norm_edge(parent, v):
                            break
                    raw_blocks.append(comp)

    for r in g.vertices:
        if disc[r] == 0:
            dfs(r)
            if edge_stack:  # leftover edges of the root's last block
                raw_blocks.append(list(edge_stack))
                edge_stack.clear()

    out = []
    for comp in raw_blocks:
        es = frozenset(comp)
        vs = frozenset(v for e in es for v in e)
        covered |= vs
        out.append(Block(vs, es))
    for v in g.vertices:  # isolated vertices form their own K1 blocks
        if v not in covered and g.degree(v) == 0:
            out.append(Block(frozenset([v]), frozenset()))
    out.sort(key=lambda b: sorted(b.vertices))
    return BlockDecomposition(tuple(out), frozenset(cuts))


def _min_cut_vertex(g: Graph, skip: Optional[int] = None) -> Optional[int]:
    """Smallest cut vertex of the connected graph g - skip, or None.

    One iterative low-point depth-first search.  `skip` gets a discovery
    time above every real one, so the search neither enters it nor lowers a
    low point through it, and g - skip is never built.
    """
    if g.n - (skip is not None) < 3:
        return None
    disc = [0] * g.n
    low = [0] * g.n
    if skip is not None:
        disc[skip] = g.n + 1
    root = 1 if skip == 0 else 0
    disc[root] = low[root] = 1
    timer = 2
    root_children = 0
    best = None
    stack = [(root, -1, iter(g.adj[root]))]
    while stack:
        v, parent, it = stack[-1]
        for w in it:
            if disc[w] == 0:
                disc[w] = low[w] = timer
                timer += 1
                stack.append((w, v, iter(g.adj[w])))
                break
            if w != parent and disc[w] < low[v]:
                low[v] = disc[w]
        else:
            stack.pop()
            if parent == root:
                root_children += 1
            elif parent >= 0:
                if low[v] >= disc[parent] and (best is None or parent < best):
                    best = parent
                if low[v] < low[parent]:
                    low[parent] = low[v]
    if root_children > 1 and (best is None or root < best):
        best = root
    return best


def connectivity_cut(g: Graph, k: int) -> Optional[frozenset]:
    """A vertex cut of size < k if one exists; None certifies k-connectedness
    for graphs with more than k vertices.  Supports k <= 3.

    The cut returned is the smallest one in lexicographic order: the
    smallest cut vertex, else the smallest pair {u, v} with u < v.  For
    k = 3 that is {u, smallest cut vertex of g - u} for the first u whose
    g - u has one: a cut {w, u} with w < u would have shown up at w, which
    is also why u = n - 1 needs no scan.  So there is one depth-first scan
    of g and one of g - u for each u < n - 1, n scans in all, at O(n + m)
    each: O(n(n + m)).
    """
    if k > 3:
        raise GraphError("connectivity_cut supports k <= 3 only")
    if not is_connected(g):
        raise GraphError("connectivity_cut requires a connected graph")
    if k <= 1:
        return None
    c = _min_cut_vertex(g)
    if c is not None:
        return frozenset([c])
    if k == 2:
        return None
    for u in range(g.n - 1):
        c = _min_cut_vertex(g, u)
        if c is not None:
            return frozenset([u, c])
    return None


# ---------------------------------------------------------------------------
# disjoint paths and fans (Menger via unit-vertex-capacity augmenting paths)


def _menger(g: Graph, a: frozenset, b: frozenset, k: int, supply: int = 1, allowed=None):
    """k paths from vertex set a to vertex set b, or a separator of size < k.

    Vertex v splits into v_in = 2v and v_out = 2v + 1, joined by an arc of
    capacity 1 (`supply` if v is in a).  The source 2n feeds every v_in of a
    with `supply`, every v_out of b drains into the sink 2n + 1 with capacity
    1, and every edge xy inside `allowed` (default: all vertices) gives the
    uncapacitated arcs x_out -> y_in and y_out -> x_in, except those that
    enter a or leave b.  At most k shortest augmenting paths, neighbours
    taken in increasing order.

    Returns (paths, None), the paths ordered by start vertex, running from a
    to b with no inner vertex in a | b and sharing no vertex but a start of
    supply > 1; or (None, separator), the vertices whose split arcs cross
    the minimum cut, fewer than k of them.
    """
    vs = g.vertices if allowed is None else frozenset(allowed)
    S, T = 2 * g.n, 2 * g.n + 1
    cap: dict = {}

    def add(x, y, c):
        cap[(x, y)] = c
        cap[(y, x)] = 0

    for v in vs:
        add(2 * v, 2 * v + 1, supply if v in a else 1)
        if v in a:
            add(S, 2 * v, supply)
        if v in b:
            add(2 * v + 1, T, 1)
    for x, y in g.edges:
        if x in vs and y in vs:
            if x not in b and y not in a:
                add(2 * x + 1, 2 * y, math.inf)
            if y not in b and x not in a:
                add(2 * y + 1, 2 * x, math.inf)
    nbrs: dict = {}
    for x, y in sorted(cap):
        nbrs.setdefault(x, []).append(y)

    flow = dict.fromkeys(cap, 0)
    for _ in range(k):
        parent = {S: None}
        queue = deque([S])
        while queue and T not in parent:
            x = queue.popleft()
            for y in nbrs.get(x, ()):
                if y not in parent and cap[(x, y)] - flow[(x, y)] > 0:
                    parent[y] = x
                    queue.append(y)
        if T not in parent:
            # the search reached exactly the source side of a minimum cut
            return None, frozenset(
                v
                for v in vs
                if (v in a or 2 * v in parent) and (v in b or 2 * v + 1 not in parent)
            )
        y = T
        while parent[y] is not None:
            x = parent[y]
            flow[(x, y)] += 1
            flow[(y, x)] -= 1
            y = x

    paths = []
    for s in sorted(a):
        for _ in range(flow.get((S, 2 * s), 0)):
            seq, x = [s], 2 * s + 1
            while True:
                y = next((y for y in nbrs[x] if y < S and flow[(x, y)] > 0), None)
                if y is None:
                    break
                flow[(x, y)] -= 1
                seq.append(y // 2)
                x = y + 1
            paths.append(Path(g, tuple(seq)))
    return paths, None


def disjoint_paths(g: Graph, a, b, k: int):
    """k pairwise vertex-disjoint a-b paths, or a separator of size < k.

    Returns (paths, None) on success and (None, separator) otherwise.  Paths
    have one endpoint in a, the other in b, and no internal vertex in a | b.
    """
    a, b = frozenset(a), frozenset(b)
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


def shortest_odd_cycle(g: Graph) -> Optional[Cycle]:
    """A shortest odd cycle (None if bipartite); the result is chordless."""
    best = None  # (length, start vertex, parent map of its search)
    for s in g.vertices:
        # BFS in the bipartite double cover from (s, 0) to (s, 1)
        dist = {(s, 0): 0}
        parent = {(s, 0): None}
        queue = deque([(s, 0)])
        while queue:
            v, p = queue.popleft()
            for w in g.adj[v]:
                nxt = (w, 1 - p)
                if nxt not in dist:
                    dist[nxt] = dist[(v, p)] + 1
                    parent[nxt] = (v, p)
                    queue.append(nxt)
        if (s, 1) in dist and (best is None or dist[(s, 1)] < best[0]):
            best = (dist[(s, 1)], s, parent)
    if best is None:
        return None
    length, s, parent = best
    seq = []
    node = (s, 1)
    while node is not None:
        seq.append(node[0])
        node = parent[node]
    seq = seq[:-1]  # drop the duplicate start
    cyc = Cycle(g, tuple(reversed(seq))).canonical()
    if cyc.length != length or cyc.length % 2 == 0:
        raise GraphError("internal: shortest odd closed walk is not simple")
    if cyc.chords():
        raise GraphError("internal: shortest odd cycle has a chord")
    return cyc
