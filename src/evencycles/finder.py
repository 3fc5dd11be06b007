"""Certifying algorithms extracted from the constructive proofs.

The original arguments run by minimal counterexample; here each one is a
construction over the structures the argument exposes, and the two that
hand a smaller instance to themselves, the main theorem (`_reduce`) and the
path theorem (`two_paths_diff_two`), are each one loop.  Whenever the argument
guarantees an object exists, the code asserts it and raises
InternalInvariantError if it is absent: on valid input such an error is a
bug, never a wrong answer.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from . import oracle
from .graphs import (
    BlockDecomposition,
    Cycle,
    Graph,
    GraphError,
    InternalInvariantError,
    Path,
    _block_search,
    _decomposition,
    _double_cover_walk,
    _menger,
    _palm_tree,
    _sparse_certificate,
    bfs_path,
    blocks,
    components,
    connectivity_cut,
    contract,
    cycle_from_paths,
    disjoint_paths,
    fan,
    induced_subgraph,
    is_bipartite,
    is_connected,
    shortest_odd_cycle,
    spanning_tree,
    theta_even_cycle,
    tree_path,
)
from .oracle import CyclePairCertificate, PathPairCertificate


class HypothesisFailure(Exception):
    """Input violates a theorem hypothesis; names the violated condition."""

    def __init__(self, name: str, detail: str = "", witness=None):
        super().__init__(f"{name}: {detail}" if detail else name)
        self.name = name
        self.detail = detail
        self.witness = witness


def _require(cond: bool, what: str):
    if not cond:
        raise InternalInvariantError(what)


def _certify(g, c1: Cycle, c2: Cycle) -> CyclePairCertificate:
    cert = CyclePairCertificate.make(c1, c2)
    ok, why = oracle.validate(cert, g)
    _require(ok, f"explicit construction invalid: {why}")
    return cert


@dataclass(frozen=True)
class K5BlockWitness:
    """Every block of the graph is a K5 and 4 divides n-1 (K1 is the b=0 case)."""

    decomposition: BlockDecomposition
    n: int
    e: int

    def __post_init__(self):
        if self.n % 4 != 1:
            raise GraphError("K5BlockWitness: n is not 1 mod 4")
        if 2 * self.e != 5 * (self.n - 1):
            raise GraphError("K5BlockWitness: e != 5(n-1)/2")
        if self.n > 1 and not all(b.is_k5() for b in self.decomposition.blocks):
            raise GraphError("K5BlockWitness: non-K5 block")

    @staticmethod
    def build(g: Graph) -> "K5BlockWitness":
        return K5BlockWitness(blocks(g), g.n, g.e)


@dataclass(frozen=True, kw_only=True)
class Outcome:
    """Trichotomy of the main theorem: certificate, K5-block witness, or
    a structured hypothesis-failure report.  Exactly one variant is set,
    and it names the kind."""

    certificate: Optional[CyclePairCertificate] = None
    witness: Optional[K5BlockWitness] = None
    failure: Optional[HypothesisFailure] = None

    def __post_init__(self):
        if sum(f is not None for f in (self.certificate, self.witness, self.failure)) != 1:
            raise GraphError("an Outcome must populate exactly one variant")

    @property
    def kind(self) -> str:
        if self.certificate is not None:
            return "certificate"
        return "k5-witness" if self.witness is not None else "hypothesis-failure"


# ---------------------------------------------------------------------------
# even cycles built from blocks and ears, in O(n + m)


def _block_even_cycle(g: Graph, ids, dec: BlockDecomposition) -> Optional[Cycle]:
    """An even cycle of g in the first block of dec that holds one, or None;
    dec holds the blocks of an induced subgraph whose vertex i is ids[i] in g.

    C is a shortest cycle through the block's smallest edge.  Unless C is
    the whole block, a short ear of C (a chord, or else the path closed by
    the first edge that a search from V(C) finds between two of its trees)
    makes a theta with C, and a theta holds an even cycle."""
    # a block has e >= v - 1, and holds an even cycle iff e > v or e = v is even
    blk = next((b for b in dec.blocks if len(b.edges) - len(b.vertices) >= len(b.vertices) % 2), None)
    if blk is None:
        return None
    inside = {ids[v] for v in blk.vertices}
    a, b = (ids[v] for v in min(blk.edges))
    outside = set(g.vertices) - inside
    p = bfs_path(g, [w for w in g.adj[a] if w in inside and w != b], {b}, outside | {a})
    c = Cycle(g, (a,) + p.vertices)
    if len(blk.edges) == len(blk.vertices):
        return c
    chords = c.chords()
    if chords:
        return _ear_even_cycle(c, Path(g, chords[0]))
    root, parent, queue = {v: v for v in c.vertices}, {}, list(c.vertices)
    for v in queue:  # the queue grows while it is read: a breadth-first search
        for w in g.adj[v]:
            if w not in inside:
                continue
            if w not in root:
                root[w], parent[w] = root[v], v
                queue.append(w)
            elif root[w] != root[v] and (v in parent or w in parent):  # not both on C
                left, right = [v], [w]  # each walked back to its root on C
                for seq in (left, right):
                    while seq[-1] in parent:
                        seq.append(parent[seq[-1]])
                return _ear_even_cycle(c, Path(g, tuple(left[::-1] + right)))
    raise InternalInvariantError("C misses a vertex of its 2-connected block, so it has an ear")


def _ear_even_cycle(c: Cycle, p: Path) -> Cycle:
    """The even cycle in c plus the path p, which joins two vertices of c
    and is otherwise disjoint from it."""
    u, v = p.start, p.end
    return theta_even_cycle([c.arc(u, v), c.arc(v, u), p])


def _mapped(p, ids, host: Graph):
    """The Path or Cycle p of a derived graph in its host, ids[i] being the
    host id of its vertex i."""
    return type(p)(host, tuple([ids[v] for v in p.vertices]))


def _cycle_walk(nbrs, start: int) -> tuple:
    """Vertex order of the cycle through start in a 2-regular graph given by
    its neighbour lists, stepping first to start's smaller neighbour."""
    order, prev, cur = [start], None, start
    while True:
        nxt = min(w for w in nbrs[cur] if w != prev)
        if nxt == start:
            return tuple(order)
        order.append(nxt)
        prev, cur = cur, nxt


def odd_even_arcs(c: Cycle, u: int, v: int) -> tuple:
    """The odd-length and even-length arcs of an odd cycle between u and v."""
    a, b = c.arc(u, v), c.arc(v, u).reverse()
    if a.length % 2 == 1:
        return a, b
    return b, a


def _odd_arc_length(c: Cycle, u: int, v: int) -> int:
    """The length of `odd_even_arcs(c, u, v)[0]`: of the two arcs, of
    lengths a and l(C) - a, the odd one."""
    a = c.arc_length(u, v)
    return a if a % 2 else c.length - a


# ---------------------------------------------------------------------------
# quasi-diagonal structure


@dataclass(frozen=True)
class QuasiDiagonalStructure:
    """Auxiliary graph on V(C) joining pairs at arc distance l/2 -+ 1.

    One cycle when l(C) = 0 mod 4; two disjoint odd cycles of equal length
    when l(C) = 2 mod 4.  Components are stored in auxiliary-cycle order.
    """

    cycle: Cycle
    components: tuple  # tuple of vertex tuples, each in aux-cycle traversal order

    def partners(self, v: int) -> tuple:
        k = self.cycle.length // 2
        i = self.cycle.index_of(v)
        vs = self.cycle.vertices
        return tuple(sorted({vs[(i + k - 1) % len(vs)], vs[(i + k + 1) % len(vs)]}))

    def is_quasi_diagonal(self, u: int, v: int) -> bool:
        return v in self.partners(u)

    def aux_edges(self):
        seen = set()
        for comp in self.components:
            m = len(comp)
            for i, v in enumerate(comp):
                w = comp[(i + 1) % m]
                seen.add((v, w) if v < w else (w, v))
        return sorted(seen)


def quasi_diagonal(c: Cycle) -> QuasiDiagonalStructure:
    if c.length % 2 != 0 or c.length < 4:
        raise GraphError("quasi_diagonal requires an even cycle of length >= 4")
    n = c.length
    k = n // 2
    vs = c.vertices
    succ = {}
    for i in range(n):
        succ[vs[i]] = (vs[(i + k - 1) % n], vs[(i + k + 1) % n])
    comps = []
    seen = set()
    for v in sorted(vs):
        if v not in seen:
            comps.append(_cycle_walk(succ, v))
            seen.update(comps[-1])
    struct = QuasiDiagonalStructure(c, tuple(comps))
    if n % 4 == 0:
        _require(len(comps) == 1, "Qdi(C) must be a single cycle when l = 0 mod 4")
    else:
        _require(
            len(comps) == 2
            and len(comps[0]) == len(comps[1])
            and len(comps[0]) % 2 == 1,
            "Qdi(C) must be two equal odd cycles when l = 2 mod 4",
        )
    return struct


# ---------------------------------------------------------------------------
# stabilized even cycle (improvement loop extracted from the connectivity proof)


def _stabilize_violation(g: Graph, c: Cycle):
    """None iff c satisfies all three postconditions.

    A C4 is exempt from the chord count: its chords always split it 2 + 2,
    and a doubly-chorded C4 (a K4) has no even cycle on a proper vertex
    subset, so no exchange is available or needed.
    """
    if not is_connected(g, c.vertex_set()):
        return "disconnected"
    if c.length == 4:
        return None
    ch = c.chords()
    if len(ch) > 1:
        return "chords"
    if ch:
        u0, v0 = ch[0]
        if c.arc_length(u0, v0) % 2 != 0:
            return "chords"
    return None


def _even_proper_subcycle(g: Graph, c: Cycle) -> Cycle:
    """A shorter even cycle on V(C), for an even C of length >= 6 with a
    chord that splits it into odd arcs, which closes either arc, or with
    two chords, which then split C into even arcs.  Crossing chords cut C
    into four arcs of one parity, and each pair of opposite arcs closes with
    both chords into an even cycle, one of them shorter than C.  Otherwise
    C with an arc of each chord, holding no end of the other, replaced by
    that chord is even and shorter."""
    chords = c.chords()
    for a, b in chords:
        if c.arc_length(a, b) % 2:
            return Cycle(g, c.arc(a, b).vertices)
    (a1, b1), (a2, b2) = chords[:2]
    for s, t in ((a1, b1), (b1, a1)):
        i = c.index_of(s)
        vs = c.vertices[i:] + c.vertices[:i]  # from s, with t at j
        j = vs.index(t)
        p, q = sorted((vs.index(a2), vs.index(b2)))
        if 0 < p < j < q:
            pair = (vs[: p + 1] + vs[j : q + 1][::-1], vs[p : j + 1] + (s,) + vs[q:][::-1])
            return Cycle(g, min(pair, key=len))
        if q <= j:  # the second chord lies on the arc s..t, so skip t..s and p..q
            return Cycle(g, vs[: p + 1] + vs[q : j + 1])
    raise InternalInvariantError("two chords cross, or one lies on an arc of the other")


def _fix_disconnected(g: Graph, c: Cycle, d: frozenset) -> Cycle:
    comps = components(g, c.vertex_set())
    danchor = min(d)
    fcomp = next(comp for comp in comps if danchor in comp)
    others = sorted(comp for comp in comps if comp is not fcomp)
    h = others[0]
    u = h[0]
    paths = fan(g, u, c.vertex_set(), 3, allowed=set(h) | c.vertex_set())
    _require(paths is not None, "3-connected graph must fan a stray component onto C")
    by_end = {p.end: p for p in paths}
    order = [v for v in c.vertices if v in by_end]  # cyclic order along C
    fset = set(fcomp)
    attach = {v for v in c.vertices if any(w in fset for w in g.adj[v])}
    extra = sorted(attach - by_end.keys())
    if extra:
        # rotate labels so the extra attachment lies on the excluded arc [v2, v0]
        v = extra[0]
        for shift in range(3):
            v0, v1, v2 = (order[shift % 3], order[(shift + 1) % 3], order[(shift + 2) % 3])
            arc_back = c.arc(v2, v0)
            if v in arc_back.vertices[1:-1]:
                break
        else:
            raise InternalInvariantError("attachment vertex not interior to any arc")
        p0, p1, p2 = by_end[v0], by_end[v1], by_end[v2]
        around = Cycle(g, p0.vertices + c.arc(v0, v2).vertices[1:] + p2.vertices[-2:0:-1])
        return _ear_even_cycle(around, p1)
    _require(attach == by_end.keys(), "N_C(F) must equal the three fan endpoints")
    v0, v1, v2 = order
    trip = [(v0, v1, v2), (v1, v2, v0), (v2, v0, v1)]
    for vi, vj, _vk in trip:
        arc = c.arc(vi, vj)
        pi, pj = by_end[vi], by_end[vj]
        length = arc.length + pi.length + pj.length
        if length % 2 == 0:
            seq = arc.vertices + tuple(reversed(pj.vertices))[1:] + pi.vertices[1:-1]
            return Cycle(g, seq)
    raise InternalInvariantError("parity identity: one of the three fan cycles is even")


def _stabilize_even_cycle(g: Graph, d: frozenset, c: Cycle) -> Cycle:
    """From the even cycle c avoiding the connected set d, an even cycle C
    avoiding d with: g - V(C) connected, at most one chord, and any chord
    splitting C into two even arcs.

    Improvement loop: each exchange strictly increases the measure
    (size of the component containing d, then -l(C)), so it terminates.
    """
    _require(c.length % 2 == 0 and not c.vertex_set() & d, "the start is even and avoids d")
    while True:
        kind = _stabilize_violation(g, c)
        if kind is None:
            return c
        if kind == "disconnected":
            c = _fix_disconnected(g, c, d)
        else:
            c = _even_proper_subcycle(g, c)


# ---------------------------------------------------------------------------
# quasi-diagonal combination


def combine_quasi_diagonal(b: Cycle, d: Cycle, connectors) -> CyclePairCertificate:
    """Close two consecutive-even-length cycles from an even cycle b, an odd
    cycle d, and connector path(s) with quasi-diagonal endpoints on b.

    Two connectors: b, d disjoint, both b-endpoints quasi-diagonal.
    One connector: b and d share one vertex u, which is the first connector
    as the one-vertex path (u,).
    """
    if b.length % 2 != 0 or d.length % 2 != 1:
        raise GraphError("combine_quasi_diagonal needs an even b and an odd d")
    g = b.graph
    qd = quasi_diagonal(b)
    bset, dset = b.vertex_set(), d.vertex_set()
    shared, connectors = bset & dset, list(connectors)
    if not connectors or len(shared) + len(connectors) != 2:
        raise GraphError("need two connectors, or one and exactly one shared vertex")
    oriented = [Path(g, (u,)) for u in shared]
    for p in connectors:
        if p.start in dset and p.end in bset:
            p = p.reverse()
        if p.start not in bset or p.end not in dset:
            raise GraphError("connector must join b to d")
        if set(p.vertices[1:-1]) & (bset | dset):
            raise GraphError("connector passes through b or d internally")
        oriented.append(p)
    p1, p2 = oriented
    if set(p1.vertices) & set(p2.vertices):
        raise GraphError("connectors are not disjoint")
    (s1, t1), (s2, t2) = (p1.start, p1.end), (p2.start, p2.end)
    if not qd.is_quasi_diagonal(s1, s2):
        raise GraphError(f"b-endpoints {s1}, {s2} are not quasi-diagonal")

    target = (b.length // 2 - 1) % 2
    chosen = None
    for arc in (d.arc(t1, t2), d.arc(t2, t1).reverse()):
        seq = p1.vertices + arc.vertices[1:] + tuple(reversed(p2.vertices))[1:]
        if (len(seq) - 1) % 2 == target:
            chosen = Path(g, seq)
            break
    _require(chosen is not None, "one d-arc must give the connector the right parity")
    c1 = cycle_from_paths(chosen, b.arc(s1, s2))
    c2 = cycle_from_paths(chosen, b.arc(s2, s1))
    return _certify(g, c1, c2)


# ---------------------------------------------------------------------------
# disjoint odd + even (tree-attachment and B-branch arguments)


def _pair_from_disjoint_odd_even(g: Graph, d: Cycle, start: Cycle) -> CyclePairCertificate:
    """Certificate from an odd cycle d and an even cycle `start` that avoids d."""
    c = _stabilize_even_cycle(g, d.vertex_set(), start)
    fset = frozenset(g.vertices) - c.vertex_set()

    if c.length == 4:
        paths, _ = disjoint_paths(g, c.vertex_set(), d.vertex_set(), 3)
        _require(paths is not None, "3 disjoint C-D paths in a 3-connected graph")
        # the paths start on C in increasing order; two starts at odd distance are adjacent
        pairs = combinations(paths, 2)
        pair = next(((p, q) for p, q in pairs if c.arc_length(p.start, q.start) % 2), None)
        _require(pair is not None, "two of three endpoints on a C4 must be adjacent")
        return combine_quasi_diagonal(c, d, pair)

    qd = quasi_diagonal(c)
    if c.length % 4 == 2:
        return _pair_tree_attachment(g, c, qd, fset)
    return _pair_b_branches(g, c, d, qd, fset)


def _pair_tree_attachment(g, c, qd, fset) -> CyclePairCertificate:
    """l(C) = 2 mod 4: attach the chord-free Qdi component to a spanning
    tree of F and pick the even cycle the parity identity guarantees."""
    chord = c.chords()
    if chord:
        u0, v0 = chord[0]
        q = next(comp for comp in qd.components if u0 not in comp and v0 not in comp)
    else:
        q = qd.components[0]
    k = c.length // 2
    _require(len(q) == k and k % 2 == 1, "Qdi component has length l(C)/2, odd")

    attach = {}
    for u in q:
        nbrs = [w for w in g.adj[u] if w in fset]
        _require(nbrs, f"Qdi-component vertex {u} must have a neighbor in F")
        attach[u] = min(nbrs)
    parent = spanning_tree(g, fset)

    cycles = []
    total_w = 0
    for i in range(k):
        ui, uj = q[i], q[(i + 1) % k]
        vi, vj = attach[ui], attach[uj]
        qi_seq = (ui,) + tree_path(parent, vi, vj) + (uj,)
        qpath = Path(g, qi_seq)
        total_w += qpath.length
        arc1 = c.arc(ui, uj)
        short, long_ = (arc1, c.arc(uj, ui).reverse())
        if short.length != k - 1:
            short, long_ = long_, short
        _require(short.length == k - 1 and long_.length == k + 1, "quasi-diagonal arcs")
        cycles.append((cycle_from_paths(short, qpath), cycle_from_paths(long_, qpath)))

    total = sum(ci.length for ci, _ in cycles)
    # parity identity: sum l(C_i) = (k-1) * l(C)/2 + l(W), which is even
    _require(total == (k - 1) * c.length // 2 + total_w, "parity identity value")
    _require(total % 2 == 0, "parity identity: sum of attachment cycles is even")
    for ci, ci_long in cycles:
        if ci.length % 2 == 0:
            return _certify(g, ci, ci_long)
    raise InternalInvariantError("parity identity guarantees an even attachment cycle")


def _pair_b_branches(g, c, d, qd, fset) -> CyclePairCertificate:
    """l(C) = 0 mod 4: find a quasi-diagonal pair whose F-neighbors live in
    distinct B-branches and route two disjoint paths to d through them."""
    # F is connected, so B, the block of F that holds D, is F if F is 2-connected
    fsub, fmap = induced_subgraph(g, fset)
    bblock = blocks(fsub).block_of_vertex_set(fmap.index(v) for v in d.vertex_set())
    bvertices = {fmap[v] for v in bblock.vertices}

    # B-branches: a vertex of B anchors itself, and each component of
    # F - V(B) hangs from exactly one vertex of the block B
    branch_of = {v: v for v in bvertices}
    for comp in components(g, frozenset(g.vertices) - (fset - bvertices)):
        anchors = {w for v in comp for w in g.adj[v] if w in bvertices}
        _require(len(anchors) == 1, "each B-branch contains exactly one B-vertex")
        (anchor,) = anchors
        for w in comp:
            branch_of[w] = anchor

    dset = d.vertex_set()
    for u1, u2 in qd.aux_edges():
        n1 = {branch_of[w] for w in g.adj[u1] if w in fset}
        n2 = {branch_of[w] for w in g.adj[u2] if w in fset}
        if not n1 or not n2 or (len(n1 | n2) == 1):
            continue
        ends = frozenset([u1, u2])
        paths, _ = _menger(g, ends, dset, 2, allowed=fset | ends)
        _require(paths is not None, "distinct B-branches must yield two disjoint paths")
        return combine_quasi_diagonal(c, d, paths)
    raise InternalInvariantError(
        "3-connectivity forces some quasi-diagonal pair into distinct B-branches"
    )


# ---------------------------------------------------------------------------
# one shared vertex


def pair_from_shared_vertex(g: Graph, b: Cycle, d: Cycle, u: int) -> CyclePairCertificate:
    """Certificate from an even cycle b and odd cycle d sharing exactly u, in
    a 3-connected graph g."""
    b, d = Cycle(g, b.vertices), Cycle(g, d.vertices)  # checked as cycles of g
    if b.length % 2 != 0 or d.length % 2 != 1:
        raise GraphError("need an even b and an odd d")
    if b.vertex_set() & d.vertex_set() != {u}:
        raise GraphError("cycles must share exactly the vertex u")
    _require_three_connected(g)
    return _pair_from_shared_vertex(g, b, d, u)


def _pair_from_shared_vertex(g: Graph, b: Cycle, d: Cycle, u: int) -> CyclePairCertificate:
    """pair_from_shared_vertex on a graph already known to be 3-connected."""
    dminus = d.vertex_set() - {u}
    c = _stabilize_even_cycle(g, dminus, b)
    if u not in c.vertex_set():
        return _pair_from_disjoint_odd_even(g, d, c)

    cset = c.vertex_set()

    def route(w):  # w, its least neighbour in F = g - V(C), then on to d - u in F
        nbrs = [x for x in g.adj[w] if x not in cset]
        if not nbrs:
            return None
        p = bfs_path(g, {min(nbrs)}, dminus, cset)
        _require(p is not None, "F is connected and contains d - u")
        return Path(g, (w,) + p.vertices)

    u1, u2 = quasi_diagonal(c).partners(u)
    for ui in (u1, u2):
        p = route(ui)
        if p is not None:
            return combine_quasi_diagonal(c, d, [p])

    # both quasi-diagonal partners of u are buried: u1u2 is the unique chord
    _require(c.length >= 6, "a C4 with buried partners would expose a 2-cut")
    _require(g.has_edge(u1, u2), "u1u2 must be the chord of C")
    i = c.index_of(u)
    vs = c.vertices
    u3cands = sorted((vs[(i + 1) % len(vs)], vs[(i - 1) % len(vs)]))
    u4 = vs[(i + len(vs) // 2) % len(vs)]
    for u3 in u3cands:
        p = route(u3)
        if p is None:
            continue
        ceven = _ear_even_cycle(d, Path(g, (u,) + p.vertices))
        tri = Cycle(g, (u1, u2, u4))
        _require(not (ceven.vertex_set() & tri.vertex_set()), "even cycle misses the chord triangle")
        return _pair_from_disjoint_odd_even(g, tri, ceven)
    raise InternalInvariantError("a C-neighbor of u must reach F")


# ---------------------------------------------------------------------------
# two disjoint odd cycles (cubic endgame)


def _two_disjoint_odd(g, b, fsub, fmap, fdec, dsub) -> CyclePairCertificate:
    """Certificate from an odd cycle b of g and an odd cycle dsub of
    F = g - V(b), given as fsub (fmap[i] the id in g of its vertex i) with
    its blocks fdec, none of them even."""
    fset = frozenset(fmap)
    dcycle = _mapped(dsub, fmap, g)

    if fset == dcycle.vertex_set() and fsub.e == dcycle.length:
        return _cubic_endgame(g, b, dcycle)

    # some end-block of F other than D yields a theta on B, hence an even
    # cycle disjoint from D
    dverts_sub = frozenset(dsub.vertices)
    cand = sorted(
        (sorted(blk.vertices), blk)
        for blk in fdec.end_blocks()
        if blk.vertices != dverts_sub
    )
    _require(cand, "F != D must expose an end-block other than D")
    dprime = cand[0][1]
    bset = b.vertex_set()
    if len(dprime.vertices) <= 2:
        noncut = sorted(dprime.vertices - fdec.cut_vertices) or sorted(dprime.vertices)
        v = fmap[noncut[0]]
        bn = sorted(w for w in g.adj[v] if w in bset)
        _require(len(bn) >= 2, "3-connectivity gives the end-block vertex two B-neighbors")
        ceven = _ear_even_cycle(b, Path(g, (bn[0], v, bn[1])))
    else:
        _require(
            len(dprime.edges) == len(dprime.vertices) and len(dprime.vertices) % 2 == 1,
            "blocks of an even-cycle-free graph are K1, K2, or odd cycles",
        )
        cuts = dprime.vertices & fdec.cut_vertices
        vcut = fmap[next(iter(cuts))] if cuts else None
        dverts = {fmap[x] for x in dprime.vertices} - ({vcut} if vcut is not None else set())
        cross = sorted(
            (u, w)
            for u, w in g.edges
            if (u in bset and w in dverts) or (w in bset and u in dverts)
        )
        oriented = [e if e[0] in bset else e[::-1] for e in cross]
        pairs = combinations(oriented, 2)
        pick = next(((e1, e2) for e1, e2 in pairs if e1[0] != e2[0] and e1[1] != e2[1]), None)
        _require(pick is not None, "two independent B to D'-v edges exist")
        (b1, w1), (b2, w2) = pick
        ring = {v: [w for w in fsub.adj[v] if w in dprime.vertices] for v in dprime.vertices}
        dprime_cycle = _mapped(Cycle(fsub, _cycle_walk(ring, min(ring))), fmap, g)
        arcs = [dprime_cycle.arc(w1, w2), dprime_cycle.arc(w2, w1).reverse()]
        if vcut is not None:
            arcs = [a for a in arcs if vcut not in a.vertices]
        else:
            arcs = sorted(arcs, key=lambda a: (a.length, a.vertices))[:1]
        _require(len(arcs) >= 1, "D' - v contains a w1-w2 path")
        ceven = _ear_even_cycle(b, Path(g, (b1,) + arcs[0].vertices + (b2,)))
    _require(not (ceven.vertex_set() & dcycle.vertex_set()), "even cycle disjoint from D")
    return _pair_from_disjoint_odd_even(g, dcycle, ceven)


def _cubic_endgame(g: Graph, b: Cycle, d: Cycle) -> CyclePairCertificate:
    """V(G) = V(B) + V(D), both induced odd cycles, and B a shortest odd
    cycle of g; degree/matching ladder."""
    # a vertex of B, then of D, with two neighbours on the other cycle closes
    # an even cycle; if there is none, each has one and they form a matching
    match = {}
    for x, y in ((b, d), (d, b)):
        yset = y.vertex_set()
        for u in sorted(x.vertex_set()):
            yn = sorted(w for w in g.adj[u] if w in yset)
            if len(yn) >= 2:
                ceven = _ear_even_cycle(y, Path(g, (yn[0], u, yn[1])))
                return _pair_from_shared_vertex(g, ceven, x, u)
            _require(yn, "B and D are induced, so degree >= 3 leaves a neighbour across")
            match[u] = yn[0]
    _require(b.length == d.length, "perfect matching forces equal cycle lengths")

    def cyc_edges(cyc: Cycle):
        vs = cyc.vertices
        return [tuple(sorted((vs[i], vs[(i + 1) % len(vs)]))) for i in range(len(vs))]

    b_lens = {e: _odd_arc_length(d, match[e[0]], match[e[1]]) for e in cyc_edges(b)}
    d_lens = {e: _odd_arc_length(b, match[e[0]], match[e[1]]) for e in cyc_edges(d)}

    if all(v == 1 for v in b_lens.values()):
        u, v, w = b.vertices[:3]
        c4 = Cycle(g, (u, v, match[v], match[u]))
        c6 = Cycle(g, (u, v, w, match[w], match[v], match[u]))
        return _certify(g, c4, c6)

    _require(
        max(*b_lens.values(), *d_lens.values()) <= 3,
        "an odd arc of length a >= 5 between the partners of an edge uv closes, with uv "
        "and the other arc, an odd cycle of length L - a + 3 < L = l(B), the shortest",
    )

    uv = next(e for e, val in sorted(b_lens.items()) if val == 3)
    u, v = uv
    do = odd_even_arcs(d, match[u], match[v])[0]
    if do.start != match[u]:
        do = do.reverse()
    c6 = Cycle(g, (u, v) + tuple(reversed(do.vertices)))
    _require(c6.length == 6, "length-3 arc closes a C6")

    short = [e for lens in (b_lens, d_lens) for e, val in sorted(lens.items()) if val == 1]
    if short:
        e = short[0]
        return _certify(g, Cycle(g, (e[0], e[1], match[e[1]], match[e[0]])), c6)

    _require(
        all(val == 3 for val in b_lens.values()) and all(val == 3 for val in d_lens.values()),
        "remaining ladder has all odd arcs of length 3",
    )
    uprime, a, bb, vprime = do.vertices
    _require((uprime, vprime) == (match[u], match[v]), "odd arc orientation")
    bo_ua = odd_even_arcs(b, u, match[a])[0]
    _require(bo_ua.length == 3, "B-side odd arc has length 3")
    if v not in bo_ua.vertex_set():
        seq = bo_ua.vertices if bo_ua.start == u else tuple(reversed(bo_ua.vertices))
        c8 = Cycle(g, seq + (a, bb, vprime, v))
    else:
        bo_vb = odd_even_arcs(b, v, match[bb])[0]
        _require(bo_vb.length == 3, "B-side odd arc has length 3")
        _require(u not in bo_vb.vertex_set(), "both long arcs through u and v is impossible")
        seq = bo_vb.vertices if bo_vb.start == v else tuple(reversed(bo_vb.vertices))
        c8 = Cycle(g, seq + (bb, a, uprime, u))
    return _certify(g, c6, c8)


# ---------------------------------------------------------------------------
# 3-connected pipeline


def three_connected_pair(g: Graph) -> CyclePairCertificate:
    """Two cycles of consecutive even lengths in a 3-connected graph, n >= 6."""
    if g.n < 6:
        raise HypothesisFailure("order", f"need n >= 6, got {g.n}")
    _require_three_connected(g)
    return _three_connected_pair(g)


def _require_three_connected(g: Graph) -> None:
    try:
        cut = connectivity_cut(g, 3)
    except GraphError as exc:
        raise HypothesisFailure("connectivity", "graph is disconnected") from exc
    if cut is not None:
        raise HypothesisFailure("connectivity", "graph is not 3-connected", witness=cut)


def _three_connected_pair(g: Graph) -> CyclePairCertificate:
    """three_connected_pair on a graph already known to be 3-connected, n >= 6."""
    d = shortest_odd_cycle(g)
    if d is None:
        # bipartite: x-y paths of lengths k, k + 2 (k odd) close with xy to even cycles
        x, y = min(g.edges)
        ppc = _path_theorem(g, x, y, "a bipartite 3-connected graph")
        return _certify(g, Cycle(g, ppc.p1.vertices), Cycle(g, ppc.p2.vertices))

    sub, ids = induced_subgraph(g, frozenset(g.vertices) - d.vertex_set())
    dec = blocks(sub)
    c = _block_even_cycle(g, ids, dec)
    if c is not None:
        return _pair_from_disjoint_odd_even(g, d, c)
    dsub = shortest_odd_cycle(sub)
    if dsub is not None:
        return _two_disjoint_odd(g, d, sub, ids, dec, dsub)

    # g - V(D) is a forest
    comps = sorted(components(g, d.vertex_set()), key=lambda c: (-len(c), c))
    rank = {w: i for i, comp in enumerate(comps) for w in comp}
    for v in sorted(d.vertex_set()):
        nbrs = {}  # component rank -> the neighbours of v in it, sorted
        for w in g.adj[v]:
            if w in rank:
                nbrs.setdefault(rank[w], []).append(w)
        i = min((i for i, ws in nbrs.items() if len(ws) >= 3), default=None)
        if i is not None:
            ceven = _theta_into_tree(g, v, nbrs[i][:3], comps[i])
            return _pair_from_shared_vertex(g, ceven, d, v)

    fcomp = comps[0]
    if d.length == 3:
        return _triangle_case(g, d, comps)
    return _long_odd_case(g, d, fcomp)


def _theta_into_tree(g, v: int, ws, comp) -> Cycle:
    """Even cycle through v made from three tree paths meeting at the median."""
    parent = spanning_tree(g, comp)
    p12 = set(tree_path(parent, ws[0], ws[1]))
    p13 = set(tree_path(parent, ws[0], ws[2]))
    p23 = set(tree_path(parent, ws[1], ws[2]))
    meet = p12 & p13 & p23
    _require(len(meet) == 1, "tree median of three vertices is unique")
    m = next(iter(meet))
    paths = [Path(g, (v,) + tree_path(parent, w, m)) for w in ws]
    return theta_even_cycle(paths)


def _tree_leaves(g, comp) -> list:
    cs = set(comp)
    return sorted(v for v in comp if len([w for w in g.adj[v] if w in cs]) <= 1)


def _triangle_case(g, d: Cycle, comps) -> CyclePairCertificate:
    """Shortest odd cycle is a triangle; explicit C4 + C6 constructions."""
    v1, v2, v3 = sorted(d.vertex_set())
    fcomp = comps[0]
    leaves = _tree_leaves(g, fcomp)
    u = leaves[0]
    un = sorted(w for w in g.adj[u] if w in d.vertex_set())
    _require(len(un) >= 2, "every leaf of F has two triangle neighbors")
    vi, vj = un[0], un[1]
    (vk,) = {v1, v2, v3} - {vi, vj}
    c4 = Cycle(g, (u, vi, vk, vj))

    size = len(fcomp)
    if size == 1:
        _require(all(len(cmp) == 1 for cmp in comps), "max component K1 makes all K1")
        outside = sorted(set(g.vertices) - d.vertex_set())
        _require(len(outside) >= 3, "n >= 6 leaves three vertices off the triangle")
        for x in outside:
            _require(
                set(g.adj[x]) >= {v1, v2, v3},
                "isolated vertices are adjacent to the whole triangle",
            )
        u1, u2, u3 = outside[:3]
        c6 = Cycle(g, (u1, v1, u2, v2, u3, v3))
        return _certify(g, c4, c6)
    if size == 2:
        _require(len(comps) >= 2, "n >= 6 forces a second component")
        u1, u2 = fcomp
        nd = set(un) | {w for w in g.adj[u2 if u == u1 else u1] if w in d.vertex_set()}
        _require(nd == {v1, v2, v3}, "K2 component covers the whole triangle")
        # u1, u2 each miss at most one triangle vertex, and not the same one
        u3 = comps[1][0]
        va, vb = sorted(w for w in g.adj[u3] if w in d.vertex_set())[:2]
        (vc,) = {v1, v2, v3} - {va, vb}
        ui, uj = (u1, u2) if g.has_edge(va, u1) and g.has_edge(u2, vc) else (u2, u1)
        return _certify(g, c4, Cycle(g, (u3, va, ui, uj, vc, vb)))
    if size in (3, 4):
        u1, u2 = leaves[0], leaves[1]
        parent = spanning_tree(g, fcomp)
        pseq = tree_path(parent, u1, u2)
        va = min(w for w in g.adj[u1] if w in d.vertex_set())
        vbs = sorted(w for w in g.adj[u2] if w in d.vertex_set() and w != va)
        _require(vbs, "second leaf has a triangle neighbor avoiding va")
        vb = vbs[0]
        if len(pseq) == 3:
            (vc,) = {v1, v2, v3} - {va, vb}
            c6 = Cycle(g, pseq + (vb, vc, va))
        else:
            _require(len(pseq) == 4, "tree path between leaves has length 2 or 3")
            c6 = Cycle(g, pseq + (vb, va))
        return _certify(g, c4, c6)
    raise InternalInvariantError("component of order >= 5 contradicts the degree count")


def _long_odd_case(g, d: Cycle, fcomp) -> CyclePairCertificate:
    """Shortest odd cycle of length >= 5; leaf-neighbor analysis."""
    k = d.length
    _require(len(fcomp) >= 2, "a singleton component would shorten the odd cycle")
    leaves = _tree_leaves(g, fcomp)
    dset = d.vertex_set()
    for leaf in leaves:
        nd = sorted(w for w in g.adj[leaf] if w in dset)
        _require(len(nd) == 2, "each leaf has exactly two neighbors on D")
        a, bvert = nd
        _require(
            d.arc_length(a, bvert) == 2 or d.arc_length(bvert, a) == 2,
            "leaf neighbors sit at distance two on D",
        )
    u = leaves[0]
    a, bvert = sorted(w for w in g.adj[u] if w in dset)
    if d.arc_length(a, bvert) == 2:
        v1, v3 = a, bvert
    else:
        v1, v3 = bvert, a
    i = d.index_of(v1)
    vs = d.vertices[i:] + d.vertices[:i]  # v1 v2 ... vk in orientation order
    v2 = vs[1]
    _require(vs[2] == v3, "relabeling puts u's neighbors at positions 1 and 3")
    c4 = Cycle(g, (u, v1, v2, v3))

    parent = spanning_tree(g, fcomp)
    fset = set(fcomp)
    for idx in range(3, k):  # positions v4 .. vk
        vi = vs[idx]
        fnbrs = sorted(w for w in g.adj[vi] if w in fset)
        if not fnbrs:
            continue
        u1 = fnbrs[0]
        pseq = tree_path(parent, u, u1)
        rev = tuple(reversed(pseq))[:-1]  # u1 ... back toward u, excluding u
        c1 = Cycle(g, (u,) + tuple(vs[2 : idx + 1]) + rev)
        c2 = Cycle(g, (u, vs[0]) + tuple(reversed(vs[idx:])) + rev)
        _require((c1.length + c2.length) % 2 == 1, "cycle pair has odd total length")
        if c1.length % 2 == 0:
            c1p = Cycle(g, (u,) + tuple(vs[: idx + 1]) + rev)
            return _certify(g, c1, c1p)
        c2p = Cycle(g, (u, vs[2], vs[1], vs[0]) + tuple(reversed(vs[idx:])) + rev)
        return _certify(g, c2, c2p)

    _require(len(leaves) == 2, "F is a path: exactly two leaves")
    uprime = leaves[1]
    _require(
        sorted(w for w in g.adj[uprime] if w in dset) == sorted((v1, v3)),
        "second leaf attaches to the same two D-vertices",
    )
    for w in fset - {u, uprime}:
        _require(
            sorted(x for x in g.adj[w] if x in dset) == [v2],
            "interior path vertices attach exactly to v2",
        )
    if len(fcomp) == 2:
        _require(k == 5, "a C5 through F forces the shortest odd cycle to be 5")
        c6 = Cycle(g, (u, v1, vs[4], vs[3], v3, uprime))
        return _certify(g, c4, c6)
    if len(fcomp) == 3:
        (w,) = fset - {u, uprime}
        c6 = Cycle(g, (u, v1, v2, v3, uprime, w))
        return _certify(g, c4, c6)
    raise InternalInvariantError("interior vertices all on v2 force |F| <= 3")


# ---------------------------------------------------------------------------
# two x-y paths differing by two (the 2-cut theorem as one reduction loop)


def _two_connected_with(g: Graph, x: int, y: int) -> bool:
    """Whether g + xy is 2-connected: one search of g that reads xy as an
    edge reaches every vertex and finds no cut vertex."""
    _, _, _, reached, cut = _palm_tree(g, extra=(x, y))
    return g.n >= 3 and cut is None and reached == g.n


def _check_path_hypotheses(g: Graph, x: int, y: int) -> Graph:
    """g - xy, once (g, x, y) is checked against the hypotheses of
    two_paths_diff_two; HypothesisFailure names the first one violated."""
    n = g.n
    if not (isinstance(x, int) and isinstance(y, int) and x != y and 0 <= x < n and 0 <= y < n):
        raise HypothesisFailure("terminals", f"bad terminal pair ({x!r}, {y!r})")
    if not (g._two_connected or _two_connected_with(g, x, y)):  # g + xy is, if g is
        raise HypothesisFailure("2-connectivity", "g + xy is not 2-connected")
    adj = g.adj
    deg = [len(row) for row in adj]
    for v, dv in enumerate(deg):
        if dv < 3 and v != x and v != y:
            raise HypothesisFailure("minimum degree", f"vertex {v} has degree {dv}")
    h = g.without_edge(x, y)
    for u in g.vertices:  # the edges uv, u < v, in sorted order
        if u == x or u == y:
            continue
        for v in adj[u]:
            if v > u and v != x and v != y and deg[u] + deg[v] < 7:
                # Bondy-Vince: two x-y paths differ by one or two, and by two
                # when g - xy is bipartite, since then all have one parity
                if is_bipartite(h)[0]:
                    return h
                raise HypothesisFailure(
                    "edge degree sum", f"edge ({u}, {v}) has degree sum < 7"
                )
    return h


def _paths_base_case(h: Graph, x: int, y: int) -> PathPairCertificate:
    reps = oracle.xy_path_lengths(h, x, y, size_guard=h.n)
    for length in sorted(reps):
        if length + 2 in reps:
            return PathPairCertificate.make(x, y, reps[length], reps[length + 2])
    raise InternalInvariantError("base case admits two x-y paths differing by two")


def _path_theorem(g: Graph, x: int, y: int, where: str) -> PathPairCertificate:
    """two_paths_diff_two on an instance the proof shows meets its hypotheses."""
    try:
        return two_paths_diff_two(g, x, y)
    except HypothesisFailure as exc:
        raise InternalInvariantError(f"{where} must satisfy the path theorem: {exc}") from exc


def two_paths_diff_two(g: Graph, x: int, y: int) -> PathPairCertificate:
    """Two x-y paths in g - xy whose lengths differ by two.

    Hypotheses (validated, HypothesisFailure otherwise): g + xy 2-connected,
    every vertex besides x, y has degree >= 3, and every edge avoiding
    {x, y} has degree sum >= 7.  The degree-sum condition is waived when
    g - xy is bipartite: by the Bondy-Vince path lemma two x-y paths then
    differ by one or two, and since all x-y paths of a bipartite graph have
    one parity, they differ by two.

    The minimal-counterexample proof runs as one loop over instances
    (h, x, y), h = g - xy: a step finds the two paths, or hands on a smaller
    instance that meets the hypotheses by construction with the lift of its
    paths into h.  Only the input is checked, and only the lifted
    certificate is validated.
    """
    h0 = h = _check_path_hypotheses(g, x, y)
    x0, y0 = x, y
    lifts = []  # (x of the smaller instance, its lift), outermost first
    while True:
        if h.degree(y) < h.degree(x):
            x, y = y, x
        if h.n <= 5:
            step = _paths_base_case(h, x, y)
        else:
            four = _four_cycle_through(h, x, y)
            step = _paths_case_four_cycle(h, x, y, four) if four else _paths_case_contract(h, x, y)
        if isinstance(step, PathPairCertificate):
            break
        sub, x, y, lift = step
        lifts.append((x, lift))
        h = sub.without_edge(x, y)
    if lifts or x != x0:  # else the step's certificate is already the answer
        paths = (step.p1, step.p2)
        for start, lift in reversed(lifts):
            paths = [lift(p if p.start == start else p.reverse()) for p in paths]
        step = PathPairCertificate.make(x0, y0, *paths)
    ok, why = oracle.validate(step, h0)
    _require(ok, f"path-pair certificate invalid: {why}")
    return step


def _four_cycle_through(h: Graph, x: int, y: int):
    """Smallest (x1, a, x2) with x x1 a x2 x a 4-cycle in h - y, else None."""
    xn = [v for v in h.adj[x] if v != y]
    for i, x1 in enumerate(xn):
        for x2 in xn[i + 1 :]:
            for a in h.adj[x1]:
                if a not in (x, y, x2) and h.has_edge(a, x2):
                    return (x1, a, x2)
    return None


def _paths_case_four_cycle(h, x, y, four):
    """The 4-cycle x x1 a x2 of h - y, with F the component of y in
    h - {x, x1, a, x2}: the two paths if x1 or x2 sees F, else the instance
    (h - F, x, a), whose paths go on to y through F.  F attaches to x and a
    only then, so h - F keeps the degree of every other vertex."""
    x1, a, x2 = four
    stop = {x, x1, a, x2}
    parent, queue = {y: None}, [y]  # F by one search from y, which enters no stop vertex
    for v in queue:
        for w in h.adj[v]:
            if w not in parent:
                parent[w] = v  # for a stop vertex, its first neighbour in F
                if w not in stop:
                    queue.append(w)
    for near, far in ((x1, x2), (x2, x1)):
        if near in parent:  # the tree path is a shortest near-y path through F
            p = tree_path(parent, near, y)
            return PathPairCertificate.make(x, y, Path(h, (x, *p)), Path(h, (x, far, a, *p)))
    _require(a in parent, "2-connectivity forces a to reach y through F")
    tail = tree_path(parent, a, y)[1:]
    sub, ids = induced_subgraph(h, set(h.vertices).difference(queue))
    sx, sa = ids.index(x), ids.index(a)
    _require(_two_connected_with(sub, sx, sa), "h - F plus the edge xa is 2-connected")
    return sub, sx, sa, lambda q: Path(h, tuple(ids[v] for v in q.vertices) + tail)


def _paths_case_contract(h, x, y):
    """Contract x and X = N(x) into x* and hand on (G*, x*, y*) if G* + x*y*
    is 2-connected, else the block of y*, else the endgame.  No vertex but y
    has two neighbours in X, or h has a 4-cycle through x, so every other
    vertex keeps its degree; X is independent if h is bipartite."""
    xs = h.adj[x]
    xset = frozenset(xs)
    gstar, ids = contract(h, xset | {x})
    xstar, ystar = gstar.n - 1, ids.index(y)

    def lift(vs):  # the vertices of an x*-y* path of G* to an x-y path of h
        rest = [ids[v] for v in vs[1:]]  # entered from the least x_i next to rest[0]
        return Path(h, (x, next(w for w in h.adj[rest[0]] if w in xset), *rest))

    if _two_connected_with(gstar, xstar, ystar):
        return gstar, xstar, ystar, lambda q: lift(q.vertices)

    # G* + x*y* is h + xy with the connected set {x} + X contracted, so x*
    # is its only cut vertex; G* itself may have more on the way to y*
    gplus = gstar.with_edge(xstar, ystar)
    dec = blocks(gplus)
    _require(
        dec.cut_vertices == frozenset([xstar]),
        "x* is the only cut vertex of the contracted graph",
    )
    bblock = next(b for b in dec.blocks if ystar in b.vertices)
    if len(bblock.vertices) >= 3:  # a block of 3 or more vertices is 2-connected
        bsub, mapb = induced_subgraph(gplus, bblock.vertices)
        bx, by = len(mapb) - 1, mapb.index(ystar)  # x* is the last vertex
        return bsub, bx, by, lambda q: lift([mapb[v] for v in q.vertices])

    # B = x*y endgame: N(y) = X = N(x); route through another block
    _require(h.adj[y] == xs, "endgame forces N(y) = N(x) = X")
    others = sorted((sorted(b.vertices), b) for b in dec.blocks if b.vertices != bblock.vertices)
    _require(others, "G* has a block besides x*y")
    dprime = others[0][1]
    _require(
        len(dprime.vertices) >= 3,
        "a K2 block besides x*y would hide a degree-1 vertex",
    )
    dverts_h = {ids[v] for v in dprime.vertices if v != xstar}
    attach = [v for v in xs if any(w in dverts_h for w in h.adj[v])]
    _require(len(attach) >= 2, "at least two X-vertices see the block D")
    u1 = attach[0]
    g1, mapg1 = induced_subgraph(h, xset | dverts_h)
    g1c, ids1 = contract(g1, (i for i, v in enumerate(mapg1) if v in xset and v != u1))
    ids1 = [mapg1[v] for v in ids1]  # the ids of the survivors in h
    u1c, u2c = ids1.index(u1), g1c.n - 1

    def lift_end(q):  # a u1-X path of the block D plus X, closed by x and y
        rest = [ids1[v] for v in q.vertices[-2::-1]]  # ... u1, X left at the least x_i seen
        xi = next(w for w in h.adj[rest[0]] if w in xset and w != u1)
        return Path(h, (x, xi, *rest, y))

    return g1c, u1c, u2c, lift_end


# ---------------------------------------------------------------------------
# main theorem and corollary


def main_theorem(g: Graph) -> Outcome:
    """Certificate or K5-block witness for any graph with e >= 5(n-1)/2.

    The reduction is one loop over vertex sets of g (`_reduce`), so the
    call stack does not grow with the input, and it splits a graph with a
    cut vertex into its blocks at once, so a tree of K5 blocks costs one
    low-point search and one pass over its blocks; a 3-connected level
    runs its proof on its sparse certificate, at most 3(n - 1) edges."""
    if g.n == 0:
        return Outcome(failure=HypothesisFailure("order", "empty graph"))
    if 2 * g.e < 5 * (g.n - 1):
        detail = f"e = {g.e} < 5(n-1)/2 = {5 * (g.n - 1) / 2}"
        return Outcome(failure=HypothesisFailure("density", detail))
    return _reduce(g)


def _slack(g: Graph, s: set) -> int:
    """2e - 5(n - 1) for the subgraph of g induced by the vertex set s."""
    return sum(w in s for v in s for w in g.adj[v]) - 5 * (len(s) - 1)


def _reduce(g: Graph) -> Outcome:
    """The reduction behind main_theorem, as one loop over vertex sets s of g.

    induced_subgraph numbers G[s] by s in sorted order, so G[s] is the same
    however s was reached (G[V(g)] is g itself), and a certificate found in
    it is lifted to g once.  no_witness is the invariant a K5-block witness
    for G[s] would break.  At a cut vertex the slack of G[s] is the sum of
    the slacks 2e - 5(n - 1) of its blocks, so some block is dense: a dense
    block other than K5 is reduced next, and if there is none every block is
    a K5.  A witness is the end of the search unless a low-sum edge uv was
    removed on the way; the last such edge then gives a certificate in the
    blocks around it.  A level with n > 5 asks, in this order: is G[s]
    connected, can a vertex of degree <= 2 go (`_peel`), is there a low-sum
    edge, is there a cut vertex, and if not, which is the smallest
    separation pair.  If its degree list says a vertex or an edge goes,
    `components` answers the first question; else one low-point search
    (`_block_search`) answers the first and the fourth (`components` runs
    only if h is disconnected), and its blocks become `Block`s only if
    there is a cut vertex.  The search, the cut and the 3-connected proof
    read the sparse certificate H of h, which keeps its cuts of <= 2
    vertices; the blocks, dense or not by the edges of h, and `_two_cut`
    read h."""
    s, no_witness, edge = frozenset(g.vertices), None, None
    while True:
        h, ids = (g, range(g.n)) if len(s) == g.n else induced_subgraph(g, s)
        _require(2 * h.e >= 5 * (h.n - 1), "recursion must preserve the density hypothesis")
        if h.n > 5:
            deg = [len(row) for row in h.adj]
            peel = min(deg) <= 2
            low = None if peel else next(((u, v) for u, row in enumerate(h.adj) if deg[u] == 3
                                          for v in row if v > u and deg[u] + deg[v] <= 6), None)
            sparse = None if peel or low else _sparse_certificate(h)
            search = None if sparse is None else _block_search(sparse, (0,))
            if search is None or search[2] < h.n:  # is h connected?
                comps = components(h)
                if len(comps) > 1:
                    best = max(comps, key=lambda c: _slack(h, set(c)))
                    s, no_witness = {ids[v] for v in best}, "slackest component cannot be extremal"
                    continue
            if peel:  # a vertex of degree <= 2 goes
                s, no_witness = {ids[v] for v in _peel(h, deg)}, "low-degree removal cannot leave a witness"
                continue
            if low:  # the least low-sum edge, since the rows are sorted
                edge = ids[low[0]], ids[low[1]]
                s, no_witness = s - set(edge), None
                continue
            if not search[1]:  # h is 2-connected: is it 3-connected?
                cut = connectivity_cut(sparse, 3)
                cert = _three_connected_pair(sparse) if cut is None else _two_cut(h, cut)
                return Outcome(certificate=_lift(cert, ids, g))
            closed, cuts, _ = search if sparse is h else _block_search(h, (0,))
            dec = _decomposition(closed, cuts)
            others = [b for b in dec.blocks if not b.is_k5()]
            dense = next((b for b in others if 2 * len(b.edges) >= 5 * (len(b.vertices) - 1)), None)
            if dense is not None:
                s = {ids[v] for v in dense.vertices}
                no_witness = "a dense block other than K5 cannot be extremal"
                continue
            _require(not others, "a dense graph with no dense non-K5 block has only K5 blocks")
            wit = K5BlockWitness(dec, h.n, h.e)
        else:  # 2e >= 5(n - 1) leaves only K1 and K5 at n <= 5
            wit = K5BlockWitness.build(h)
        _require(no_witness is None, no_witness)
        if edge is None:
            return Outcome(witness=wit)
        # the pair that uv creates is in the blocks of G[s] around it
        nbrs = set(g.adj[edge[0]]) | set(g.adj[edge[1]])
        blks = ({ids[w] for w in b.vertices} for b in wit.decomposition.blocks)
        sub, ids = induced_subgraph(g, set(edge).union(*(b for b in blks if b & nbrs)))
        cert = oracle.find_consecutive_even_pair_bf(sub, sub.n)
        _require(cert is not None, "reinserted edge must create a consecutive even pair")
        return Outcome(certificate=_lift(cert, ids, g))


def _peel(h: Graph, deg: list) -> set:
    """The vertices of the connected graph h left by deleting its smallest
    vertex of least degree while that degree is <= 2 and n > 5, up to the
    first deletion that may disconnect h (degree 2, neighbours apart).  deg
    is the degree list of h; it is read, not changed."""
    keep = set(h.vertices)
    deg = deg[:]
    heap = [(d, v) for v, d in enumerate(deg)]
    heapq.heapify(heap)
    while len(keep) > 5:
        d, v = heapq.heappop(heap)
        if v not in keep or d != deg[v]:
            continue  # an entry of a deleted vertex or of an old degree
        if d > 2:
            break
        keep.remove(v)
        nbrs = [w for w in h.adj[v] if w in keep]
        for w in nbrs:
            deg[w] -= 1
            heapq.heappush(heap, (deg[w], w))
        if d == 2 and not h.has_edge(*nbrs):
            break
    return keep


def _lift(c: CyclePairCertificate, ids, g: Graph) -> CyclePairCertificate:
    """c, found in G[s] with ids[i] the id in g of its vertex i, in g."""
    return CyclePairCertificate.make(_mapped(c.c1, ids, g), _mapped(c.c2, ids, g))


def _two_cut(g: Graph, cut) -> CyclePairCertificate:
    """Certificate from x-y paths on the two sides of the 2-cut {x, y}.

    Both sides H1 (g minus the smallest component of g - {x, y}) and H2
    (that component with x and y) meet the path theorem's hypotheses, so
    each has x-y paths of lengths k and k + 2.  An x-y path of the parity of
    k on the other side closes them into two even cycles of lengths
    differing by two.  A side with an odd cycle has x-y paths of both
    parities (`_parity_path`).  If neither side has one, the pair of one side
    closes with a path of the other when their parities agree, and else the
    edge xy, if present, closes the pair of odd parity.  Only two bipartite
    sides of opposite parities and no edge xy are left to the oracle."""
    x, y = sorted(cut)
    comps = sorted(components(g, frozenset([x, y])), key=lambda c: (len(c), c))
    small = set(comps[0])
    sides = []  # (side, its ids in g, the ids of x and y in it)
    for vs in (set(g.vertices) - small, small | {x, y}):
        h, ids = induced_subgraph(g, vs)
        sides.append((h, ids, ids.index(x), ids.index(y)))

    def pair(i):
        h, ids, hx, hy = sides[i]
        ppc = _path_theorem(h, hx, hy, f"side H{i + 1} of a 2-cut")
        return _mapped(ppc.p1, ids, g), _mapped(ppc.p2, ids, g)

    def close(p, q1, q2):
        return _certify(g, cycle_from_paths(p, q1), cycle_from_paths(p, q2))

    for i, j in ((0, 1), (1, 0)):
        h, ids, hx, hy = sides[j]
        hm = h.without_edge(hx, hy)
        if not is_bipartite(hm)[0]:
            p1, p2 = pair(i)
            q = _parity_path(hm, hx, hy, p1.length % 2)
            return close(_mapped(q, ids, g), p1, p2)
    (p1, p2), (q1, q2) = pair(0), pair(1)
    if p1.length % 2 == q1.length % 2:
        return close(p1, q1, q2)
    if g.has_edge(x, y):  # an x-y path of length 1 on neither side closes the odd pair
        return close(Path(g, (x, y)), *((p1, p2) if p1.length % 2 else (q1, q2)))
    h, ids, hx, hy = sides[1]
    found = oracle.find_consecutive_even_pair_bf(h.without_edge(hx, hy), h.n)
    _require(found is not None, "bipartite side yields an even difference-2 pair")
    return _lift(found, ids, g)


def _parity_path(h: Graph, x: int, y: int, parity: int) -> Path:
    """An x-y path of the given parity in h - xy, for h + xy 2-connected and
    h - xy not bipartite (the easy case of LaPaugh-Papadimitriou).

    A shortest x-y walk of that parity is taken if it is a path, and then it
    is a shortest such path.  Otherwise two disjoint paths from {x, y} to a
    shortest odd cycle D of h - xy end at distinct vertices a, b of D, and
    the two a-b arcs of the odd cycle D have opposite parities: one of them
    joins the paths into an x-y path of the wanted parity.  A terminal on D
    is its own path, and no path passes through a terminal, since flow may
    not enter {x, y}."""
    h = h.without_edge(x, y)
    walk = _double_cover_walk(h, x, y, parity)
    if walk is not None and len(set(walk)) == len(walk):
        return Path(h, walk)
    d = shortest_odd_cycle(h)
    if d is None:
        raise GraphError("h - xy is bipartite: its x-y paths all have one parity")
    paths, _ = _menger(h, frozenset([x, y]), d.vertex_set(), 2)
    _require(paths is not None, "h + xy is 2-connected: two disjoint {x, y}-D paths")
    px, py = paths if paths[0].start == x else paths[::-1]
    for arc in (d.arc(px.end, py.end), d.arc(py.end, px.end).reverse()):
        if (px.length + arc.length + py.length) % 2 == parity:
            return Path(h, px.vertices + arc.vertices[1:] + py.vertices[::-1][1:])
    raise InternalInvariantError("the two arcs of an odd cycle have opposite parities")


def cycle_two_mod_four(g: Graph) -> Cycle:
    """A cycle of length 2 mod 4 in any graph with e >= 5n/2."""
    if 2 * g.e < 5 * g.n:
        raise HypothesisFailure("density", f"e = {g.e} < 5n/2 = {5 * g.n / 2}")
    out = main_theorem(g)
    if out.failure is not None:  # only the empty graph, which meets e >= 5n/2
        raise out.failure
    _require(out.kind == "certificate", "density above 5n/2 rules out the K5 exception")
    for c in (out.certificate.c1, out.certificate.c2):
        if c.length % 4 == 2:
            return c
    raise InternalInvariantError("one of two consecutive even lengths is 2 mod 4")
