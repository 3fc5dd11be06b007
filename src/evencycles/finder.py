"""Certifying algorithms extracted from the constructive proofs.

The original arguments run by minimal counterexample; here each one is a
recursion over the structures the argument exposes.  Whenever the argument
guarantees an object exists, the code asserts it and raises
InternalInvariantError if it is absent: on valid input such an error is a
bug, never a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import oracle
from .graphs import (
    BlockDecomposition,
    Cycle,
    Graph,
    GraphError,
    Path,
    ThetaGraph,
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
    lift_path,
    shortest_odd_cycle,
    spanning_tree,
    theta_even_cycle,
    tree_path,
)
from .oracle import CyclePairCertificate, PathPairCertificate


class InternalInvariantError(RuntimeError):
    """An object the proof guarantees was not found: an implementation bug."""


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


# Outcome kind -> the one field that an Outcome of that kind populates
_OUTCOME_FIELD = {
    "certificate": "certificate",
    "k5-witness": "witness",
    "hypothesis-failure": "failure",
}


@dataclass(frozen=True)
class Outcome:
    """Trichotomy of the main theorem: certificate, K5-block witness, or
    a structured hypothesis-failure report."""

    kind: str  # a key of _OUTCOME_FIELD
    certificate: Optional[CyclePairCertificate] = None
    witness: Optional[K5BlockWitness] = None
    failure: Optional[HypothesisFailure] = None

    def __post_init__(self):
        populated = [f for f in _OUTCOME_FIELD.values() if getattr(self, f) is not None]
        if populated != [_OUTCOME_FIELD.get(self.kind)]:
            raise GraphError(f"Outcome {self.kind!r} must populate exactly its own variant")


# ---------------------------------------------------------------------------
# bounded deterministic cycle search (finder-local; the oracle stays independent)


def _cycles_of_length(g: Graph, length: int, allowed):
    """Simple cycles of exactly `length` inside `allowed`, each once, sorted-first."""
    allowed = sorted(set(allowed))
    aset = set(allowed)
    for root in allowed:
        path = [root]
        on_path = {root}

        def extend():
            v = path[-1]
            if len(path) == length:
                if g.has_edge(v, root) and path[1] < path[-1]:
                    yield tuple(path)
                return
            for w in g.adj[v]:
                if w <= root or w not in aset or w in on_path:
                    continue
                path.append(w)
                on_path.add(w)
                yield from extend()
                path.pop()
                on_path.remove(w)

        yield from extend()


def _first_cycle_of_parity(g: Graph, allowed, parity: int) -> Optional[Cycle]:
    """Shortest cycle of the given parity within `allowed` (deterministic)."""
    allowed = set(allowed)
    start = 3 if parity == 1 else 4
    for length in range(start, len(allowed) + 1, 2):
        for vs in _cycles_of_length(g, length, allowed):
            return Cycle(g, vs)
    return None


def _has_even_cycle(g: Graph, allowed) -> bool:
    """Block criterion: some block has e > v, or is a cycle of even length."""
    sub, _ = induced_subgraph(g, allowed)
    for b in blocks(sub).blocks:
        if len(b.edges) > len(b.vertices):
            return True
        if len(b.edges) == len(b.vertices) and len(b.vertices) % 2 == 0:
            return True
    return False


def _map_path(p: Path, mapping, host: Graph) -> Path:
    return Path(host, tuple(mapping[v] for v in p.vertices))


def _map_cycle(c: Cycle, mapping, host: Graph) -> Cycle:
    return Cycle(host, tuple(mapping[v] for v in c.vertices))


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
    for length in range(4, c.length, 2):
        for vs in _cycles_of_length(g, length, c.vertex_set()):
            return Cycle(g, vs)
    raise InternalInvariantError("no even cycle on a proper subset of a bad cycle")


def _fix_disconnected(g: Graph, c: Cycle, d: frozenset) -> Cycle:
    comps = components(g, c.vertex_set())
    danchor = min(d)
    fcomp = next(comp for comp in comps if danchor in comp)
    others = sorted(comp for comp in comps if comp is not fcomp)
    h = others[0]
    u = h[0]
    paths = fan(g, u, c.vertex_set(), 3, allowed=set(h) | c.vertex_set())
    _require(paths is not None, "3-connected graph must fan a stray component onto C")
    ends = sorted(p.end for p in paths)
    by_end = {p.end: p for p in paths}
    order = [v for v in c.vertices if v in set(ends)]  # cyclic order along C
    attach = {
        v
        for v in c.vertices
        if any(w in set(fcomp) for w in g.adj[v])
    }
    extra = sorted(attach - set(ends))
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
        path_a = p1
        path_b = Path(g, p0.vertices + c.arc(v0, v1).vertices[1:])
        path_c = Path(g, p2.vertices + tuple(reversed(c.arc(v1, v2).vertices))[1:])
        return theta_even_cycle(ThetaGraph.build(u, v1, [path_a, path_b, path_c]))
    _require(attach == set(ends), "N_C(F) must equal the three fan endpoints")
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


def stabilize_even_cycle(g: Graph, d) -> Cycle:
    """An even cycle C avoiding d with: g - V(C) connected, at most one
    chord, and any chord splitting C into two even arcs.

    Improvement loop: each exchange strictly increases the measure
    (size of the component containing d, then -l(C)), so it terminates.
    """
    d = frozenset(d)
    if not d or not is_connected(induced_subgraph(g, d)[0]):
        raise GraphError("d must be a nonempty connected vertex set")
    c = _first_cycle_of_parity(g, set(g.vertices) - d, 0)
    if c is None:
        raise GraphError("g - V(d) contains no even cycle")
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
    One connector: b and d share one vertex u; the connector runs from a
    vertex of b - u quasi-diagonal with u to a vertex of d - u.
    """
    if b.length % 2 != 0 or d.length % 2 != 1:
        raise GraphError("combine_quasi_diagonal needs an even b and an odd d")
    g = b.graph
    qd = quasi_diagonal(b)
    bset, dset = b.vertex_set(), d.vertex_set()

    connectors = list(connectors)
    if len(connectors) == 2:
        if bset & dset:
            raise GraphError("two-connector form needs disjoint cycles")
        oriented = []
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
        s1, s2 = p1.start, p2.start
        t1, t2 = p1.end, p2.end
    elif len(connectors) == 1:
        if len(bset & dset) != 1:
            raise GraphError("one-connector form needs exactly one shared vertex")
        (u,) = bset & dset
        p = connectors[0]
        if p.start in dset and p.end in bset:
            p = p.reverse()
        if p.start not in bset - {u} or p.end not in dset - {u}:
            raise GraphError("connector must join b - u to d - u")
        if set(p.vertices[1:-1]) & (bset | dset):
            raise GraphError("connector passes through b or d internally")
        p1 = Path(g, (u,))
        p2 = p
        s1, s2 = u, p.start
        t1, t2 = u, p.end
    else:
        raise GraphError("combine_quasi_diagonal takes one or two connectors")

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
    cert = CyclePairCertificate.make(c1, c2)
    ok, why = oracle.validate(cert, g)
    _require(ok, f"combine produced an invalid certificate: {why}")
    return cert


# ---------------------------------------------------------------------------
# disjoint odd + even (tree-attachment and B-branch arguments)


def pair_from_disjoint_odd_even(g: Graph, d: Cycle) -> CyclePairCertificate:
    """Certificate from an odd cycle d such that g - V(d) has an even cycle."""
    if d.length % 2 != 1:
        raise GraphError("d must be an odd cycle")
    c = stabilize_even_cycle(g, d.vertex_set())
    fset = frozenset(g.vertices) - c.vertex_set()

    if c.length == 4:
        paths, _ = disjoint_paths(g, c.vertex_set(), d.vertex_set(), 3)
        _require(paths is not None, "3 disjoint C-D paths in a 3-connected graph")
        ends = sorted(p.vertices[0] if p.vertices[0] in c.vertex_set() else p.vertices[-1] for p in paths)
        by_end = {}
        for p in paths:
            if p.start not in c.vertex_set():
                p = p.reverse()
            by_end[p.start] = p
        pair = None
        for i in range(3):
            for j in range(i + 1, 3):
                if g.has_edge(ends[i], ends[j]) and c.arc_length(ends[i], ends[j]) in (1, 3):
                    pair = (ends[i], ends[j])
                    break
            if pair:
                break
        _require(pair is not None, "two of three endpoints on a C4 must be adjacent")
        return combine_quasi_diagonal(c, d, [by_end[pair[0]], by_end[pair[1]]])

    qd = quasi_diagonal(c)
    chord = c.chords()
    if c.length % 4 == 2:
        return _pair_tree_attachment(g, c, d, qd, chord, fset)
    return _pair_b_branches(g, c, d, qd, chord, fset)


def _pair_tree_attachment(g, c, d, qd, chord, fset) -> CyclePairCertificate:
    """l(C) = 2 mod 4: attach the chord-free Qdi component to a spanning
    tree of F and pick the even cycle the parity identity guarantees."""
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
            cert = CyclePairCertificate.make(ci, ci_long)
            ok, why = oracle.validate(cert, g)
            _require(ok, f"tree-attachment certificate invalid: {why}")
            return cert
    raise InternalInvariantError("parity identity guarantees an even attachment cycle")


def _pair_b_branches(g, c, d, qd, chord, fset) -> CyclePairCertificate:
    """l(C) = 0 mod 4: find a quasi-diagonal pair whose F-neighbors live in
    distinct B-branches and route two disjoint paths to d through them."""
    fsub, fmap = induced_subgraph(g, fset)
    fdec = blocks(fsub)
    if not fdec.cut_vertices and is_connected(fsub) and fsub.n >= 3:
        bvertices = fset
    else:
        dmapped = {fmap.index(v) for v in d.vertex_set()}
        bvertices = {fmap[v] for v in fdec.block_of_vertex_set(dmapped).vertices}

    # B-branches: components of F - E(B), each anchored at one B-vertex
    bedges = {
        (fmap[u], fmap[v])
        for u, v in fsub.edges
        if fmap[u] in bvertices and fmap[v] in bvertices
    }
    branch_of = {}
    for v in sorted(fset):
        if v in branch_of:
            continue
        stack, comp = [v], {v}
        while stack:
            x = stack.pop()
            for w in g.adj[x]:
                if w in fset and w not in comp:
                    e = (x, w) if x < w else (w, x)
                    if e in bedges:
                        continue
                    comp.add(w)
                    stack.append(w)
        anchors = comp & bvertices
        _require(len(anchors) == 1, "each B-branch contains exactly one B-vertex")
        anchor = next(iter(anchors))
        for w in comp:
            branch_of[w] = anchor

    dset = d.vertex_set()
    for u1, u2 in qd.aux_edges():
        n1 = {branch_of[w] for w in g.adj[u1] if w in fset}
        n2 = {branch_of[w] for w in g.adj[u2] if w in fset}
        if not n1 or not n2 or (len(n1 | n2) == 1):
            continue
        keep = fset | {u1, u2}
        hsub, hmap = induced_subgraph(g, keep)
        inv = {orig: i for i, orig in enumerate(hmap)}
        paths, _ = disjoint_paths(
            hsub, {inv[u1], inv[u2]}, {inv[v] for v in dset}, 2
        )
        _require(paths is not None, "distinct B-branches must yield two disjoint paths")
        mapped = [_map_path(p, hmap, g) for p in paths]
        return combine_quasi_diagonal(c, d, mapped)
    raise InternalInvariantError(
        "3-connectivity forces some quasi-diagonal pair into distinct B-branches"
    )


# ---------------------------------------------------------------------------
# one shared vertex


def pair_from_shared_vertex(g: Graph, b: Cycle, d: Cycle, u: int) -> CyclePairCertificate:
    """Certificate from an even cycle b and odd cycle d sharing exactly u."""
    if b.length % 2 != 0 or d.length % 2 != 1:
        raise GraphError("need an even b and an odd d")
    if b.vertex_set() & d.vertex_set() != {u}:
        raise GraphError("cycles must share exactly the vertex u")
    dminus = d.vertex_set() - {u}
    c = stabilize_even_cycle(g, dminus)
    if u not in c.vertex_set():
        return pair_from_disjoint_odd_even(g, d)

    fset = frozenset(g.vertices) - c.vertex_set()
    qd = quasi_diagonal(c)
    u1, u2 = qd.partners(u)
    for ui in (u1, u2):
        nbrs = sorted(w for w in g.adj[ui] if w in fset)
        if not nbrs:
            continue
        v = nbrs[0]
        forb = set(g.vertices) - fset
        p = bfs_path(g, {v}, dminus, frozenset(forb - dminus))
        _require(p is not None, "F is connected and contains d - u")
        connector = Path(g, (ui,) + p.vertices) if p.start != ui else p
        return combine_quasi_diagonal(c, d, [connector])

    # both quasi-diagonal partners of u are buried: u1u2 is the unique chord
    _require(c.length >= 6, "a C4 with buried partners would expose a 2-cut")
    _require(g.has_edge(u1, u2), "u1u2 must be the chord of C")
    i = c.index_of(u)
    vs = c.vertices
    u3cands = sorted((vs[(i + 1) % len(vs)], vs[(i - 1) % len(vs)]))
    u4 = vs[(i + len(vs) // 2) % len(vs)]
    for u3 in u3cands:
        nbrs = sorted(w for w in g.adj[u3] if w in fset)
        if not nbrs:
            continue
        v = nbrs[0]
        forb = set(g.vertices) - fset
        qpath = bfs_path(g, {v}, dminus, frozenset(forb - dminus))
        _require(qpath is not None, "F is connected and contains d - u")
        w = qpath.end
        stem = Path(g, (u, u3) + qpath.vertices)
        theta = ThetaGraph.build(u, w, [d.arc(u, w), d.arc(w, u), stem])
        ceven = theta_even_cycle(theta)
        tri = Cycle(g, (u1, u2, u4))
        _require(not (ceven.vertex_set() & tri.vertex_set()), "even cycle misses the chord triangle")
        return pair_from_disjoint_odd_even(g, tri)
    raise InternalInvariantError("a C-neighbor of u must reach F")


# ---------------------------------------------------------------------------
# two disjoint odd cycles (cubic endgame)


def _theta_from_vertex_fan(g, b: Cycle, v: int, u1: int, u2: int) -> Cycle:
    """Even cycle in b + {u1 v, u2 v}."""
    stem = Path(g, (u1, v, u2))
    theta = ThetaGraph.build(u1, u2, [b.arc(u1, u2), b.arc(u2, u1), stem])
    return theta_even_cycle(theta)


def pair_from_two_disjoint_odd(g: Graph, b: Cycle) -> CyclePairCertificate:
    """Certificate from an odd cycle b such that g - V(b) is not bipartite."""
    if b.length % 2 != 1:
        raise GraphError("need an odd b")
    fset = frozenset(g.vertices) - b.vertex_set()
    fsub, fmap = induced_subgraph(g, fset)
    dsub = shortest_odd_cycle(fsub)
    if dsub is None:
        raise GraphError("g - V(b) is bipartite: no odd cycle disjoint from b")

    if _has_even_cycle(g, fset):
        return pair_from_disjoint_odd_even(g, b)

    dcycle = _map_cycle(dsub, fmap, g)

    if fset == dcycle.vertex_set() and fsub.e == dcycle.length:
        return _cubic_endgame(g, b, dcycle)

    # some end-block of F other than D yields a theta on B, hence an even
    # cycle disjoint from D
    fdec = blocks(fsub)
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
        ceven = _theta_from_vertex_fan(g, b, v, bn[0], bn[1])
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
        pick = None
        for a1 in cross:
            for a2 in cross:
                e1 = a1 if a1[0] in bset else (a1[1], a1[0])
                e2 = a2 if a2[0] in bset else (a2[1], a2[0])
                if e1[0] != e2[0] and e1[1] != e2[1]:
                    pick = (e1, e2)
                    break
            if pick:
                break
        _require(pick is not None, "two independent B to D'-v edges exist")
        (b1, w1), (b2, w2) = pick
        ring = {v: [w for w in fsub.adj[v] if w in dprime.vertices] for v in dprime.vertices}
        dprime_cycle = _map_cycle(Cycle(fsub, _cycle_walk(ring, min(ring))), fmap, g)
        arcs = [dprime_cycle.arc(w1, w2), dprime_cycle.arc(w2, w1).reverse()]
        if vcut is not None:
            arcs = [a for a in arcs if vcut not in a.vertices]
        else:
            arcs = sorted(arcs, key=lambda a: (a.length, a.vertices))[:1]
        _require(len(arcs) >= 1, "D' - v contains a w1-w2 path")
        mid = arcs[0]
        stem = Path(g, (b1,) + mid.vertices + (b2,))
        theta = ThetaGraph.build(b1, b2, [b.arc(b1, b2), b.arc(b2, b1), stem])
        ceven = theta_even_cycle(theta)
    _require(not (ceven.vertex_set() & dcycle.vertex_set()), "even cycle disjoint from D")
    return pair_from_disjoint_odd_even(g, dcycle)


def _cubic_endgame(g: Graph, b: Cycle, d: Cycle) -> CyclePairCertificate:
    """V(G) = V(B) + V(D), both induced odd cycles; degree/matching ladder."""
    bset, dset = b.vertex_set(), d.vertex_set()
    for u in sorted(bset):
        dn = sorted(w for w in g.adj[u] if w in dset)
        if len(dn) >= 2:
            ceven = _theta_from_vertex_fan(g, d, u, dn[0], dn[1])
            return pair_from_shared_vertex(g, ceven, b, u)
    for y in sorted(dset):
        bn = sorted(w for w in g.adj[y] if w in bset)
        if len(bn) >= 2:
            ceven = _theta_from_vertex_fan(g, b, y, bn[0], bn[1])
            return pair_from_shared_vertex(g, ceven, d, y)

    match = {}
    for u in sorted(bset):
        dn = [w for w in g.adj[u] if w in dset]
        _require(len(dn) == 1, "cubic case: every B-vertex has one D-neighbor")
        match[u] = dn[0]
    for y in sorted(dset):
        bn = [w for w in g.adj[y] if w in bset]
        _require(len(bn) == 1, "cubic case: every D-vertex has one B-neighbor")
        match[y] = bn[0]
    _require(b.length == d.length, "perfect matching forces equal cycle lengths")

    def odd_arc(cyc: Cycle, e) -> Path:
        return odd_even_arcs(cyc, match[e[0]], match[e[1]])[0]

    def cyc_edges(cyc: Cycle):
        vs = cyc.vertices
        return [tuple(sorted((vs[i], vs[(i + 1) % len(vs)]))) for i in range(len(vs))]

    b_lens = {e: odd_arc(d, e).length for e in sorted(cyc_edges(b))}
    d_lens = {e: odd_arc(b, e).length for e in sorted(cyc_edges(d))}

    if all(v == 1 for v in b_lens.values()):
        u, v, w = b.vertices[:3]
        c4 = Cycle(g, (u, v, match[v], match[u]))
        c6 = Cycle(g, (u, v, w, match[w], match[v], match[u]))
        cert = CyclePairCertificate.make(c4, c6)
        ok, why = oracle.validate(cert, g)
        _require(ok, f"all-short ladder certificate invalid: {why}")
        return cert

    for lens, outer, inner in ((b_lens, b, d), (d_lens, d, b)):
        for e, val in sorted(lens.items()):
            if val >= 5:
                return _long_arc_branch(g, outer, inner, e, match)

    uv = next(e for e, val in sorted(b_lens.items()) if val == 3)
    u, v = uv
    do = odd_even_arcs(d, match[u], match[v])[0]
    if do.start != match[u]:
        do = do.reverse()
    c6 = Cycle(g, (u, v) + tuple(reversed(do.vertices)))
    _require(c6.length == 6, "length-3 arc closes a C6")

    for lens, cyc in ((b_lens, d), (d_lens, b)):
        short = [e for e, val in sorted(lens.items()) if val == 1]
        if short:
            e = short[0]
            c4 = Cycle(g, (e[0], e[1], match[e[1]], match[e[0]]))
            cert = CyclePairCertificate.make(c4, c6)
            ok, why = oracle.validate(cert, g)
            _require(ok, f"mixed ladder certificate invalid: {why}")
            return cert

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
    cert = CyclePairCertificate.make(c6, c8)
    ok, why = oracle.validate(cert, g)
    _require(ok, f"cubic ladder certificate invalid: {why}")
    return cert


def _long_arc_branch(g, outer: Cycle, inner: Cycle, e, match) -> CyclePairCertificate:
    """Odd arc of length >= 5: build the shifted odd cycle and recurse on the
    even cycle hidden in the complement."""
    u, v = e
    do, de = odd_even_arcs(inner, match[u], match[v])
    if de.start != match[u]:
        de = de.reverse()
    dstar = Cycle(g, de.vertices + (v, u))
    _require(dstar.length % 2 == 1, "shifted cycle is odd")
    region = (set(do.vertices) | outer.vertex_set()) - {u, v, match[u], match[v]}
    _require(_has_even_cycle(g, region), "complement region contains a theta-graph")
    return pair_from_disjoint_odd_even(g, dstar)


# ---------------------------------------------------------------------------
# 3-connected pipeline


def three_connected_pair(g: Graph) -> CyclePairCertificate:
    """Two cycles of consecutive even lengths in a 3-connected graph, n >= 6."""
    if g.n < 6:
        raise HypothesisFailure("order", f"need n >= 6, got {g.n}")
    if not is_connected(g):
        raise HypothesisFailure("connectivity", "graph is disconnected")
    cut = connectivity_cut(g, 3)
    if cut is not None:
        raise HypothesisFailure("connectivity", "graph is not 3-connected", witness=cut)
    return _three_connected_pair(g)


def _three_connected_pair(g: Graph) -> CyclePairCertificate:
    """three_connected_pair on a graph already known to be 3-connected, n >= 6."""
    bip, wit = is_bipartite(g)
    if bip:
        found = oracle.bondy_vince_search(g, g.n)
        _require(
            isinstance(found, CyclePairCertificate),
            "bipartite branch: near pair must be an even difference-2 pair",
        )
        return found

    d = shortest_odd_cycle(g)
    rest = frozenset(g.vertices) - d.vertex_set()
    if _has_even_cycle(g, rest):
        return pair_from_disjoint_odd_even(g, d)
    sub, _ = induced_subgraph(g, rest)
    if not is_bipartite(sub)[0]:
        return pair_from_two_disjoint_odd(g, d)

    # g - V(D) is a forest
    comps = sorted(components(g, d.vertex_set()), key=lambda c: (-len(c), c))
    for v in sorted(d.vertex_set()):
        for comp in comps:
            nbrs = sorted(w for w in g.adj[v] if w in set(comp))
            if len(nbrs) >= 3:
                ceven = _theta_into_tree(g, v, nbrs[:3], comp)
                return pair_from_shared_vertex(g, ceven, d, v)

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
    return theta_even_cycle(ThetaGraph.build(v, m, paths))


def _tree_leaves(g, comp) -> list:
    cs = set(comp)
    return sorted(v for v in comp if len([w for w in g.adj[v] if w in cs]) <= 1)


def _certify(g, c4: Cycle, c6: Cycle) -> CyclePairCertificate:
    cert = CyclePairCertificate.make(c4, c6)
    ok, why = oracle.validate(cert, g)
    _require(ok, f"explicit construction invalid: {why}")
    return cert


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
        u3 = comps[1][0]
        region = {u1, u2, u3, v1, v2, v3}
        for vs in _cycles_of_length(g, 6, region):
            return _certify(g, c4, Cycle(g, vs))
        raise InternalInvariantError("bounded search: C6 on the six-vertex region")
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
# two x-y paths differing by two (recursive proof of the 2-cut theorem)


def _check_path_hypotheses(g: Graph, x: int, y: int):
    if x == y or not (0 <= x < g.n and 0 <= y < g.n):
        raise HypothesisFailure("terminals", f"bad terminal pair ({x}, {y})")
    gp = g.with_edge(x, y)
    if g.n < 3 or not is_connected(gp) or connectivity_cut(gp, 2) is not None:
        raise HypothesisFailure("2-connectivity", "g + xy is not 2-connected")
    for v in g.vertices:
        if v not in (x, y) and g.degree(v) < 3:
            raise HypothesisFailure("minimum degree", f"vertex {v} has degree {g.degree(v)}")
    for u, v in g.sorted_edges():
        if x in (u, v) or y in (u, v):
            continue
        if g.degree(u) + g.degree(v) < 7:
            raise HypothesisFailure(
                "edge degree sum", f"edge ({u}, {v}) has degree sum < 7"
            )


def _paths_base_case(h: Graph, x: int, y: int) -> PathPairCertificate:
    reps = oracle.xy_path_lengths(h, x, y, size_guard=h.n)
    for length in sorted(reps):
        if length + 2 in reps:
            return PathPairCertificate.make(x, y, reps[length], reps[length + 2])
    raise InternalInvariantError("base case admits two x-y paths differing by two")


def _rec_two_paths(g: Graph, x: int, y: int) -> PathPairCertificate:
    try:
        return two_paths_diff_two(g, x, y)
    except HypothesisFailure as exc:
        raise InternalInvariantError(
            f"recursive instance violates the induction hypothesis: {exc}"
        ) from exc


def two_paths_diff_two(g: Graph, x: int, y: int) -> PathPairCertificate:
    """Two x-y paths in g - xy whose lengths differ by two.

    Hypotheses (validated, HypothesisFailure otherwise): g + xy 2-connected,
    every vertex besides x, y has degree >= 3, and every edge avoiding
    {x, y} has degree sum >= 7.
    """
    _check_path_hypotheses(g, x, y)
    h = g.without_edge(x, y) if g.has_edge(x, y) else g
    swapped = False
    if h.degree(y) < h.degree(x):
        x, y = y, x
        swapped = True
    cert = _two_paths_normalized(h, x, y)
    if swapped:
        cert = PathPairCertificate.make(y, x, cert.p1, cert.p2)
    ok, why = oracle.validate(cert, h)
    _require(ok, f"path-pair certificate invalid: {why}")
    return cert


def _two_paths_normalized(h: Graph, x: int, y: int) -> PathPairCertificate:
    if h.n <= 5:
        return _paths_base_case(h, x, y)

    four = _four_cycle_through(h, x, y)
    if four is not None:
        return _paths_case_four_cycle(h, x, y, four)
    return _paths_case_contract(h, x, y)


def _four_cycle_through(h: Graph, x: int, y: int):
    """Smallest (x1, a, x2) with x x1 a x2 x a 4-cycle in h - y, else None."""
    xn = [v for v in h.adj[x] if v != y]
    for i, x1 in enumerate(xn):
        for x2 in xn[i + 1 :]:
            for a in h.adj[x1]:
                if a not in (x, y, x2) and h.has_edge(a, x2):
                    return (x1, a, x2)
    return None


def _paths_case_four_cycle(h, x, y, four) -> PathPairCertificate:
    x1, a, x2 = four
    cset = {x, x1, a, x2}
    comps = components(h, frozenset(cset))
    fcomp = next(c for c in comps if y in c)
    fset = set(fcomp)
    outside = frozenset(set(h.vertices) - fset)
    for near, far in ((x1, x2), (x2, x1)):
        if any(w in fset for w in h.adj[near]):
            p = bfs_path(h, {near}, {y}, outside - {near})
            _require(p is not None, "component of y is reachable from its neighbor")
            p1 = Path(h, (x,) + p.vertices)
            p2 = Path(h, (x, far, a) + p.vertices)
            return PathPairCertificate.make(x, y, p1, p2)
    gsub, mapping = induced_subgraph(h, set(h.vertices) - fset)
    inv = {orig: i for i, orig in enumerate(mapping)}
    sub_cert = _rec_two_paths(gsub, inv[x], inv[a])
    q1 = _map_path(sub_cert.p1, mapping, h)
    q2 = _map_path(sub_cert.p2, mapping, h)
    _require(
        any(w in fset for w in h.adj[a]),
        "2-connectivity forces a to attach to the component of y",
    )
    p = bfs_path(h, {a}, {y}, outside - {a})
    _require(p is not None, "a reaches y through F")
    p1 = Path(h, q1.vertices + p.vertices[1:])
    p2 = Path(h, q2.vertices + p.vertices[1:])
    return PathPairCertificate.make(x, y, p1, p2)


def _paths_case_contract(h, x, y) -> PathPairCertificate:
    xs = sorted(h.adj[x])
    gminus, map1 = induced_subgraph(h, set(h.vertices) - {x})
    inv1 = {orig: i for i, orig in enumerate(map1)}
    gstar, rec = contract(gminus, {inv1[v] for v in xs})
    xstar = rec.contracted_vertex
    ystar = _contracted_id(rec, inv1[y])
    gplus = gstar if gstar.has_edge(xstar, ystar) else gstar.with_edge(xstar, ystar)

    if connectivity_cut(gplus, 2) is None and is_connected(gplus):
        sub_cert = _rec_two_paths(gplus, xstar, ystar)
        return _lift_star_paths(h, x, y, sub_cert, rec, map1)

    dec = blocks(gstar)
    _require(
        dec.cut_vertices == frozenset([xstar]),
        "x* is the only cut vertex of the contracted graph",
    )
    bblock = next(b for b in dec.blocks if ystar in b.vertices)
    if len(bblock.vertices) >= 3:
        bsub, mapb = induced_subgraph(gstar, bblock.vertices)
        invb = {orig: i for i, orig in enumerate(mapb)}
        bx, by = invb[xstar], invb[ystar]
        bplus = bsub if bsub.has_edge(bx, by) else bsub.with_edge(bx, by)
        sub_cert = _rec_two_paths(bplus, bx, by)
        lifted = PathPairCertificate.make(
            xstar,
            ystar,
            _map_path(sub_cert.p1, mapb, gstar),
            _map_path(sub_cert.p2, mapb, gstar),
        )
        return _lift_star_paths(h, x, y, lifted, rec, map1)

    # B = x*y endgame: N(y) = X = N(x); route through another block
    _require(
        sorted(h.adj[y]) == xs,
        "endgame forces N(y) = N(x) = X",
    )
    others = sorted(
        (sorted(b.vertices), b) for b in dec.blocks if b.vertices != bblock.vertices
    )
    _require(others, "G* has a block besides x*y")
    dprime = others[0][1]
    _require(
        len(dprime.vertices) >= 3,
        "a K2 block besides x*y would hide a degree-1 vertex",
    )
    dverts_h = {map1[rec.original_of(v)] for v in dprime.vertices if v != xstar}
    attach = sorted(
        v for v in xs if any(w in dverts_h for w in h.adj[v])
    )
    _require(len(attach) >= 2, "at least two X-vertices see the block D")
    u1 = attach[0]
    keep = set(xs) | dverts_h
    g1, mapg1 = induced_subgraph(h, keep)
    invg1 = {orig: i for i, orig in enumerate(mapg1)}
    g1c, rec2 = contract(g1, {invg1[v] for v in xs if v != u1})
    u1c = _contracted_id(rec2, invg1[u1])
    u2c = rec2.contracted_vertex
    gplus2 = g1c if g1c.has_edge(u1c, u2c) else g1c.with_edge(u1c, u2c)
    sub_cert = _rec_two_paths(gplus2, u1c, u2c)
    out = []
    for p in (sub_cert.p1, sub_cert.p2):
        lifted, _ = lift_path(rec2, p)  # in g1 ids, from u1 to some x_i
        ph = _map_path(lifted, mapg1, h).reverse()  # x_i ... u1
        out.append(Path(h, (x,) + ph.vertices + (y,)))
    return PathPairCertificate.make(x, y, out[0], out[1])


def _contracted_id(rec, old_id: int) -> int:
    return rec.vertex_map[old_id]


def _lift_star_paths(h, x, y, cert: PathPairCertificate, rec, map1) -> PathPairCertificate:
    out = []
    for p in (cert.p1, cert.p2):
        lifted, _ = lift_path(rec, p)  # path in g - x from some x_i to y
        ph = _map_path(lifted, map1, h)
        out.append(Path(h, (x,) + ph.vertices))
    return PathPairCertificate.make(x, y, out[0], out[1])


# ---------------------------------------------------------------------------
# main theorem and corollary


def main_theorem(g: Graph) -> Outcome:
    """Certificate or K5-block witness for any graph with e >= 5(n-1)/2."""
    if g.n == 0:
        return Outcome("hypothesis-failure", failure=HypothesisFailure("order", "empty graph"))
    if 2 * g.e < 5 * (g.n - 1):
        detail = f"e = {g.e} < 5(n-1)/2 = {5 * (g.n - 1) / 2}"
        return Outcome("hypothesis-failure", failure=HypothesisFailure("density", detail))
    try:
        return _solve(g)
    except HypothesisFailure as exc:  # recursion established these hold
        raise InternalInvariantError(f"reduction hypothesis failed: {exc}") from exc


def _density_ok(g: Graph) -> bool:
    return 2 * g.e >= 5 * (g.n - 1)


def _solve(g: Graph) -> Outcome:
    _require(_density_ok(g), "recursion must preserve the density hypothesis")

    if g.n <= 5:
        cert = oracle.find_consecutive_even_pair_bf(g, g.n)
        if cert is not None:
            return Outcome("certificate", certificate=cert)
        from .generators import is_k5_block_tree

        _require(is_k5_block_tree(g), "n <= 5 density without certificate means K5 (or K1)")
        return Outcome("k5-witness", witness=K5BlockWitness.build(g))

    comps = components(g)
    if len(comps) > 1:
        best = max(comps, key=lambda c: 2 * _edges_within(g, c) - 5 * (len(c) - 1))
        sub, mapping = induced_subgraph(g, best)
        out = _solve(sub)
        _require(out.kind == "certificate", "slackest component cannot be extremal")
        return _map_outcome(out.certificate, mapping, g)

    deg_min = min(g.degree(v) for v in g.vertices)
    if deg_min <= 2:
        v = min(u for u in g.vertices if g.degree(u) == deg_min)
        sub, mapping = induced_subgraph(g, set(g.vertices) - {v})
        out = _solve(sub)
        _require(out.kind == "certificate", "low-degree removal cannot leave a witness")
        return _map_outcome(out.certificate, mapping, g)

    low = [
        (u, v)
        for u, v in g.sorted_edges()
        if g.degree(u) + g.degree(v) <= 6
    ]
    if low:
        return _low_sum_edge(g, low[0])

    cut1 = connectivity_cut(g, 2)
    if cut1 is not None:
        return _cut_vertex(g, next(iter(cut1)))

    cut2 = connectivity_cut(g, 3)
    if cut2 is not None:
        return _two_cut(g, cut2)

    return Outcome("certificate", certificate=_three_connected_pair(g))


def _edges_within(g: Graph, comp) -> int:
    cs = set(comp)
    return sum(1 for u, v in g.edges if u in cs and v in cs)


def _map_outcome(c: CyclePairCertificate, mapping, host: Graph) -> Outcome:
    """The certificate outcome for c, carried from a subgraph into host."""
    cert = CyclePairCertificate.make(
        _map_cycle(c.c1, mapping, host), _map_cycle(c.c2, mapping, host)
    )
    return Outcome("certificate", certificate=cert)


def _low_sum_edge(g: Graph, e) -> Outcome:
    u, v = e
    sub, mapping = induced_subgraph(g, set(g.vertices) - {u, v})
    out = _solve(sub)
    if out.kind == "certificate":
        return _map_outcome(out.certificate, mapping, g)
    # reinsertion: g - {u, v} is a K5-block graph; search the blocks around
    # u and v for the guaranteed pair (bounded, validator-accepted)
    nearby = {u, v}
    nbrs = set(g.adj[u]) | set(g.adj[v])
    for blk in out.witness.decomposition.blocks:
        blk_orig = {mapping[w] for w in blk.vertices}
        if blk_orig & nbrs:
            nearby |= blk_orig
    sub2, map2 = induced_subgraph(g, nearby)
    cert = oracle.find_consecutive_even_pair_bf(sub2, sub2.n)
    _require(cert is not None, "reinserted edge must create a consecutive even pair")
    return _map_outcome(cert, map2, g)


def _cut_vertex(g: Graph, v: int) -> Outcome:
    comps = components(g, frozenset([v]))
    side1 = set(comps[0]) | {v}
    side2 = (set(g.vertices) - set(comps[0])) | {v}
    witnesses = []
    for side in (side1, side2):
        sub, mapping = induced_subgraph(g, side)
        if not _density_ok(sub):
            continue
        out = _solve(sub)
        if out.kind == "certificate":
            return _map_outcome(out.certificate, mapping, g)
        witnesses.append(out)
    _require(len(witnesses) == 2, "both sides of an extremal cut are extremal")
    return Outcome("k5-witness", witness=K5BlockWitness.build(g))


def _two_cut(g: Graph, cut) -> Outcome:
    x, y = sorted(cut)
    comps = sorted(components(g, frozenset([x, y])), key=lambda c: (len(c), c))
    small = set(comps[0])
    h2set = small | {x, y}
    h1set = (set(g.vertices) - small)
    h1, map1 = induced_subgraph(g, h1set)
    h2, map2 = induced_subgraph(g, h2set)
    inv1 = {orig: i for i, orig in enumerate(map1)}
    inv2 = {orig: i for i, orig in enumerate(map2)}

    try:
        ppc = two_paths_diff_two(h1, inv1[x], inv1[y])
    except HypothesisFailure as exc:
        raise InternalInvariantError(f"H1 must satisfy the path theorem: {exc}") from exc
    p1 = _map_path(ppc.p1, map1, g)
    p2 = _map_path(ppc.p2, map1, g)
    if p1.start != x:
        p1, p2 = p1.reverse(), p2.reverse()

    x2, y2 = inv2[x], inv2[y]
    h2m = h2.without_edge(x2, y2) if h2.has_edge(x2, y2) else h2
    bip, _ = is_bipartite(h2m)
    if not bip:
        reps = oracle.xy_path_lengths(h2m, x2, y2, size_guard=h2m.n)
        want = p1.length % 2  # cycle p1 + q is even iff the parities agree
        match = [reps[k] for k in sorted(reps) if k % 2 == want]
        _require(match, "non-bipartite side has x-y paths of both parities")
        q = _map_path(match[0], map2, g)
        if q.start != x:
            q = q.reverse()
        c1 = Cycle(g, p1.vertices + tuple(reversed(q.vertices))[1:-1])
        c2 = Cycle(g, p2.vertices + tuple(reversed(q.vertices))[1:-1])
        return Outcome("certificate", certificate=CyclePairCertificate.make(c1, c2))
    found = oracle.bondy_vince_search(h2m, h2m.n)
    _require(
        isinstance(found, CyclePairCertificate),
        "bipartite side yields an even difference-2 pair",
    )
    return _map_outcome(found, map2, g)


def cycle_two_mod_four(g: Graph) -> Cycle:
    """A cycle of length 2 mod 4 in any graph with e >= 5n/2."""
    if 2 * g.e < 5 * g.n:
        raise HypothesisFailure("density", f"e = {g.e} < 5n/2 = {5 * g.n / 2}")
    out = main_theorem(g)
    _require(out.kind == "certificate", "density above 5n/2 rules out the K5 exception")
    for c in (out.certificate.c1, out.certificate.c2):
        if c.length % 4 == 2:
            return c
    raise InternalInvariantError("one of two consecutive even lengths is 2 mod 4")
