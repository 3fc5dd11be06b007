"""Independent brute-force ground truth.

Everything here is exhaustive by design: guarded enumeration of simple
cycles and simple x-y paths, plus certificate types and their validator.
The guard raises instead of timing out, so callers get deterministic
behavior in CI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .graphs import Cycle, Graph, GraphError, Path, _is_vertex

DEFAULT_GUARD = 14


class GuardExceeded(RuntimeError):
    """Input exceeds the enumeration guard; refuse instead of best-effort."""


@dataclass(frozen=True)
class CyclePairCertificate:
    """Two cycles of consecutive even lengths in the same host graph."""

    c1: Cycle
    c2: Cycle

    @staticmethod
    def make(a: Cycle, b: Cycle) -> "CyclePairCertificate":
        a, b = sorted((a.canonical(), b.canonical()), key=lambda c: (c.length, c.vertices))
        return CyclePairCertificate(a, b)

    @property
    def lengths(self) -> tuple:
        return (self.c1.length, self.c2.length)


@dataclass(frozen=True)
class PathPairCertificate:
    """Two x-y paths whose lengths differ by two, avoiding the edge xy."""

    x: int
    y: int
    p1: Path
    p2: Path

    @staticmethod
    def make(x: int, y: int, a: Path, b: Path) -> "PathPairCertificate":
        a, b = sorted((a, b), key=lambda p: p.length)
        if a.start != x:
            a = a.reverse()
        if b.start != x:
            b = b.reverse()
        return PathPairCertificate(x, y, a, b)

    @property
    def lengths(self) -> tuple:
        return (self.p1.length, self.p2.length)


@dataclass(frozen=True)
class NearLengthPair:
    """Two cycles of lengths differing by one or two (Bondy-Vince support)."""

    c1: Cycle
    c2: Cycle

    @property
    def lengths(self) -> tuple:
        return (self.c1.length, self.c2.length)


@dataclass(frozen=True)
class SpectrumReport:
    n: int
    e: int
    lengths: frozenset
    representatives: dict  # length -> Cycle
    guard: int


def _check_guard(g: Graph, size_guard: int):
    if g.n > size_guard:
        raise GuardExceeded(f"order {g.n} exceeds enumeration guard {size_guard}")


def simple_cycles(g: Graph):
    """Yield every simple cycle exactly once.

    Canonicalization: the root is the smallest vertex of the cycle and the
    second vertex is smaller than the last, so each cycle appears in exactly
    one orientation.
    """
    for root in g.vertices:
        path = [root]
        on_path = {root}
        todo = [iter(g.adj[root])]  # todo[i]: the neighbours of path[i] left to try
        while todo:
            for w in todo[-1]:
                if w <= root or w in on_path:
                    if w == root and len(path) >= 3 and path[1] < path[-1]:
                        yield tuple(path)
                    continue
                path.append(w)
                on_path.add(w)
                todo.append(iter(g.adj[w]))
                break
            else:
                todo.pop()
                on_path.remove(path.pop())


def cycle_spectrum(g: Graph, size_guard: int = DEFAULT_GUARD) -> SpectrumReport:
    """Exact set of simple-cycle lengths, with a representative per length."""
    _check_guard(g, size_guard)
    reps: dict = {}
    for vs in simple_cycles(g):
        k = len(vs)
        if k not in reps or vs < reps[k]:
            reps[k] = vs
    representatives = {k: Cycle(g, vs).canonical() for k, vs in sorted(reps.items())}
    return SpectrumReport(
        n=g.n,
        e=g.e,
        lengths=frozenset(representatives),
        representatives=representatives,
        guard=size_guard,
    )


def _even_pair(spec: SpectrumReport) -> Optional[CyclePairCertificate]:
    """Certificate for the smallest {2m, 2m+2} pair in the spectrum, if any."""
    for m in sorted(spec.lengths):
        if m % 2 == 0 and m + 2 in spec.lengths:
            return CyclePairCertificate.make(
                spec.representatives[m], spec.representatives[m + 2]
            )
    return None


def find_consecutive_even_pair_bf(
    g: Graph, size_guard: int = DEFAULT_GUARD
) -> Optional[CyclePairCertificate]:
    """Certificate for the smallest {2m, 2m+2} pair in the spectrum, if any."""
    return _even_pair(cycle_spectrum(g, size_guard))


def has_consecutive_even_pair(g: Graph, size_guard: int = DEFAULT_GUARD) -> bool:
    """True iff g has cycles of lengths 2m and 2m + 2 for some m.

    The same brute force as `find_consecutive_even_pair_bf`, but it keeps
    only the even lengths seen so far and stops at the first cycle that
    completes a pair.
    """
    _check_guard(g, size_guard)
    even = set()
    for vs in simple_cycles(g):
        k = len(vs)
        if k % 2 == 0 and k not in even:
            if k - 2 in even or k + 2 in even:
                return True
            even.add(k)
    return False


def xy_path_lengths(g: Graph, x: int, y: int, size_guard: int = DEFAULT_GUARD) -> dict:
    """All achievable simple x-y path lengths, as {length: representative}."""
    if not (_is_vertex(x, g.n) and _is_vertex(y, g.n) and x != y):
        raise GraphError(f"xy_path_lengths requires distinct terminals of g, not ({x!r}, {y!r})")
    _check_guard(g, size_guard)
    reps: dict = {}
    path = [x]
    on_path = {x}
    todo = [iter(g.adj[x])]  # todo[i]: the neighbours of path[i] left to try
    while todo:
        for w in todo[-1]:
            if w == y:
                vs = tuple(path) + (y,)
                k = len(vs) - 1
                if k not in reps or vs < reps[k]:
                    reps[k] = vs
                continue
            if w in on_path:
                continue
            path.append(w)
            on_path.add(w)
            todo.append(iter(g.adj[w]))
            break
        else:
            todo.pop()
            on_path.remove(path.pop())
    return {k: Path(g, vs) for k, vs in sorted(reps.items())}


def bondy_vince_search(
    g: Graph, size_guard: int = DEFAULT_GUARD
) -> Optional[Union[CyclePairCertificate, NearLengthPair]]:
    """Two cycles with lengths differing by one or two, if any exist.

    Prefers a difference-2 pair with both lengths even (returned as a full
    CyclePairCertificate); otherwise the lexicographically least near pair.
    """
    spec = cycle_spectrum(g, size_guard)
    pair = _even_pair(spec)
    if pair is not None:
        return pair
    for m in sorted(spec.lengths):
        for d in (1, 2):
            if m + d in spec.lengths:
                # cycle_spectrum keeps its representatives canonical
                return NearLengthPair(spec.representatives[m], spec.representatives[m + d])
    return None


def cycle_mod_residue(
    g: Graph, r: int, m: int, size_guard: int = DEFAULT_GUARD
) -> Optional[Cycle]:
    """Shortest cycle of length congruent to r modulo m, if any."""
    if not (0 <= r < m):
        raise GraphError(f"residue {r} out of range for modulus {m}")
    spec = cycle_spectrum(g, size_guard)
    for k in sorted(spec.lengths):
        if k % m == r:
            return spec.representatives[k]
    return None


def _simple_in_host(vs: tuple, g: Graph, kind: str) -> Optional[str]:
    """Why the vertices vs of a path, or of a cycle closed by its last edge
    (kind "path" or "cycle"), are not one in g; None if they are."""
    if vs and (min(vs) < 0 or max(vs) >= g.n):
        return f"host: {kind} vertex outside graph"
    if len(set(vs)) != len(vs):
        return f"validity: repeated {kind} vertex"
    edges = g.edges  # pairs u < v, so a lone vertex's (a, a) is a non-edge
    for a, b in zip(vs, vs[1:] + vs[:1] if kind == "cycle" else vs[1:]):
        if ((a, b) if a < b else (b, a)) not in edges:
            return f"validity: non-edge ({a}, {b})"
    return None


def validate(cert, g: Graph) -> tuple:
    """(True, 'ok') iff all certificate invariants hold against g."""
    if isinstance(cert, CyclePairCertificate):
        for c in (cert.c1, cert.c2):
            why = _simple_in_host(c.vertices, g, "cycle")
            if why:
                return False, why
        l1, l2 = cert.c1.length, cert.c2.length
        if l1 % 2 or l2 % 2:
            return False, "parity: cycle length is odd"
        if abs(l2 - l1) != 2:
            return False, "difference: cycle lengths do not differ by two"
        return True, "ok"
    if isinstance(cert, PathPairCertificate):
        x, y = cert.x, cert.y
        for p in (cert.p1, cert.p2):
            vs = p.vertices
            why = _simple_in_host(vs, g, "path")
            if why:
                return False, why
            if {vs[0], vs[-1]} != {x, y}:
                return False, "terminals: path endpoints are not {x, y}"
            if (x, y) in zip(vs, vs[1:]) or (y, x) in zip(vs, vs[1:]):
                return False, "validity: path uses the edge xy"
        if cert.p2.length != cert.p1.length + 2:
            return False, "difference: path lengths do not differ by two"
        return True, "ok"
    return False, f"unknown certificate type {type(cert).__name__}"
