"""graph6 and edge-list codecs.

graph6 is the compact printable interchange format: a size header followed
by the upper triangle of the adjacency matrix in column-major bit order,
packed six bits per byte with each byte offset by 63.
"""

from __future__ import annotations

from .graphs import Graph, GraphError


def _encode_size(n: int) -> str:
    if n < 0:
        raise GraphError("negative order")
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    raise GraphError("graph6 order above 258047 not supported")


def encode_graph6(g: Graph) -> str:
    n = g.n
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    data = []
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = (val << 1) | b
        data.append(chr(val + 63))
    return _encode_size(n) + "".join(data)


def decode_graph6(text: str) -> Graph:
    s = text.strip()
    if not s:
        raise GraphError("empty graph6 string")
    for ch in s:
        if not (63 <= ord(ch) <= 126):
            raise GraphError(f"byte {ord(ch)} outside graph6 range 63..126")
    if s[0] == "~":
        if len(s) < 4:
            raise GraphError("truncated graph6 size header")
        if s[1] == "~":
            raise GraphError("graph6 orders above 258047 not supported")
        n = 0
        for ch in s[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise GraphError(
            f"graph6 body has {len(body)} bytes, expected {need} for order {n}"
        )
    bits = []
    for ch in body:
        val = ord(ch) - 63
        bits.extend((val >> s6) & 1 for s6 in (5, 4, 3, 2, 1, 0))
    if any(bits[nbits:]):
        raise GraphError("nonzero padding bits in graph6 data")
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return Graph.build(n, edges)


def encode_edge_list(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines += [f"{u} {v}" for u, v in g.sorted_edges()]
    return "\n".join(lines) + "\n"


def decode_edge_list(text: str) -> Graph:
    n_header = None
    edges = []
    seen = set()
    max_id = -1
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if n_header is not None or edges:
                raise GraphError("misplaced or repeated 'n' header")
            if len(parts) != 2 or not parts[1].lstrip("-").isdigit():
                raise GraphError(f"bad header line {raw!r}")
            n_header = int(parts[1])
            if n_header < 0:
                raise GraphError("negative order in header")
            continue
        if len(parts) != 2:
            raise GraphError(f"bad edge line {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphError(f"non-integer vertex id in {raw!r}") from exc
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphError(f"duplicate edge ({u}, {v})")
        seen.add(key)
        edges.append(key)
        max_id = max(max_id, u, v)
    # Graph.build rejects a self-loop and an id that is negative or >= n
    return Graph.build(n_header if n_header is not None else max_id + 1, edges)
