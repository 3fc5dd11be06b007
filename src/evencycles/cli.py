"""Command-line surface: find / paths / spectrum / modcheck / gen / sweep.

Exit codes: 0 certificate or witness, 1 hypothesis failure (or nothing to
report), 2 input error or output that cannot be written, 3
internal-invariant error or any other crash.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
import time
import traceback

from . import codecs, finder, generators, oracle
from .graphs import Cycle, Graph, GraphError, Path, _connectivity
from .oracle import CyclePairCertificate, GuardExceeded, PathPairCertificate

EXIT_OK = 0
EXIT_HYPOTHESIS = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class InputError(Exception):
    pass


def _load_graph(path: str, fmt: str) -> Graph:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if fmt == "auto":
        stripped = [ln for ln in text.splitlines() if ln.strip()]
        fmt = "graph6" if len(stripped) == 1 and " " not in stripped[0] else "edges"
    try:
        if fmt == "graph6":
            return codecs.decode_graph6(text)
        return codecs.decode_edge_list(text)
    except GraphError as exc:
        raise InputError(f"cannot parse {path} as {fmt}: {exc}") from exc


# ---------------------------------------------------------------------------
# certificate JSON


def outcome_to_doc(out: finder.Outcome, g: Graph, fmt: str) -> dict:
    doc = {"graph": {"n": g.n, "format": fmt}}
    if out.kind == "certificate":
        c = out.certificate
        doc.update(
            kind="cycle-pair",
            cycles=[list(c.c1.vertices), list(c.c2.vertices)],
            lengths=list(c.lengths),
        )
    elif out.kind == "k5-witness":
        w = out.witness
        doc.update(
            kind="k5-witness",
            blocks=[sorted(b.vertices) for b in w.decomposition.blocks],
            n=w.n,
            e=w.e,
        )
    else:
        f = out.failure
        doc.update(kind="hypothesis-failure", name=f.name, detail=f.detail)
    return doc


def path_cert_to_doc(cert: PathPairCertificate, g: Graph, fmt: str) -> dict:
    return {
        "kind": "path-pair",
        "x": cert.x,
        "y": cert.y,
        "paths": [list(cert.p1.vertices), list(cert.p2.vertices)],
        "lengths": list(cert.lengths),
        "graph": {"n": g.n, "format": fmt},
    }


def doc_to_certificate(doc: dict, g: Graph):
    """Parse and re-validate an emitted certificate document."""
    kind = doc.get("kind")
    if kind == "cycle-pair":
        c1, c2 = (Cycle(g, tuple(vs)) for vs in doc["cycles"])
        cert = CyclePairCertificate.make(c1, c2)
    elif kind == "path-pair":
        p1, p2 = (Path(g, tuple(vs)) for vs in doc["paths"])
        cert = PathPairCertificate.make(doc["x"], doc["y"], p1, p2)
    else:
        raise GraphError(f"document kind {kind!r} is not a certificate")
    ok, why = oracle.validate(cert, g)
    if not ok:
        raise GraphError(f"certificate failed re-validation: {why}")
    return cert


# ---------------------------------------------------------------------------
# commands


def cmd_find(args) -> int:
    g = _load_graph(args.file, args.format)
    out = finder.main_theorem(g)
    if args.json:
        print(json.dumps(outcome_to_doc(out, g, args.format), sort_keys=True))
    elif out.kind == "certificate":
        c = out.certificate
        print(f"certificate: lengths {c.lengths[0]} and {c.lengths[1]}")
        print(f"  cycle 1: {' '.join(map(str, c.c1.vertices))}")
        print(f"  cycle 2: {' '.join(map(str, c.c2.vertices))}")
    elif out.kind == "k5-witness":
        w = out.witness
        print(f"k5-witness: n = {w.n}, e = {w.e}, {len(w.decomposition.blocks)} block(s)")
    else:
        print(f"hypothesis failure: {out.failure}")
    return EXIT_OK if out.kind != "hypothesis-failure" else EXIT_HYPOTHESIS


def cmd_paths(args) -> int:
    g = _load_graph(args.file, args.format)
    for name, v in (("x", args.x), ("y", args.y)):
        if not 0 <= v < g.n:
            raise InputError(f"terminal --{name} {v} is not a vertex of a graph of order {g.n}")
    if args.x == args.y:
        raise InputError(f"terminals --x and --y are both {args.x}")
    try:
        cert = finder.two_paths_diff_two(g, args.x, args.y)
    except finder.HypothesisFailure as exc:
        print(f"hypothesis failure: {exc}")
        return EXIT_HYPOTHESIS
    if args.json:
        print(json.dumps(path_cert_to_doc(cert, g, args.format), sort_keys=True))
    else:
        print(f"path pair: lengths {cert.lengths[0]} and {cert.lengths[1]}")
        print(f"  path 1: {' '.join(map(str, cert.p1.vertices))}")
        print(f"  path 2: {' '.join(map(str, cert.p2.vertices))}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    g = _load_graph(args.file, args.format)
    spec = oracle.cycle_spectrum(g, size_guard=args.guard)
    print(f"n = {spec.n}, e = {spec.e}")
    if not spec.lengths:
        print("spectrum: empty")
    for k in sorted(spec.lengths):
        rep = spec.representatives[k]
        print(f"  length {k}: {' '.join(map(str, rep.vertices))}")
    return EXIT_OK


def cmd_modcheck(args) -> int:
    g = _load_graph(args.file, args.format)
    cyc = oracle.cycle_mod_residue(g, args.residue, args.modulus, size_guard=args.guard)
    if cyc is None:
        print(f"no cycle of length {args.residue} (mod {args.modulus})")
        return EXIT_HYPOTHESIS
    print(
        f"cycle of length {cyc.length} = {args.residue} (mod {args.modulus}): "
        + " ".join(map(str, cyc.vertices))
    )
    return EXIT_OK


def cmd_gen(args) -> int:
    spec = generators.GeneratorSpec(args.family, tuple(args.params), args.seed)
    g = generators.gen_named(spec)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(codecs.encode_graph6(g) + "\n")
        print(f"wrote {args.family} (n = {g.n}, e = {g.e}) to {args.out}")
    else:
        sys.stdout.write(codecs.encode_edge_list(g))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep

SWEEP_COLUMNS = [
    "index",
    "graph6",
    "n",
    "e",
    "density_ok",
    "connectivity",
    "outcome",
    "lengths",
    "oracle_agrees",
    "wall_time",
]


def _connectivity_class(g: Graph) -> str:
    return ("disconnected", "connected", "2-connected", "3-connected")[_connectivity(g)]


def _sweep_one(task) -> dict:
    idx, g6, check_oracle = task
    g = codecs.decode_graph6(g6)
    start = time.perf_counter()
    density_ok = 2 * g.e >= 5 * (g.n - 1)
    out = finder.main_theorem(g)
    lengths = ""
    agrees = ""
    if out.kind == "certificate":
        lengths = f"{out.certificate.lengths[0]}+{out.certificate.lengths[1]}"
    if check_oracle and out.kind != "hypothesis-failure":
        expected = oracle.has_consecutive_even_pair(g, size_guard=max(oracle.DEFAULT_GUARD, g.n))
        if out.kind == "certificate":
            ok, _ = oracle.validate(out.certificate, g)
            agrees = str(ok and expected).lower()
        else:
            agrees = str(not expected).lower()
    elapsed = time.perf_counter() - start
    return {
        "index": idx,
        "graph6": g6,
        "n": g.n,
        "e": g.e,
        "density_ok": str(density_ok).lower(),
        "connectivity": _connectivity_class(g),
        "outcome": out.kind,
        "lengths": lengths,
        "oracle_agrees": agrees,
        "wall_time": f"{elapsed:.6f}",
    }


def _sweep_corpus(source: str):
    """graph6 lines of the corpus: either `enum:<n>[:<filter>]`, streamed,
    or a file."""
    if source.startswith("enum:"):
        parts = source.split(":")
        try:
            n = int(parts[1])
        except (IndexError, ValueError) as exc:
            raise InputError(f"bad enumeration spec {source!r}") from exc
        tag = parts[2] if len(parts) > 2 else None
        try:
            return map(codecs.encode_graph6, generators.enumerate_small(n, tag))
        except GraphError as exc:
            raise InputError(str(exc)) from exc
    try:
        with open(source, "r", encoding="ascii") as fh:
            return [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read corpus {source}: {exc}") from exc


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, not {args.jobs}")
    lines = _sweep_corpus(args.corpus)
    tasks = ((i, g6, args.check_oracle) for i, g6 in enumerate(lines))
    swept = disagreements = 0
    with contextlib.ExitStack() as stack:
        if args.jobs > 1:
            from multiprocessing import Pool  # only here: it imports pickle and sockets

            records = stack.enter_context(Pool(args.jobs)).imap(_sweep_one, tasks)
        else:
            records = map(_sweep_one, tasks)
        sink = sys.stdout
        if args.csv:
            sink = stack.enter_context(open(args.csv, "w", newline="", encoding="ascii"))
        writer = csv.DictWriter(sink, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        for swept, rec in enumerate(records, 1):
            writer.writerow(rec)
            disagreements += rec["oracle_agrees"] == "false"
    print(f"swept {swept} graphs; disagreements: {disagreements}")
    return EXIT_OK if disagreements == 0 else EXIT_INTERNAL


# ---------------------------------------------------------------------------


def _add_graph_input(p):
    p.add_argument("file", help="input graph file")
    p.add_argument("--format", choices=["auto", "graph6", "edges"], default="auto")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="evencycles",
        description="Certifying search for two cycles of consecutive even lengths",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("find", help="run the main trichotomy on a graph")
    _add_graph_input(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_find)

    p = sub.add_parser(
        "paths",
        help="two x-y paths differing in length by two",
        description="Two x-y paths of g - xy whose lengths differ by two. Needs g + xy "
        "2-connected and degree >= 3 off x and y, and every edge avoiding x and y "
        "of degree sum >= 7 unless g - xy is bipartite.",
    )
    _add_graph_input(p)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_paths)

    p = sub.add_parser("spectrum", help="exact cycle spectrum (guarded)")
    _add_graph_input(p)
    p.add_argument("--guard", type=int, default=oracle.DEFAULT_GUARD)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("modcheck", help="shortest cycle of length r (mod m)")
    _add_graph_input(p)
    p.add_argument("--residue", type=int, required=True)
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--guard", type=int, default=oracle.DEFAULT_GUARD)
    p.set_defaults(fn=cmd_modcheck)

    p = sub.add_parser("gen", help="generate a named family member")
    p.add_argument("family", choices=sorted(generators._FAMILIES))
    p.add_argument("params", type=int, nargs="*")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("sweep", help="batch run over a corpus, CSV report")
    p.add_argument("corpus", help="graph6 file or enum:<n>[:<filter>]")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--csv", default=None)
    p.add_argument("--check-oracle", action="store_true")
    p.set_defaults(fn=cmd_sweep)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, GuardExceeded, GraphError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:  # a missing output directory, or a reader of stdout that left
        if isinstance(exc, BrokenPipeError):  # else the flush of stdout at exit fails again
            with contextlib.suppress(OSError, ValueError):
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except finder.HypothesisFailure as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except finder.InternalInvariantError as exc:
        print(f"internal invariant error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # a crash is a bug: never let it exit 1
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
