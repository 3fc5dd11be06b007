#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S --seed K

Runs `python3 bench/run.py --workload W --seed K --seconds S --trace 0` in
the checkout PARENT and in the checkout CHANGE, N times each, as N pairs.
Pair i runs PARENT first when i is even and CHANGE first when i is odd, so
neither side always runs first.  Each run's last line of standard output is
its JSON result.  For every metric it then prints each side's median with
its quartiles, the ratio of the medians (change / parent) and in how many
pairs the change was better, in the direction that BENCHMARK.json gives
(lower when it names none).  It exits 1 if a run failed, answered wrongly
or had a failed operation, else 0.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

BENCHMARK = pathlib.Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent_lines: list, change_lines: list, better: dict) -> list:
    """One row per metric of the results, in the order of the first one:
    (metric, unit, parent quartiles, change quartiles, ratio of the
    medians, pairs the change won, pairs).  parent_lines[i] and
    change_lines[i] are the JSON result lines of pair i; better maps a
    metric to "lower" or "higher" (default "lower")."""
    parents = [json.loads(line)["metrics"] for line in parent_lines]
    changes = [json.loads(line)["metrics"] for line in change_lines]
    if not parents or len(parents) != len(changes):
        raise ValueError("need one parent and one change result per pair")
    rows = []
    for name, first in parents[0].items():
        a = [m[name]["value"] for m in parents]
        b = [m[name]["value"] for m in changes]
        if better.get(name, "lower") == "lower":
            won = sum(y < x for x, y in zip(a, b))
        else:
            won = sum(y > x for x, y in zip(a, b))
        qa, qb = quartiles(a), quartiles(b)
        ratio = qb[1] / qa[1] if qa[1] else float("nan")
        rows.append((name, first["unit"], qa, qb, ratio, won, len(a)))
    return rows


def format_rows(rows: list) -> str:
    out = [f"{'metric':<12} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}"
           f" {'ratio':>7} {'won':>6}"]
    for name, unit, qa, qb, ratio, won, pairs in rows:
        side = [f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}] {unit}" for q in (qa, qb)]
        out.append(f"{name:<12} {side[0]:>34} {side[1]:>34} {ratio:>7.4f} {won:>3}/{pairs:<2}")
    return "\n".join(out)


def run_once(checkout: pathlib.Path, args) -> tuple:
    """(ok, the JSON result line) of one bench run in checkout."""
    cmd = [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    run = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stderr)
        raise SystemExit(f"bench run in {checkout} exited {run.returncode}")
    result = json.loads(lines[-1])
    return result["correct"] and not result["failed"], lines[-1]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=pathlib.Path)
    p.add_argument("change", type=pathlib.Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    better = {m["name"]: m["better"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    sides, lines, ok = (args.parent, args.change), ([], []), True
    for i in range(args.pairs):
        for s in (0, 1) if i % 2 == 0 else (1, 0):
            good, line = run_once(sides[s], args)
            ok = ok and good
            lines[s].append(line)
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s a run, "
          f"{args.pairs} pairs; parent {args.parent}, change {args.change}")
    print(format_rows(summarize(*lines, better)))
    if not ok:
        print("a run answered wrongly or had a failed operation", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
