"""Benchmark for evencycles.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--workload all`` it runs every workload in turn, each in a fresh
process.  For one workload it builds the inputs from the seed, then runs
whole rounds of its operations for about S seconds (at least one round) in
this process, on one thread.  Afterwards every answer is checked with bench/check.py.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run (see
bench/README.md).  Run it from the root of a source checkout; it imports the
program from ``src``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 20

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-probe",
        action="store_true",
        help="only build the inputs, print the speed samples taken and exit (times set-up)",
    )
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def tail_percentile(ops_per_round: int) -> float:
    """Highest percentile, to 0.1, with at least ten operations of a round beyond it."""
    return math.floor(1000 * (ops_per_round - 10) / ops_per_round) / 10


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def probe_seconds(start: float, probe: list) -> float:
    """Set-up time at reference speed of a probe started at `start` that
    took the (begin, end, reference) samples `probe`: the time before the
    first sample at its speed, and each later stretch between samples at
    the mean speed of the samples around it.  The samples' own time is left
    out."""
    (begin, end, ref), *rest = probe
    scaled = (begin - start) / ref
    for next_begin, next_end, next_ref in rest:
        scaled += (next_begin - end) * 2 / (ref + next_ref)
        end, ref = next_end, next_ref
    return scaled * speed.REFERENCE_S


def time_setup(args) -> float:
    """Median over fresh processes of the time from start until inputs are
    ready, at reference speed.

    A probe samples the speed as it starts, once imported and once ready.
    Only the probe's own samples count: the two vCPUs need not run at the
    same speed, and the probe need not run on the CPU of this process.
    """
    samples = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            out = child.stdout.read()
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
        samples.append(probe_seconds(start, json.loads(out)))
    return statistics.median(samples)


def run_round(workload, tracer, summaries, first_op: int, answers: dict) -> dict:
    """Time one round; add each distinct (operation, answer) to `answers`."""
    spans = []
    failures = 0
    index = first_op
    # keep the benchmark's own objects out of the collector's full passes
    gc.collect()
    gc.freeze()
    speed.start_round()
    for op in workload.round():
        speed.tick()
        if tracer:
            tracer.current_op = index
        start = time.perf_counter()
        try:
            out = op.call()
            error = None
        except Exception as exc:  # a raising operation counts as failed
            out, error = None, exc
        end = time.perf_counter()
        if tracer:
            tracer.end_op(end)
        index += 1
        spans.append((start, end))
        if error is None:
            error = op.fails(out)
            answers.setdefault((op.kind, op.graph, op.terminals, summaries[op.kind](out)), op)
        if error is not None:
            failures += 1
            print(f"failed: {op.kind} {op.graph}: {error!r}"[:300], file=sys.stderr)
    return {
        "times": [end - start for start, end in spans],
        "scaled": speed.scale(spans, speed.end_round()),
        "failed": failures,
    }


def check_answers(workload, answers: dict) -> list:
    problems = []
    for (_, _, _, answer), op in answers.items():
        why = workload.check(op, answer)
        if why:
            problems.append(f"{op.kind} {op.graph} {op.terminals}: {why}")
    return problems + workload.final_checks()


def run_all(args, workloads) -> int:
    """Run every workload, each in a fresh process, one after the other."""
    code = 0
    for name in workloads:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        sys.stdout.flush()
        code = max(code, subprocess.run(cmd).returncode)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        probe = [speed.sample()]
    sys.path.insert(0, SRC)
    try:
        import evencycles  # noqa: F401  (fails here, cleanly, without src)
        from workloads import SUMMARIES, WORKLOADS
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        probe.append(speed.sample())
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        probe.append(speed.sample())
        print(json.dumps(probe))
        return 0

    tracer = None
    setup_s = None
    if args.trace:
        import tracing

        tracer = tracing.install_on_program()
    else:
        setup_s = time_setup(args)
        workload.tick_inside()

    rounds = []
    answers = {}
    begin = time.perf_counter()
    while True:
        first_op = sum(len(r["times"]) for r in rounds)
        rounds.append(run_round(workload, tracer, SUMMARIES, first_op, answers))
        elapsed = time.perf_counter() - begin
        if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    spans = len(tracer.start) if tracer else 0

    problems = check_answers(workload, answers)
    for why in problems[:20]:
        print(f"wrong: {why}", file=sys.stderr)

    ops_per_round = len(rounds[0]["times"])
    # each operation's time is its median over the rounds, at reference speed
    per_op = [statistics.median(times) for times in zip(*(r["scaled"] for r in rounds))]
    walls = [sum(r["times"]) for r in rounds]
    attempted = ops_per_round * len(rounds)
    failed = sum(r["failed"] for r in rounds)
    p_tail = tail_percentile(ops_per_round)
    if tracer:
        metrics = tracer.layer_metrics(spans, len(rounds), sum(walls))
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, f"{args.workload}.spans"), spans)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (sum(per_op), "s"),
            "op_p50_ms": (1000 * statistics.median(per_op), "ms"),
            "op_tail_ms": (1000 * percentile(per_op, p_tail), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(rounds)} round(s) of {ops_per_round} operations, "
          f"mean round {sum(walls) / len(rounds):.4g} s as timed, "
          f"{sum(map(sum, (r['scaled'] for r in rounds))) / len(rounds):.4g} s at reference speed; "
          f"op_tail_ms is the p{p_tail:g} of {ops_per_round} operation times")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  attempted = {attempted}, failed = {failed}, correct = {not problems}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
