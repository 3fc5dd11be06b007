"""Machine-speed reference for the benchmark's timings.

The 2-vCPU virtual machine the benchmark was built on runs Python at one
of two speeds, about 1.5x apart, switching every second or so, and the
share of time spent at the fast speed changes from minute to minute.  Raw
times of the same work then spread by a third between runs.  `reference`
times a fixed piece of pure-Python work (breadth-first search, set and
tuple-sort work on a fixed graph; nothing from evencycles) and `scale`
divides each operation's time by the reference times measured around it,
giving seconds at the speed where `reference` takes `REFERENCE_S`.
"""

from __future__ import annotations

import functools
import random
import time
from bisect import bisect_left, bisect_right
from collections import deque

# seconds one `reference` call takes at that machine's fast speed
REFERENCE_S = 0.0005

# a reference sample is taken at the start and end of every round, and in
# between when this long has passed since the last one (see `tick`)
INTERVAL_S = 0.05


def _graph(n: int = 200) -> list:
    rng = random.Random(0)
    adj = [[] for _ in range(n)]
    for u in range(n):
        for v in rng.sample(range(n), 4):
            if v != u:
                adj[u].append(v)
                adj[v].append(u)
    return adj


_ADJ = _graph()


def reference() -> float:
    """Seconds taken by the fixed reference work, now: the best of three
    runs, so that an interrupt does not count as a slow machine."""
    return min(_reference_once() for _ in range(3))


def _reference_once() -> float:
    start = time.perf_counter()
    for root in range(0, len(_ADJ), 40):
        seen = {root}
        queue = deque([root])
        while queue:
            for w in _ADJ[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        sorted((x % 7, x) for x in seen)
    return time.perf_counter() - start


def sample() -> tuple:
    """(begin, end, reference seconds) of a reference sample taken now."""
    begin = time.perf_counter()
    ref = reference()
    return begin, time.perf_counter(), ref


# the current round's samples, in time order; empty outside a round
_round: list = []


def start_round():
    _round.clear()
    _round.append(sample())


def tick():
    """Take a sample if INTERVAL_S has passed since the last one, in a round.

    The runner ticks before every operation.  A workload whose operation runs
    for seconds also ticks from inside it (`tick_inside`), so that the
    operation is scaled by the speed while it ran."""
    if _round and time.perf_counter() - _round[-1][1] >= INTERVAL_S:
        _round.append(sample())


def end_round() -> list:
    """The round's samples, one more taken now included; ends the round."""
    _round.append(sample())
    samples = list(_round)
    _round.clear()
    return samples


def tick_inside(module, name: str):
    """Make the function `module.name` tick before each call.  Without such a
    function nothing changes, and the operation is scaled by the samples
    around it."""
    fn = getattr(module, name, None)
    if fn is None:
        return

    @functools.wraps(fn)
    def ticking(*args, **kwargs):
        tick()
        return fn(*args, **kwargs)

    setattr(module, name, ticking)


def scale(spans: list, samples: list) -> list:
    """Operation times at reference speed.

    `spans` holds each operation's (start, end) and `samples` the round's
    samples in time order, the first taken before the first operation.  The
    time of the samples taken inside an operation is left out of it, and
    the operation's speed is the mean of those samples and of the samples
    within INTERVAL_S of it.  An operation without samples inside uses the
    samples within one operation length of it (at least INTERVAL_S), and
    always the last sample before it: the speed around it is the best
    estimate of its own.
    """
    begins = [b for b, _, _ in samples]
    ends = [e for _, e, _ in samples]
    prefix = [0.0]
    for _, _, ref in samples:
        prefix.append(prefix[-1] + ref)
    out = []
    for start, end in spans:
        first, past = bisect_right(begins, start), bisect_left(ends, end)
        inside = sum(ends[i] - begins[i] for i in range(first, past))
        length = end - start - inside
        reach = INTERVAL_S if past > first else max(length, INTERVAL_S)
        lo = min(bisect_left(ends, start - reach), bisect_right(ends, start) - 1)
        hi = bisect_right(ends, end + reach)
        out.append(length * REFERENCE_S * (hi - lo) / (prefix[hi] - prefix[lo]))
    return out
