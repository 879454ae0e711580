"""A fixed pure-Python loop that measures how fast the machine runs code
like finsite's at the moment it is called.

On a shared virtual machine other tenants slow every process down in
stretches of seconds to minutes, by a quarter or more. A task's time
divided by the time of this loop, taken around and during it, depends far
less on that; multiplied by REFERENCE_S it reads as seconds on the machine
at a fixed speed. The loop imitates finsite's two kinds of inner loop, the
frozenset building and hashing of sieve enumeration and the small
modular row reductions of linalg, because a loop of plain integer
arithmetic slows down differently under contention. Nothing here calls
finsite, so a change to finsite cannot change the yardstick.
"""

from __future__ import annotations

import signal
import statistics
import time

# The loop's time on the development machine (2-vCPU VM, Python 3.11.7) at
# its typical speed. Only ratios to it matter; it is never re-tuned, or
# figures before and after the change would not compare.
REFERENCE_S = 0.0007
REPEATS = 2
# how often a long task is interrupted for a probe
INTERVAL_S = 0.25


def _sieve_like() -> int:
    out = set()
    for i in range(300):
        out.add(frozenset((i % 7, j) for j in range(i % 9)))
    return len(out)


def _rref_like() -> int:
    rank = 0
    for rep in range(12):
        m = [[(r * 7 + c * 3 + rep) % 3 for c in range(10)] for r in range(8)]
        row = 0
        for col in range(10):
            piv = next((r for r in range(row, 8) if m[r][col]), None)
            if piv is None:
                continue
            m[row], m[piv] = m[piv], m[row]
            inv = 1 if m[row][col] == 1 else 2
            m[row] = [(v * inv) % 3 for v in m[row]]
            for r in range(8):
                if r != row and m[r][col]:
                    f = m[r][col]
                    m[r] = [(a - f * b) % 3 for a, b in zip(m[r], m[row])]
            row += 1
        rank += row
    return rank


def probe() -> float:
    """Seconds of the fastest of REPEATS runs of the loop."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _sieve_like()
        _rref_like()
        best = min(best, time.perf_counter() - t0)
    return best


class Sampler:
    """Times a block and probes the machine's speed before it, every
    INTERVAL_S during it and after it. The probes during the block run in
    a SIGALRM handler, which Python calls between bytecodes of the main
    thread, so a task of several seconds is not judged by the speed at its
    two ends; their time is taken out of the block's.

        with Sampler() as sample:
            work()
        sample.seconds, sample.scaled_seconds

    A run of short blocks passes each block the previous one's last probe
    as ``before``, which halves the probing.
    """

    def __init__(self, before: float | None = None) -> None:
        self._before = before

    def __enter__(self) -> "Sampler":
        self.probes = [probe() if self._before is None else self._before]
        self._stolen = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._during)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def _during(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.probes.append(probe())
        self._stolen += time.perf_counter() - t0

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self.probes.append(probe())
        self.seconds = t1 - self._t0 - self._stolen
        self.scaled_seconds = (self.seconds * REFERENCE_S
                               / statistics.median(self.probes))
