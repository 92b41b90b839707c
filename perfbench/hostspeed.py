"""How fast the shared host runs right now, from a fixed calibration kernel.

The reference host (2 vCPUs of a shared machine) switches between two
speeds for seconds to minutes at a time: pure-Python code runs 1.5 to 2
times slower in the slow state, in wall time and in CPU time alike.  A
run's timings therefore follow the share of it that the host spent in
each state.  ``HostSpeed`` times a fixed kernel of pure-Python work, that
does not touch mobiustree, between blocks of operations; a timing taken
in the block is multiplied by ``REFERENCE_S / kernel time`` around it,
which turns it into the time it would have taken with the kernel at its
reference speed.  A change to mobiustree changes the timings and not the
kernel, so it shows in the scaled figures as it would in raw ones.

Usage: python3 perfbench/hostspeed.py [seconds]   (prints kernel times)
"""

from __future__ import annotations

import sys
import time

# the kernel's time on the reference host in its fast state (Python
# 3.11.7); the scaled figures are in milliseconds of that state
REFERENCE_S = 0.0007


class _Node:
    __slots__ = ("key", "parent")

    def __init__(self, key, parent):
        self.key = key
        self.parent = parent


def kernel() -> int:
    """Build a chain of small objects keyed by tuples in a dict, then walk
    it back: the kind of work a store operation does with its records.
    Of the kernels tried (small-int arithmetic, this one, sorting tuples,
    big-int arithmetic, lookups scattered over a large table), this one
    slowed down in the slow state by the amounts closest to those of the
    workloads' store operations."""
    node = None
    index = {}
    for i in range(1500):
        node = _Node((i, i + 1), node)
        index[node.key] = i
    acc = 0
    while node is not None:
        acc += index[node.key]
        node = node.parent
    return acc


class HostSpeed:
    def sample(self, reps: int = 3) -> float:
        """The kernel's time now: the least of reps runs, so a single
        preemption does not count."""
        best = float("inf")
        perf = time.perf_counter
        for _ in range(reps):
            t0 = perf()
            kernel()
            best = min(best, perf() - t0)
        return best

    @staticmethod
    def factor(before: float, after: float) -> float:
        """The scale for timings taken between two samples."""
        return REFERENCE_S / ((before + after) / 2)


if __name__ == "__main__":
    seconds = float(sys.argv[1]) if len(sys.argv) > 1 else 5.0
    speed = HostSpeed()
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        print(f"{speed.sample() * 1000:.4f} ms")
        time.sleep(0.2)
