"""Independent shadow model of a tree store, used to check every result.

Nodes are plain path tuples.  Subtrees are found by prefix ranges over a
sorted list of tuples, matrices come from the oracle primitive factors in
``tests/oracles.py`` and interval order from ``fractions.Fraction``.
Nothing here calls into ``mobiustree``.
"""

from __future__ import annotations

import bisect
from fractions import Fraction

from oracles import mat_mul4

IDENTITY = (1, 0, 0, 1)


def dotted(path: tuple) -> str:
    return ".".join(map(str, path)) if path else "root"


def interval_key(m: tuple) -> tuple:
    """(low, high) endpoints of the node interval of matrix m."""
    a, b, c, d = m
    open_pt, closed_pt = Fraction(a, c), Fraction(a + b, c + d)
    if a * d - b * c == -1:
        return open_pt, closed_pt
    return closed_pt, open_pt


class Shadow:
    """Path tuples with payloads, kept in lexicographic order so every
    subtree is one contiguous slice."""

    def __init__(self, items):
        self.payload: dict[tuple, str] = {}
        self.path_of: dict[str, tuple] = {}
        self.slots: dict[tuple, set] = {}
        for path, payload in items:
            self._link(path, payload)
        self.paths = sorted(self.payload)
        self._matrix: dict[tuple, tuple] = {(): IDENTITY}

    def __len__(self):
        return len(self.paths)

    def _link(self, path, payload):
        self.payload[path] = payload
        self.path_of[payload] = path
        self.slots.setdefault(path[:-1], set()).add(path[-1])

    def _unlink(self, path):
        del self.path_of[self.payload.pop(path)]
        self._matrix.pop(path, None)
        sibs = self.slots[path[:-1]]
        sibs.discard(path[-1])
        if not sibs:
            del self.slots[path[:-1]]

    def _range(self, path):
        """Slice bounds of path and everything below it."""
        upper = path[:-1] + (path[-1] + 1,)
        return bisect.bisect_left(self.paths, path), bisect.bisect_left(self.paths, upper)

    def matrix(self, path: tuple) -> tuple:
        """Product of primitive factors [[q,1],[1,0]], memoised per prefix."""
        memo = self._matrix
        missing = []
        while path not in memo:
            missing.append(path)
            path = path[:-1]
        m = memo[path]
        for p in reversed(missing):
            m = memo[p] = mat_mul4(m, (p[-1], 1, 1, 0))
        return m

    def descendants(self, path: tuple) -> list:
        lo, hi = self._range(path)
        return self.paths[lo + 1 : hi]

    def subtree(self, path: tuple) -> list:
        lo, hi = self._range(path)
        return self.paths[lo:hi]

    def subtree_size(self, path: tuple) -> int:
        lo, hi = self._range(path)
        return hi - lo

    def children(self, path: tuple) -> list:
        return [path + (s,) for s in sorted(self.slots.get(path, ()))]

    def next_slot(self, parent: tuple) -> int:
        return max(self.slots.get(parent, ()), default=0) + 1

    def free_slot(self, parent: tuple, rng) -> int:
        """A random unoccupied slot at or below the next append slot."""
        top = self.next_slot(parent)
        taken = self.slots.get(parent, ())
        free = [s for s in range(1, top) if s not in taken]
        return rng.choice(free) if free else top

    def add(self, path: tuple, payload: str) -> None:
        self._link(path, payload)
        bisect.insort(self.paths, path)

    def remove_subtree(self, path: tuple) -> list:
        lo, hi = self._range(path)
        doomed = self.paths[lo:hi]
        del self.paths[lo:hi]
        for p in doomed:
            self._unlink(p)
        return doomed

    def move_subtree(self, path: tuple, new_path: tuple) -> list:
        """Re-prefix the subtree at path to new_path; returns the moved
        payloads with their new paths."""
        moved = [(self.payload[p], new_path + p[len(path) :]) for p in self.subtree(path)]
        self.remove_subtree(path)
        for payload, p in moved:
            self.add(p, payload)
        return moved

    # expected values in the store's own output conventions

    def ordered(self, paths) -> list:
        """Paths in interval order (low, then high endpoint)."""
        return sorted(paths, key=lambda p: interval_key(self.matrix(p)))

    def record_line(self, path: tuple) -> str:
        a, _, c, _ = self.matrix(path)
        return f"{dotted(path)}\t{a}/{c}\t{self.payload[path]}"

    def stats(self) -> tuple:
        """(nodes, max_depth, max_numerator_bits, max_key_bytes)."""
        depth = bits = key = 0
        for p in self.paths:
            a, b, c, d = self.matrix(p)
            depth = max(depth, len(p))
            bits = max(bits, a.bit_length())
            key = max(key, len(f"{a}\t{b}\t{c}\t{d}"))
        return len(self.paths), depth, bits, key
