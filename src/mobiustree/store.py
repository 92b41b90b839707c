"""File-backed hierarchical store indexed by the interval encoding.

Payload-bearing nodes are keyed by their matrix.  Descendant queries run
as range scans over an index ordered by exact interval endpoints,
ancestor queries are pure parent() arithmetic, inserts never touch
existing keys, and subtree relocation is the detach/attach matrix
algebra.

Persistence format ("mobius-tree v1"): a header line, then one record
per line as a<TAB>b<TAB>c<TAB>d<TAB>payload with the matrix entries in
decimal, lines sorted by interval low then high endpoint, LF endings,
UTF-8.  Payloads escape tab, newline and backslash as \\t, \\n, \\\\;
any other character, CR included, is written as is.

Concurrency contract: any number of readers or a single mutator; the
store does not lock internally.  Query results are plain lists.
"""

from __future__ import annotations

import bisect
import os
import re
import stat
import tempfile
from dataclasses import dataclass
from pathlib import Path as FsPath
from typing import Iterable, Union

from .exactmath import DomainError, from_decimal, to_decimal
from .encoding import (
    MobiusMatrix,
    Path,
    _rebase,
    child,
    is_ancestor,
    matrix_to_path,
    parent as _matrix_parent,
    path_to_matrix,
)

__all__ = [
    "StoreError",
    "MissingNodeError",
    "OccupiedSlotError",
    "CycleError",
    "IntegrityError",
    "LoadError",
    "NodeRecord",
    "StoreStats",
    "TreeStore",
    "ROOT",
]

FILE_HEADER = "mobius-tree v1"

# the four matrix fields of a record line, up to the payload's tab
_ENTRIES_RE = re.compile(r"[0-9]+\t[0-9]+\t[0-9]+\t[0-9]+\t")
_DIGITS_RE = re.compile(r"[0-9]+")

# sentinel accepted wherever a parent/target node is expected
ROOT = "root"


class StoreError(Exception):
    """Base class for store failures."""


class MissingNodeError(StoreError):
    pass


class OccupiedSlotError(StoreError):
    pass


class CycleError(StoreError):
    pass


class IntegrityError(StoreError):
    pass


class LoadError(StoreError):
    """A persistence file could not be parsed; .line is 1-based."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class NodeRecord:
    """A stored node: a non-identity matrix plus an opaque UTF-8 payload.

    Records are identity objects owned by one store; the store re-keys
    the matrix in place on move_subtree, so handles stay valid.
    """

    __slots__ = ("matrix", "payload")

    def __init__(self, matrix: MobiusMatrix, payload: str):
        self.matrix = matrix
        self.payload = payload

    def __repr__(self):
        return f"NodeRecord({self.matrix!r}, {self.payload!r})"


@dataclass(frozen=True)
class StoreStats:
    nodes: int
    max_depth: int
    max_numerator_bits: int
    max_key_bytes: int


ParentRef = Union[NodeRecord, MobiusMatrix, Path, str, None]


def escape_payload(payload: str) -> str:
    return payload.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


_ESCAPE_RE = re.compile(r"\\(.?)", re.DOTALL)
_UNESCAPED = {"t": "\t", "n": "\n", "\\": "\\"}


def _unescape_one(match: re.Match) -> str:
    ch = match.group(1)
    if ch in _UNESCAPED:
        return _UNESCAPED[ch]
    if not ch:
        raise ValueError("dangling backslash in payload")
    raise ValueError(f"bad escape \\{ch} in payload")


def unescape_payload(text: str) -> str:
    return _ESCAPE_RE.sub(_unescape_one, text)


def _endpoint_keys(m: MobiusMatrix, k: int) -> tuple[int, int]:
    """floor(lo * 2**k), floor(hi * 2**k) for the endpoints a/c and
    (a+b)/(c+d) of m's interval; a non-identity m has c >= 1."""
    a, b, c, d = m.a, m.b, m.c, m.d
    open_key = (a << k) // c
    closed_key = ((a + b) << k) // (c + d)
    # det is +-1, and -1 and +1 differ mod 4: det -1 is (a/c, (a+b)/(c+d)]
    if ((a & 3) * (d & 3) - (b & 3) * (c & 3)) & 3 == 3:
        return open_key, closed_key
    return closed_key, open_key


def _parent_and_slot(m: MobiusMatrix) -> tuple[MobiusMatrix, int]:
    """Parent matrix and last path component of a non-identity matrix,
    both O(1)."""
    pm = _matrix_parent(m)
    assert pm is not None
    slot = (m.a - pm.b) // m.b
    return pm, slot


class TreeStore:
    """In-memory tree of NodeRecords with exact interval indexing."""

    def __init__(self):
        self._records: dict[tuple[int, int, int, int], NodeRecord] = {}
        # parent matrix key -> occupied child indices
        self._children: dict[tuple[int, int, int, int], set[int]] = {}
        # (lo_key, hi_key, record) sorted by key, where a key is the
        # endpoint scaled by 2**_shift and floored (see _endpoint_keys);
        # rebuilt lazily after any mutation
        self._index: list[tuple[int, int, NodeRecord]] | None = None
        self._shift = 0

    # -- plumbing ---------------------------------------------------------

    @staticmethod
    def _key(m: MobiusMatrix) -> tuple[int, int, int, int]:
        return m.entries()

    def _resolve_parent_ref(self, parent: ParentRef) -> MobiusMatrix:
        """Normalize a parent/target reference to a present (or root)
        matrix."""
        if parent is None or (isinstance(parent, str) and parent == ROOT):
            return MobiusMatrix.IDENTITY
        if isinstance(parent, str):
            parent = Path.parse(parent)
        if isinstance(parent, NodeRecord):
            m = parent.matrix
        elif isinstance(parent, Path):
            m = path_to_matrix(parent)
        elif isinstance(parent, MobiusMatrix):
            m = parent
        else:
            raise TypeError(f"bad parent reference: {parent!r}")
        if m.is_identity:
            return m
        if self._key(m) not in self._records:
            raise MissingNodeError(f"no node at {matrix_to_path(m)}")
        return m

    def _require(self, record: NodeRecord) -> None:
        if self._records.get(self._key(record.matrix)) is not record:
            raise MissingNodeError("record is not in this store")

    def _insert(self, record: NodeRecord, pm: MobiusMatrix, slot: int) -> None:
        """Add a record whose parent matrix and slot the caller holds."""
        self._records[self._key(record.matrix)] = record
        self._children.setdefault(self._key(pm), set()).add(slot)
        self._index = None

    def _remove(self, record: NodeRecord) -> None:
        key = self._key(record.matrix)
        del self._records[key]
        self._children.pop(key, None)
        pm, slot = _parent_and_slot(record.matrix)
        kids = self._children.get(self._key(pm))
        if kids is not None:
            kids.discard(slot)
            if not kids:
                self._children.pop(self._key(pm), None)
        self._index = None

    def _choose_slot(
        self, pm: MobiusMatrix, index: int | None, vacating: int | None = None
    ) -> int:
        """Child slot under pm for a node being placed there: the
        requested index if it is free, else 1 + the highest occupied
        slot.  vacating is pm's slot that the placed node itself frees
        (a move under its own parent)."""
        occupied = self._children.get(self._key(pm), frozenset())
        if vacating is not None:
            occupied = occupied - {vacating}
        if index is None:
            return max(occupied, default=0) + 1
        if not isinstance(index, int) or index < 1:
            raise DomainError(f"child index must be >= 1, got {to_decimal(index)}")
        if index in occupied:
            raise OccupiedSlotError(
                f"slot {to_decimal(index)} under {matrix_to_path(pm)} is occupied"
            )
        return index

    def _ensure_index(self) -> list[tuple[int, int, NodeRecord]]:
        if self._index is None:
            recs = self._records.values()
            # Exact integer keys floor(r * 2**k): distinct endpoints
            # p/q != r/s differ by at least 1/(q*s) > 2**-k, so the floors
            # keep the (lo, hi) order and ties.  c + d is the larger of a
            # node's two endpoint denominators.
            max_den = max((r.matrix.c + r.matrix.d for r in recs), default=0)
            k = self._shift = 2 * max_den.bit_length() + 2
            idx = [(*_endpoint_keys(r.matrix, k), r) for r in recs]
            # no two nodes share both endpoints, so records never compare
            idx.sort()
            self._index = idx
        return self._index

    # -- queries ----------------------------------------------------------

    def __len__(self):
        return len(self._records)

    def __iter__(self) -> Iterable[NodeRecord]:
        return iter(self._records.values())

    def resolve(self, path: Path | str) -> NodeRecord:
        """Record at a path; raises MissingNodeError."""
        if isinstance(path, str):
            path = Path.parse(path)
        key = self._key(path_to_matrix(path))
        rec = self._records.get(key)
        if rec is None:
            raise MissingNodeError(f"no node at {path}")
        return rec

    def all_nodes(self) -> list[NodeRecord]:
        """Every record, ordered by interval low then high endpoint."""
        return [rec for _, _, rec in self._ensure_index()]

    def children(self, parent: ParentRef = ROOT) -> list[NodeRecord]:
        """Immediate children of a node (or of the root), ordered by
        interval low endpoint.

        Child n's interval is the image of (n, n+1] under the parent's
        map (a*x + b)/(c*x + d), which keeps order for determinant +1
        and reverses it for -1, so the slots sorted that way give the
        interval order."""
        pm = self._resolve_parent_ref(parent)
        slots = sorted(self._children.get(self._key(pm), ()), reverse=pm.det == -1)
        return [self._records[self._key(child(pm, n))] for n in slots]

    def descendants(self, node: NodeRecord) -> list[NodeRecord]:
        """All records whose interval nests strictly inside the node's,
        as one slice of the ordered index; ordered by interval low
        endpoint.

        Tree intervals are nested or disjoint, so a record whose low
        endpoint lies strictly inside the node's interval is a
        descendant, and one whose low endpoint is the node's high
        endpoint is not.  Records sharing the node's low endpoint are
        its ancestors, itself and its descendants, ordered by high
        endpoint; only those that end below the node's high endpoint
        are descendants.
        """
        self._require(node)
        idx = self._ensure_index()
        lo, hi = _endpoint_keys(node.matrix, self._shift)
        # probe (key,) sorts before every full entry with that low key
        i = bisect.bisect_left(idx, (lo,))
        j = bisect.bisect_left(idx, (hi,), i)
        out = []
        while i < j and idx[i][0] == lo:
            if idx[i][1] < hi:
                out.append(idx[i][2])
            i += 1
        out += [rec for _, _, rec in idx[i:j]]
        return out

    def ancestors(self, node: NodeRecord) -> list[NodeRecord]:
        """Ancestor chain by parent() arithmetic alone (no index scan),
        root side first, root excluded."""
        self._require(node)
        chain = []
        m = node.matrix
        while True:
            pm = _matrix_parent(m)
            if pm.is_identity:
                break
            rec = self._records.get(self._key(pm))
            if rec is None:
                raise IntegrityError(
                    f"ancestor {matrix_to_path(pm)} of {matrix_to_path(node.matrix)} is missing"
                )
            chain.append(rec)
            m = pm
        chain.reverse()
        return chain

    def stats(self) -> StoreStats:
        """Exact aggregates; key bytes measure the tab-joined decimal
        matrix entries, the key portion of a record line."""
        max_depth = 0
        # depths by walking the child slots down from the root: one
        # child() per record, where decoding a path costs O(depth)
        stack = [(MobiusMatrix.IDENTITY, 0)]
        while stack:
            pm, depth = stack.pop()
            max_depth = max(max_depth, depth)
            for slot in self._children.get(self._key(pm), ()):
                stack.append((child(pm, slot), depth + 1))
        max_bits = 0
        max_key = 0
        for rec in self._records.values():
            m = rec.matrix
            max_bits = max(max_bits, m.a.bit_length())
            max_key = max(max_key, len("\t".join(map(to_decimal, m.entries()))))
        return StoreStats(len(self._records), max_depth, max_bits, max_key)

    # -- mutation ---------------------------------------------------------

    def add_child(self, parent: ParentRef, payload: str, index: int | None = None) -> NodeRecord:
        """Insert a new child under parent (or the root).

        Without an index the node takes 1 + the highest occupied child
        slot (1 if none); interior gaps from deletions are not reused
        unless requested explicitly.  No existing record is modified.
        """
        if not isinstance(payload, str):
            raise TypeError("payload must be str")
        try:
            payload.encode()
        except UnicodeEncodeError:
            raise DomainError("payload cannot be encoded as UTF-8") from None
        pm = self._resolve_parent_ref(parent)
        slot = self._choose_slot(pm, index)
        rec = NodeRecord(child(pm, slot), payload)
        self._insert(rec, pm, slot)
        return rec

    def delete_subtree(self, node: NodeRecord) -> int:
        """Remove the node and all its descendants; returns the count."""
        self._require(node)
        doomed = [node] + self.descendants(node)
        for rec in doomed:
            self._remove(rec)
        return len(doomed)

    def move_subtree(
        self, src: NodeRecord, new_parent: ParentRef, index: int | None = None
    ) -> int:
        """Relocate src and its whole subtree under new_parent.

        Each subtree record keeps its path fragment relative to src:
        detach solves src_matrix * X = record_matrix, attach re-keys to
        concat(child(new_parent, n), X).  Payloads are untouched;
        returns the number of re-keyed records.
        """
        self._require(src)
        pm = self._resolve_parent_ref(new_parent)
        if not pm.is_identity:
            if pm == src.matrix or is_ancestor(src.matrix, pm):
                raise CycleError("cannot move a subtree under itself")
        subtree = [src] + self.descendants(src)

        old_parent, old_slot = _parent_and_slot(src.matrix)
        vacating = old_slot if old_parent == pm else None
        base = child(pm, self._choose_slot(pm, index, vacating))
        # the index scan found exactly src's descendants, so their
        # fragments below src are valid paths and need no re-peeling
        new_matrices = _rebase(src.matrix, base, [rec.matrix for rec in subtree])
        for rec in subtree:
            self._remove(rec)
        for rec, m in zip(subtree, new_matrices):
            rec.matrix = m
            self._insert(rec, *_parent_and_slot(m))
        return len(subtree)

    # -- persistence ------------------------------------------------------

    def save(self, destination: str | FsPath) -> None:
        """Write the store atomically (temp file + rename), sorted by
        interval key; save/load/save is byte-identical."""
        destination = FsPath(destination)
        lines = [FILE_HEADER]
        for _, _, rec in self._ensure_index():
            entries = rec.matrix.entries()
            lines.append("\t".join([*map(to_decimal, entries), escape_payload(rec.payload)]))
        data = ("\n".join(lines) + "\n").encode()
        try:
            fd, tmp = tempfile.mkstemp(
                dir=destination.parent or ".", prefix=destination.name + ".", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as f:
                    f.write(data)
                try:
                    os.chmod(tmp, stat.S_IMODE(os.stat(destination).st_mode))
                except FileNotFoundError:
                    pass  # a new file keeps mkstemp's owner-only mode
                os.replace(tmp, destination)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError as e:
            raise StoreError(f"cannot write {destination}: {e}") from e

    @classmethod
    def load(cls, source: str | FsPath) -> "TreeStore":
        """Parse a persistence file, validating matrices, uniqueness and
        parent closure; errors name the offending line."""
        source = FsPath(source)
        try:
            # no newline translation: a payload may hold a raw CR
            text = source.read_bytes().decode("utf-8")
        except OSError as e:
            raise StoreError(f"cannot read {source}: {e}") from e
        except UnicodeDecodeError as e:
            raise StoreError(f"{source} is not UTF-8: {e}") from e

        lines = text.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        if not lines or lines[0] != FILE_HEADER:
            raise LoadError(1, f"expected header {FILE_HEADER!r}")

        store = cls()
        parent_of_line: list[tuple[int, MobiusMatrix]] = []
        for lineno, line in enumerate(lines[1:], start=2):
            fields = line.split("\t")
            if len(fields) != 5:
                raise LoadError(lineno, f"expected 5 tab-separated fields, got {len(fields)}")
            if _ENTRIES_RE.match(line) is None:
                bad = next(f for f in fields[:4] if not _DIGITS_RE.fullmatch(f))
                raise LoadError(lineno, f"non-integer matrix entry {bad!r}")
            a, b, c, d = map(from_decimal, fields[:4])
            try:
                m = MobiusMatrix(a, b, c, d)
            except DomainError as e:
                raise LoadError(lineno, str(e)) from None
            if m.is_identity:
                raise LoadError(lineno, "the identity matrix is not a storable node")
            key = m.entries()
            if key in store._records:
                raise LoadError(lineno, f"duplicate matrix {m}")
            try:
                payload = unescape_payload(fields[4])
            except ValueError as e:
                raise LoadError(lineno, str(e)) from None
            pm, slot = _parent_and_slot(m)
            store._insert(NodeRecord(m, payload), pm, slot)
            parent_of_line.append((lineno, pm))

        for lineno, pm in parent_of_line:
            if not pm.is_identity and pm.entries() not in store._records:
                raise LoadError(lineno, f"orphan record: parent {matrix_to_path(pm)} missing")
        return store
