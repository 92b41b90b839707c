"""File-backed hierarchical store indexed by the interval encoding.

Payload-bearing nodes are keyed by the four entries of their matrix,
and each record holds that same entry tuple; its matrix is a view built
on demand.  The index is the records themselves, sorted by a key each
holds that orders them by exact interval endpoints, and a descendant
query returns one slice of it; a mutation only marks the index
unsorted.  Each record holds a reference to its parent record, set
where the parent is already in hand (insert, load's closure pass, a
move's subtree root), so an ancestor query follows references with no
arithmetic; inserts never touch existing keys.  Each record keeps its
own occupied child slots, so a subtree is walked down through them, one
child step per record, and deleting or relocating it needs no index (a
move gives each record the child step of its parent's new entries).
A leaf's slots are the one shared empty tuple, so it answers
descendants and children from its own record, with no index search.
Each record also holds an owner token, the store's root sentinel while
the store holds it and None once deleted, so a handle is checked by one
identity test, with no lookup.

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
from operator import attrgetter
from pathlib import Path as FsPath
from typing import Iterable, Union

from . import kernels
from .exactmath import DomainError, _excerpt, from_decimal, to_decimal
from .kernels import _det_sign
from .encoding import (
    MobiusMatrix,
    Path,
    _as_components,
    _child_entries,
    _parent_and_slot,
    _path_components,
    _path_excerpt,
    _unchecked_matrix,
    is_ancestor,
    matrix_to_path,
)

__all__ = [
    "StoreError",
    "MissingNodeError",
    "OccupiedSlotError",
    "CycleError",
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
_ROOT_KEY = MobiusMatrix.IDENTITY.entries()


class StoreError(Exception):
    """Base class for store failures."""


class MissingNodeError(StoreError):
    pass


class OccupiedSlotError(StoreError):
    pass


class CycleError(StoreError):
    pass


class LoadError(StoreError):
    """A persistence file could not be parsed; .line is 1-based."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _os_store_error(action: str, path: str | os.PathLike, e: OSError) -> StoreError:
    """The StoreError for an OSError on path: the path excerpted, then the
    OS's text for the error, which does not repeat the path, so a huge
    file name cannot make a huge message."""
    return StoreError(f"{action} {_excerpt(os.fspath(path))}: {_excerpt(e.strerror or str(e))}")


class NodeRecord:
    """A stored node: a non-identity matrix plus an opaque UTF-8 payload.

    Records are identity objects owned by one store.  _key holds the
    matrix's entries, the tuple that keys the store's _records; matrix
    is a read-only view of it.  move_subtree re-keys records in place,
    so handles stay valid.  _kids holds the node's occupied child slots,
    ascending, in a list made at its first child; a leaf holds the
    shared empty tuple instead, so it costs the garbage collector no
    second object.  _parent is the parent record, or the store's _root
    sentinel for a top-level node (None on the sentinel); references
    point from child to parent only, so they form no cycles.  _low is
    the record's sort key in the store's index (see _low_key), or 0
    while the store's keys are stale.  _owner is the _root sentinel
    of the store that holds the record, set at insert and load, kept by
    a move and cleared to None by a delete; the sentinel refers to no
    record, so the token makes no cycle either (None on the sentinel).
    """

    __slots__ = ("_key", "payload", "_kids", "_parent", "_low", "_owner")

    def __init__(
        self,
        key: tuple[int, int, int, int],
        payload: str,
        parent: NodeRecord | None = None,
        low: int = 0,
        owner: NodeRecord | None = None,
    ):
        self._key = key
        self.payload = payload
        self._kids: list[int] | tuple[()] = ()
        self._parent = parent
        self._low = low
        self._owner = owner

    @property
    def matrix(self) -> MobiusMatrix:
        return _unchecked_matrix(*self._key)

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


def _low_key(key: tuple[int, int, int, int], k: int) -> int:
    """2 * floor(lo * 2**k), plus 1 if lo is closed, for the low
    endpoint of a non-identity matrix's entries, where c >= 1.

    det -1 is (a/c, (a+b)/(c+d)], det +1 is [(a+b)/(c+d), a/c).  Tree
    intervals are nested or disjoint, and the only two that share a low
    endpoint are a det +1 node, closed there, and its slot-1 child,
    open there and nested inside it: so the key alone gives the (low,
    high) order, and no two records share it."""
    a, b, c, d = key
    if _det_sign(a, b, c, d) == 1:
        return (((a + b) << k) // (c + d)) << 1 | 1
    return ((a << k) // c) << 1


def _shift_for(den: int) -> int:
    """The shift k of exact integer keys floor(r * 2**k) for endpoints
    with denominators up to den: distinct endpoints p/q != r/s differ by
    at least 1/(q*s) > 2**-k, so the floors keep their order and ties.
    c + d is the larger of a node's two endpoint denominators, so one
    shift serves its low key and the high endpoint descendants computes."""
    return 2 * den.bit_length() + 2


def _missing(ref: MobiusMatrix | Path | str | Iterable[int]) -> MissingNodeError:
    """The error for a path or matrix that names no record.  It quotes
    the caller's own text, path components or matrix entries, each
    excerpted, and decodes no matrix."""
    if isinstance(ref, str):
        quoted = _excerpt(ref.strip())
    elif isinstance(ref, MobiusMatrix):
        quoted = "matrix " + ",".join(map(_excerpt, ref.entries()))
    else:
        quoted = _path_excerpt(_as_components(ref))
    return MissingNodeError(f"no node at {quoted}")


_LOW = attrgetter("_low")

# descendants() looks for a subtree's end among this many index entries
# past its start before it bisects the rest of the index
_END_WINDOW = 16


def _occupy(parent: NodeRecord, slot: int) -> None:
    """Add a free slot to parent's child slots, making its list if
    parent held the shared empty tuple."""
    if parent._kids:
        bisect.insort(parent._kids, slot)
    else:
        parent._kids = [slot]


class TreeStore:
    """In-memory tree of NodeRecords with exact interval indexing."""

    def __init__(self):
        # record._key -> record.  Each record's _low is its low endpoint
        # scaled by 2**_shift and floored, doubled, plus its closed bit
        # (see _low_key), computed once, when it gets its entries.
        # _shift only grows: a record that needs a wider one makes every
        # key stale (left 0 until _ensure_index re-keys the whole store
        # at the widest record's shift).
        self._records: dict[tuple[int, int, int, int], NodeRecord] = {}
        self._shift = 0
        self._stale = False
        # holds the root's child slots as a record does, and is the
        # _parent of every top-level record and the _owner of every
        # record; never in _records
        self._root = NodeRecord(_ROOT_KEY, "")
        # the records sorted by _low, re-sorted by the first query after
        # a mutation.  A mutation only sets _unsorted: releasing the list
        # would decref every record, a whole-store pass behind one
        # mutation.  Until that query (or a save), the old list keeps
        # removed records alive, bounded by the store's size at its
        # last query.
        self._index: list[NodeRecord] = []
        self._unsorted = True

    # -- plumbing ---------------------------------------------------------

    def _resolve_parent_ref(self, parent: ParentRef) -> NodeRecord:
        """Normalize a parent/target reference to a present record, or
        to the _root sentinel.  A record must be this store's own."""
        if parent is None:
            return self._root
        if isinstance(parent, NodeRecord):
            return self._require(parent)
        if isinstance(parent, str):
            key = kernels.path_to_matrix_raw(_path_components(parent))
        elif isinstance(parent, Path):
            key = kernels.path_to_matrix_raw(parent.components)
        elif isinstance(parent, MobiusMatrix):
            key = parent.entries()
        else:
            raise TypeError(f"bad parent reference of type {type(parent).__name__}")
        if key == _ROOT_KEY:
            return self._root
        rec = self._records.get(key)
        if rec is None:
            raise _missing(parent)
        return rec

    def _require(self, record: NodeRecord) -> NodeRecord:
        """The record, if this store holds it: its owner token is this
        store's _root sentinel, which a delete clears and a move keeps.
        The store's only presence check; its _low is current only after
        _ensure_index."""
        try:
            if record._owner is self._root:
                return record
        except AttributeError:
            raise TypeError(f"bad node reference of type {type(record).__name__}") from None
        raise MissingNodeError("record is not in this store")

    def _records_at(self, parent: NodeRecord, slots: Iterable[int]) -> list[NodeRecord]:
        """parent's children in the given slots, in that order: child n
        is keyed by the child step n of parent's entries."""
        key = parent._key
        return [self._records[_child_entries(*key, n)] for n in slots]

    def _low_for(self, key: tuple[int, int, int, int]) -> int:
        """The _low of a record that just got these entries."""
        if not self._stale and _shift_for(key[2] + key[3]) <= self._shift:
            return _low_key(key, self._shift)
        # wider than every record so far, or the keys are stale already:
        # _ensure_index widens the shift and re-keys all
        self._stale = True
        return 0

    def _detach(self, node: NodeRecord, base: tuple | None = None) -> list[NodeRecord]:
        """Take node's subtree out of the store and return its records,
        parents before children.

        The walk goes down through the child slots: the record in slot n
        under a parent's entries is keyed by their child step n, so it
        costs one step per record and needs neither the index nor a
        parent step.  With base, each record also gets its new entries
        on the way down: base for node, the child step n of its parent's
        new entries below it.  Children are visited in interval order
        under the entries the records end with (slots ascending under
        det +1, descending under det -1, the sign alternating by depth),
        so the returned list is close to index order.  Only node's own
        slot is dropped from its parent's list, and a parent left with
        none gets the shared empty tuple back; every record keeps its
        own.  Without base the records are deleted, and each loses its
        owner token."""
        records = self._records
        parent = node._parent
        siblings = parent._kids
        if len(siblings) == 1:
            parent._kids = ()
        else:
            del siblings[bisect.bisect_left(siblings, _parent_and_slot(*node._key)[1])]
        out = []
        # (old key, new key, det of the new one)
        stack = [(node._key, base, _det_sign(*(base or node._key)))]
        while stack:
            key, new, det = stack.pop()
            rec = records.pop(key)
            out.append(rec)
            if new is None:
                rec._owner = None
            else:
                rec._key = new
            # the stack pops the last pushed first
            for n in reversed(rec._kids) if det == 1 else rec._kids:
                stack.append(
                    (_child_entries(*key, n), None if new is None else _child_entries(*new, n), -det)
                )
        self._unsorted = True
        return out

    def _choose_slot(
        self, parent: NodeRecord, index: int | None, vacating: int | None = None
    ) -> int:
        """Child slot under parent for a node being placed there: the
        requested index if it is free, else 1 + the highest occupied
        slot.  vacating is parent's slot that the placed node itself
        frees (a move under its own parent)."""
        occupied = parent._kids
        if index is None:
            top = occupied[-1] if occupied else 0
            if top == vacating:
                top = occupied[-2] if len(occupied) > 1 else 0
            return top + 1
        if not isinstance(index, int) or isinstance(index, bool):
            raise TypeError(f"child index must be an int, got {type(index).__name__}")
        if index < 1:
            raise DomainError(f"child index must be >= 1, got {_excerpt(index)}")
        i = bisect.bisect_left(occupied, index)
        if i < len(occupied) and occupied[i] == index and index != vacating:
            raise OccupiedSlotError(
                f"slot {_excerpt(index)} under "
                f"{_path_excerpt(matrix_to_path(parent.matrix).components)} is occupied"
            )
        return index

    def _ensure_index(self) -> list[NodeRecord]:
        """The records sorted by _low, which is the order by interval low
        then high endpoint.  After a mutation the list is replaced by a
        new one, never changed in place."""
        if self._unsorted:
            records = self._records
            if self._stale:
                # the record that made the keys stale may be gone again,
                # so the shift is never lowered below its old value
                max_den = max((c + d for _, _, c, d in records), default=0)
                k = self._shift = max(self._shift, _shift_for(max_den))
                for rec in records.values():
                    rec._low = _low_key(rec._key, k)
                self._stale = False
            self._index = sorted(records.values(), key=_LOW)
            self._unsorted = False
        return self._index

    # -- queries ----------------------------------------------------------

    def __len__(self):
        return len(self._records)

    def __iter__(self) -> Iterable[NodeRecord]:
        return iter(self._records.values())

    def resolve(self, path: Path | str) -> NodeRecord:
        """Record at a path; raises MissingNodeError."""
        comps = _path_components(path) if isinstance(path, str) else _as_components(path)
        rec = self._records.get(kernels.path_to_matrix_raw(comps))
        if rec is None:
            raise _missing(path)
        return rec

    def all_nodes(self) -> list[NodeRecord]:
        """Every record, ordered by interval low then high endpoint."""
        return self._ensure_index().copy()

    def children(self, parent: ParentRef = ROOT) -> list[NodeRecord]:
        """Immediate children of a node (or of the root), ordered by
        interval low endpoint.

        Child n's interval is the image of (n, n+1] under the parent's
        map (a*x + b)/(c*x + d), which keeps order for determinant +1
        and reverses it for -1, so the slots sorted that way give the
        interval order."""
        rec = self._resolve_parent_ref(parent)
        if not rec._kids:
            return []
        slots = rec._kids if _det_sign(*rec._key) == 1 else reversed(rec._kids)
        return self._records_at(rec, slots)

    def descendants(self, node: NodeRecord) -> list[NodeRecord]:
        """All records whose interval nests strictly inside the node's,
        as one slice of the index, which is the records themselves in
        interval order; ordered by interval low endpoint.

        Tree intervals are nested or disjoint, so a record whose low
        endpoint lies strictly inside the node's interval is a
        descendant, and one whose low endpoint is the node's high
        endpoint is not.  The one other record that shares the node's
        low endpoint is a det +1 node's slot-1 child, open there: it
        sorts just before the node, so the one slice copied starts at
        the node's own place, and the child takes the node's place at
        its head.  The node's high endpoint is computed here, at the
        index's shift.

        The node's owner token is checked first, so a stale or foreign
        handle raises before any sort.  A leaf's slice is empty, by
        parent closure, so a node with no child slots answers a new
        empty list after the index is current, with no search.
        Otherwise one bisect finds the slice start i, the first record
        past both records that can share the node's low endpoint, and
        the end is found within the _END_WINDOW records after i, where
        most subtrees end, or by a bisect past them: one probe at
        i + _END_WINDOW picks the side.
        """
        self._require(node)
        idx = self._ensure_index()
        kids = node._kids
        if not kids:
            return []
        low = node._low
        i = bisect.bisect_left(idx, (low | 1) + 1, key=_LOW)
        a, b, c, d = node._key
        k = self._shift
        # the closed bit is det +1: [(a+b)/(c+d), a/c), else (a/c, (a+b)/(c+d)]
        end = ((a << k) // c if low & 1 else ((a + b) << k) // (c + d)) << 1
        p = i + _END_WINDOW
        if p < len(idx) and idx[p]._low < end:
            j = bisect.bisect_left(idx, end, p + 1, key=_LOW)
        else:
            j = bisect.bisect_left(idx, end, i, min(p, len(idx)), key=_LOW)
        if low & 1 and kids[0] == 1:
            out = idx[i - 1 : j]
            out[0] = idx[i - 2]
            return out
        return idx[i:j]

    def ancestors(self, node: NodeRecord) -> list[NodeRecord]:
        """Ancestor chain, root side first, root excluded: the records'
        parent references followed up to the root, one attribute read
        per level, with no arithmetic and no index or dict lookup."""
        self._require(node)
        chain = []
        root = self._root
        rec = node._parent
        while rec is not root:
            chain.append(rec)
            rec = rec._parent
        chain.reverse()
        return chain

    def stats(self) -> StoreStats:
        """Exact aggregates; key bytes measure the tab-joined decimal
        matrix entries, the key portion of a record line."""
        max_depth = 0
        # depths by walking the child slots down from the root: one
        # child key per record, where decoding a path costs O(depth)
        stack = [(self._root, 0)]
        while stack:
            rec, depth = stack.pop()
            max_depth = max(max_depth, depth)
            stack += [(kid, depth + 1) for kid in self._records_at(rec, rec._kids)]
        max_bits = 0
        max_key = 0
        for key in self._records:
            max_bits = max(max_bits, key[0].bit_length())
            max_key = max(max_key, len("\t".join(map(to_decimal, key))))
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
        parent = self._resolve_parent_ref(parent)
        slot = self._choose_slot(parent, index)
        key = _child_entries(*parent._key, slot)
        rec = NodeRecord(key, payload, parent, self._low_for(key), self._root)
        self._records[key] = rec
        _occupy(parent, slot)
        self._unsorted = True
        return rec

    def delete_subtree(self, node: NodeRecord) -> int:
        """Remove the node and all its descendants; returns the count."""
        self._require(node)
        return len(self._detach(node))

    def move_subtree(
        self, src: NodeRecord, new_parent: ParentRef, index: int | None = None
    ) -> int:
        """Relocate src and its whole subtree under new_parent.

        Each subtree record keeps its path fragment relative to src: src
        takes child(new_parent, n), and every record below it child(m,
        k) of its parent's new matrix m for the slot k it held, one
        child step per record.  Each record keeps its child slots and
        its parent reference, and only src's own slot and parent change.
        Payloads are untouched; returns the number of re-keyed records.
        """
        self._require(src)
        parent = self._resolve_parent_ref(new_parent)
        if parent is src or is_ancestor(src.matrix, parent.matrix):
            raise CycleError("cannot move a subtree under itself")
        vacating = _parent_and_slot(*src._key)[1] if src._parent is parent else None
        slot = self._choose_slot(parent, index, vacating)
        # the whole subtree leaves before any record returns, so a move
        # into src's own vacated slot finds its old keys gone
        moved = self._detach(src, _child_entries(*parent._key, slot))
        src._parent = parent
        for rec in moved:
            rec._low = self._low_for(rec._key)
        if not self._stale:
            # keep the moved records one sorted run for the index sort
            moved.sort(key=_LOW)
        self._records.update((rec._key, rec) for rec in moved)
        _occupy(parent, slot)
        return len(moved)

    # -- persistence ------------------------------------------------------

    def save(self, destination: str | FsPath) -> None:
        """Write the store atomically (temp file + rename), sorted by
        interval key; save/load/save is byte-identical.

        The temp file is fsynced before the rename and the directory
        after it, so a crash leaves the old file or the new one, never
        an empty or partial one.  The destination is resolved through
        symlinks first, and the rename replaces the file they name, so
        a symlink stays a symlink."""
        target = FsPath(os.path.realpath(destination))
        lines = [FILE_HEADER]
        for rec in self._ensure_index():
            lines.append("\t".join([*map(to_decimal, rec._key), escape_payload(rec.payload)]))
        data = ("\n".join(lines) + "\n").encode()
        directory = target.parent
        try:
            fd, tmp = tempfile.mkstemp(
                dir=directory, prefix=target.name + ".", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as f:
                    f.write(data)
                    try:
                        os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
                    except FileNotFoundError:
                        pass  # a new file keeps mkstemp's owner-only mode
                    f.flush()
                    os.fsync(f.fileno())
                os.replace(tmp, target)
            except BaseException:
                os.unlink(tmp)
                raise
            dir_fd = os.open(directory, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except OSError as e:
            raise _os_store_error("cannot write", destination, e) from e

    @classmethod
    def load(cls, source: str | FsPath) -> "TreeStore":
        """Parse a persistence file; errors name the offending line.

        Parent closure is the whole node test: four entries are a node
        when b >= 1 and one parent step lands on the root or on another
        record of the file.  The child step of that parent gives the
        entries back, and a parent record's a is below its child's, so
        by induction on a this accepts exactly the matrices that the
        MobiusMatrix constructor accepts, without calling it.  The test
        needs every record read, so an error in parsing a line (fields,
        digits, duplicate, escape) is reported before a closure error on
        an earlier line."""
        source = FsPath(source)
        try:
            # no newline translation: a payload may hold a raw CR
            text = source.read_bytes().decode("utf-8")
        except OSError as e:
            raise _os_store_error("cannot read", source, e) from e
        except UnicodeDecodeError as e:
            raise StoreError(f"{_excerpt(str(source))} is not UTF-8: {e}") from e

        lines = text.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        if not lines or lines[0] != FILE_HEADER:
            raise LoadError(1, f"expected header {FILE_HEADER!r}")

        store = cls()
        records = store._records
        root = store._root
        for lineno, line in enumerate(lines[1:], start=2):
            fields = line.split("\t")
            if len(fields) != 5:
                raise LoadError(lineno, f"expected 5 tab-separated fields, got {len(fields)}")
            if _ENTRIES_RE.match(line) is None:
                bad = next(f for f in fields[:4] if not _DIGITS_RE.fullmatch(f))
                raise LoadError(lineno, f"non-integer matrix entry {_excerpt(bad)!r}")
            key = tuple(map(from_decimal, fields[:4]))
            if key in records:
                raise LoadError(lineno, f"duplicate matrix {','.join(map(_excerpt, fields[:4]))}")
            try:
                payload = unescape_payload(fields[4])
            except ValueError as e:
                raise LoadError(lineno, str(e)) from None
            records[key] = NodeRecord(key, payload, None, 0, root)
        # _ensure_index keys every record at once
        store._stale = True

        # the node test, in a second pass: a det +1 parent's first child
        # comes before it; records keep the file's line order
        for lineno, (key, rec) in enumerate(records.items(), start=2):
            parent = None
            if key[1]:
                pkey, slot = _parent_and_slot(*key)
                parent = root if pkey == _ROOT_KEY else records.get(pkey)
            if parent is None:
                # the parent step of any four ints need not decode to a path
                entries = ",".join(map(_excerpt, lines[lineno - 1].split("\t")[:4]))
                raise LoadError(lineno, f"matrix {entries} has no parent in the file")
            rec._parent = parent
            if parent._kids:
                parent._kids.append(slot)
            else:
                parent._kids = [slot]
        # a det -1 parent's slots arrive in descending order
        for rec in (root, *store):
            if rec._kids:
                rec._kids.sort()
        return store
