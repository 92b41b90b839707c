"""A model-based test of TreeStore through its public API alone.

Hypothesis drives random sequences of inserts (explicit, automatic and
huge slots, first-child chains), moves, deletes, save/load round trips
and calls on stale handles.  After every step each query is compared
with a model that knows only path tuples: a node's matrix is the oracle
primitive product of its path, and the interval order is computed with
Fraction.
"""

import tempfile
from pathlib import Path as FsPath

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from mobiustree.store import CycleError, MissingNodeError, OccupiedSlotError, TreeStore

from oracles import mat_mul4, oracle_interval, primitive_product, store_file_bytes

BIG = 2**300

# explicit slots, some past 2**300, or None for the automatic slot
SLOTS = st.one_of(st.none(), st.integers(1, 4), st.integers(BIG + 1, BIG + 3))

# inserts stop here, so each step's full comparison stays cheap; a
# chain may pass it, and a subtree of 16 or 17 records, at the edge of
# the descendants end search, is still common
MAX_NODES = 48


def dotted(path):
    return ".".join(map(str, path)) or "root"


class StoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = TreeStore()
        self.tree = {}  # path tuple -> payload
        self.handle = {}  # path tuple -> the record the store gave for it
        self.stale = []  # records deleted, or left in a store replaced by load
        self.made = 0
        self.product = {(): primitive_product(())}  # path tuple -> its matrix
        self.interval = {}  # path tuple -> its (lo, hi), as Fractions
        self.dir = tempfile.TemporaryDirectory()

    def teardown(self):
        self.dir.cleanup()

    # -- model helpers ----------------------------------------------------

    def payload(self):
        self.made += 1
        # every other payload needs escaping in the file
        return f"n{self.made}" + ("\t\\\n" if self.made % 2 else "")

    def matrix(self, path):
        """The oracle matrix of path: its parent's times one primitive
        factor."""
        if path not in self.product:
            self.product[path] = mat_mul4(self.matrix(path[:-1]), primitive_product(path[-1:]))
        return self.product[path]

    def order(self):
        """The model's paths by interval low, then high endpoint."""
        for p in self.tree:
            if p not in self.interval:
                self.interval[p] = oracle_interval(self.matrix(p))
        return sorted(self.tree, key=self.interval.__getitem__)

    def file_bytes(self, order):
        """What a save of a store holding the model's nodes must write:
        the header, then each node's entries and escaped payload, in
        interval order."""
        return store_file_bytes((self.matrix(p), self.tree[p]) for p in order)

    def kid_slots(self, parent):
        return [p[-1] for p in self.tree if p[:-1] == parent]

    def subtree(self, top):
        return [p for p in self.tree if p[: len(top)] == top]

    def draw_node(self, data, root=False):
        nodes = sorted(self.tree)
        return data.draw(st.sampled_from([()] + nodes if root else nodes))

    def ref(self, data, path):
        """A parent reference to path, as the API takes it: its record,
        or its path text."""
        if path and data.draw(st.booleans()):
            return self.handle[path]
        return dotted(path)

    def insert(self, data, parent, slot):
        payload = self.payload()
        occupied = self.kid_slots(parent)
        ref = self.ref(data, parent)
        if slot is not None and slot in occupied:
            with pytest.raises(OccupiedSlotError):
                self.store.add_child(ref, payload, index=slot)
            return None
        rec = self.store.add_child(ref, payload, index=slot)
        path = parent + (max(occupied, default=0) + 1 if slot is None else slot,)
        assert rec.payload == payload
        assert rec.matrix.entries() == self.matrix(path)
        self.tree[path] = payload
        self.handle[path] = rec
        return path

    # -- rules ------------------------------------------------------------

    @precondition(lambda self: len(self.tree) < MAX_NODES)
    @rule(data=st.data(), slot=SLOTS)
    def add(self, data, slot):
        self.insert(data, self.draw_node(data, root=True), slot)

    @precondition(lambda self: len(self.tree) < MAX_NODES)
    @rule(data=st.data(), length=st.integers(2, 20))
    def first_child_chain(self, data, length):
        path = self.draw_node(data, root=True)
        for _ in range(length):
            # below its first node the chain takes slot 1 every time
            path = self.insert(data, path, None)

    @precondition(lambda self: self.tree)
    @rule(
        data=st.data(),
        place=st.sampled_from(["own parent", "any"]),
        slot=st.one_of(SLOTS, st.just("own")),
    )
    def move(self, data, place, slot):
        src = self.draw_node(data)
        parent = src[:-1] if place == "own parent" else self.draw_node(data, root=True)
        if slot == "own":
            slot = src[-1]
        ref = self.ref(data, parent)
        if parent[: len(src)] == src:
            with pytest.raises(CycleError):
                self.store.move_subtree(self.handle[src], ref, index=slot)
            return
        vacating = src[-1] if parent == src[:-1] else None
        occupied = [n for n in self.kid_slots(parent) if n != vacating]
        if slot is not None and slot in occupied:
            with pytest.raises(OccupiedSlotError):
                self.store.move_subtree(self.handle[src], ref, index=slot)
            return
        count = self.store.move_subtree(self.handle[src], ref, index=slot)
        top = parent + (max(occupied, default=0) + 1 if slot is None else slot,)
        moved = self.subtree(src)
        assert count == len(moved)
        tree, handle = {}, {}
        for p in moved:
            tree[top + p[len(src) :]] = self.tree.pop(p)
            handle[top + p[len(src) :]] = self.handle.pop(p)
        self.tree.update(tree)
        self.handle.update(handle)

    @precondition(lambda self: self.tree)
    @rule(data=st.data())
    def delete(self, data):
        top = self.draw_node(data)
        doomed = self.subtree(top)
        assert self.store.delete_subtree(self.handle[top]) == len(doomed)
        for p in doomed:
            del self.tree[p]
            self.stale.append(self.handle.pop(p))

    @rule()
    def save_and_load(self):
        """Also saves a store rebuilt from scratch with the model's
        nodes, parents first, which must write the same bytes."""
        f, g = FsPath(self.dir.name) / "s.db", FsPath(self.dir.name) / "rebuilt.db"
        self.store.save(f)
        rebuilt = TreeStore()
        made = {(): "root"}
        for p in sorted(self.tree, key=len):
            made[p] = rebuilt.add_child(made[p[:-1]], self.tree[p], index=p[-1])
        rebuilt.save(g)
        assert f.read_bytes() == g.read_bytes()
        self.store = TreeStore.load(f)
        self.stale.extend(self.handle.values())
        self.handle = {p: self.store.resolve(dotted(p)) for p in self.tree}

    @precondition(lambda self: self.stale)
    @rule(
        data=st.data(),
        call=st.sampled_from(
            ["descendants", "ancestors", "children", "delete", "move", "move to", "add under"]
        ),
    )
    def use_stale_handle(self, data, call):
        rec = data.draw(st.sampled_from(self.stale))
        store = self.store
        calls = {
            "descendants": lambda: store.descendants(rec),
            "ancestors": lambda: store.ancestors(rec),
            "children": lambda: store.children(rec),
            "delete": lambda: store.delete_subtree(rec),
            "move": lambda: store.move_subtree(rec, "root"),
            "move to": lambda: store.move_subtree(self.handle[self.draw_node(data)], rec),
            "add under": lambda: store.add_child(rec, "x"),
        }
        if call == "move to" and not self.tree:
            return
        with pytest.raises(MissingNodeError):
            calls[call]()

    # -- the comparison after every step ----------------------------------

    @invariant()
    def matches_the_model(self):
        store, handle, matrix = self.store, self.handle, self.matrix
        order = self.order()

        # each node's children and descendants, in interval order
        kids = {p: [] for p in [(), *order]}
        below = {p: [] for p in [(), *order]}
        for q in order:
            kids[q[:-1]].append(handle[q])
            for k in range(len(q)):
                below[q[:k]].append(handle[q])

        assert len(store) == len(self.tree)
        assert store.all_nodes() == below[()]
        assert store.children("root") == kids[()]
        for p in order:
            rec = handle[p]
            assert rec.matrix.entries() == matrix(p)
            assert rec.payload == self.tree[p]
            assert store.ancestors(rec) == [handle[p[:k]] for k in range(1, len(p))]
            assert store.descendants(rec) == below[p]
            assert store.children(rec) == kids[p]

        st_ = store.stats()
        keys = [matrix(p) for p in order]
        assert (st_.nodes, st_.max_depth) == (len(order), max(map(len, order), default=0))
        assert st_.max_numerator_bits == max((k[0].bit_length() for k in keys), default=0)
        assert st_.max_key_bytes == max((len("\t".join(map(str, k))) for k in keys), default=0)

        f = FsPath(self.dir.name) / "s.db"
        store.save(f)
        assert f.read_bytes() == self.file_bytes(order)


StoreMachine.TestCase.settings = settings(deadline=None)
test_store_model = StoreMachine.TestCase
