"""A model-based test of TreeStore through its public API alone, and
the suite's one randomized driver of store mutations.

Hypothesis drives random sequences of inserts (explicit, automatic and
huge slots, first-child chains), moves, deletes, save/load round trips
and calls on stale handles, each parent given by a reference of any
kind the API takes.  A batch step runs up to six mutations with no
query between them (wide inserts, moves, deletes of any node, of the
widest and of the deepest, reloads), so moves and deletes also meet an
unsorted index and stale keys; between them only checks that build no
index run: every record and payload, and every node's ancestors.
After every step every query, stats() and the saved bytes are compared
with oracles.TreeModel, which knows only path tuples, and each path's
record must be the one the store gave for it.
"""

import tempfile
from pathlib import Path as FsPath

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from mobiustree.store import CycleError, MissingNodeError, OccupiedSlotError, TreeStore

from oracles import TreeModel, check_records, check_store, dotted

BIG = 2**300

# explicit slots, some past 2**300, or None for the automatic slot
SLOTS = st.one_of(st.none(), st.integers(1, 4), st.integers(BIG + 1, BIG + 3))
MOVE_PLACES = st.sampled_from(["own parent", "any"])
MOVE_SLOTS = st.one_of(SLOTS, st.just("own"))

# the mutations a batch draws from
BATCH = ["add", "wide add", "move", "delete", "delete widest", "delete deepest", "save and load"]

# inserts stop here, so each step's full comparison stays cheap; a
# chain may pass it, and a subtree of 16 or 17 records, at the edge of
# the descendants end search, is still common
MAX_NODES = 48


class StoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = TreeStore()
        self.model = TreeModel()
        self.handle = {}  # path tuple -> the record the store gave for it
        self.stale = []  # records deleted, or left in a store replaced by load
        self.made = 0
        self.dir = tempfile.TemporaryDirectory()

    def teardown(self):
        self.dir.cleanup()

    # -- helpers ----------------------------------------------------------

    def payload(self):
        self.made += 1
        # every other payload needs escaping in the file
        return f"n{self.made}" + ("\t\\\n" if self.made % 2 else "")

    def draw_node(self, data, root=False):
        nodes = sorted(self.model.tree)
        return data.draw(st.sampled_from([()] + nodes if root else nodes))

    def ref(self, data, path):
        """A parent reference to path, of any kind the API takes."""
        return data.draw(st.sampled_from(self.model.refs(path, self.handle.get(path))))

    def insert(self, data, parent, slot):
        payload = self.payload()
        ref = self.ref(data, parent)
        path = self.model.add(parent, payload, slot)
        if path is None:
            with pytest.raises(OccupiedSlotError):
                self.store.add_child(ref, payload, index=slot)
            return None
        self.handle[path] = self.store.add_child(ref, payload, index=slot)
        return path

    def remove(self, top):
        doomed = self.model.delete(top)
        assert self.store.delete_subtree(self.handle[top]) == len(doomed)
        self.stale += [self.handle.pop(p) for p in doomed]

    def check_without_index(self):
        """What can be checked without sorting the index or re-keying a
        record: every record and payload, and every node's ancestors."""
        at = check_records(self.store, self.model, self.handle)
        for p, rec in at.items():
            assert self.store.ancestors(rec) == [at[p[:k]] for k in range(1, len(p))], dotted(p)

    # -- rules ------------------------------------------------------------

    @precondition(lambda self: len(self.model.tree) < MAX_NODES)
    @rule(data=st.data(), slot=SLOTS)
    def add(self, data, slot):
        self.insert(data, self.draw_node(data, root=True), slot)

    @precondition(lambda self: len(self.model.tree) < MAX_NODES)
    @rule(data=st.data(), length=st.integers(2, 20))
    def first_child_chain(self, data, length):
        path = self.draw_node(data, root=True)
        for _ in range(length):
            # below its first node the chain takes slot 1 every time
            path = self.insert(data, path, None)

    @precondition(lambda self: self.model.tree)
    @rule(data=st.data(), place=MOVE_PLACES, slot=MOVE_SLOTS)
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
        moved = self.model.move(src, parent, slot)
        if moved is None:
            with pytest.raises(OccupiedSlotError):
                self.store.move_subtree(self.handle[src], ref, index=slot)
            return
        assert self.store.move_subtree(self.handle[src], ref, index=slot) == len(moved)
        self.handle = {moved.get(p, p): rec for p, rec in self.handle.items()}

    @precondition(lambda self: self.model.tree)
    @rule(data=st.data())
    def delete(self, data):
        self.remove(self.draw_node(data))

    @rule()
    def save_and_load(self):
        # a store rebuilt from scratch, parents first, holds the model too
        f, g = FsPath(self.dir.name) / "s.db", FsPath(self.dir.name) / "rebuilt.db"
        check_store(self.model.build(TreeStore()), self.model, g, ())
        self.store.save(f)
        self.store = TreeStore.load(f)
        self.stale.extend(self.handle.values())
        self.handle = {p: self.store.resolve(dotted(p)) for p in self.model.tree}

    @rule(data=st.data(), kinds=st.lists(st.sampled_from(BATCH), min_size=1, max_size=6))
    def batch(self, data, kinds):
        """Mutations with no query between them, so each after the first
        meets the index unsorted, and its keys stale after a wide insert
        or a reload; the invariant's full comparison follows the batch."""
        for kind in kinds:
            if not self.model.tree and kind != "save and load":
                kind = "add"  # nothing to move or delete
            if kind.endswith("add") and len(self.model.tree) >= MAX_NODES:
                continue  # as for the add rules
            if kind == "add":
                self.add(data, data.draw(SLOTS))
            elif kind == "wide add":
                parent = self.draw_node(data, root=True)
                # above the highest taken slot, so that two draws of one
                # power cannot collide
                top = self.model.place(parent)[-1] - 1
                self.insert(data, parent, top + 2 ** data.draw(st.integers(64, 400)))
            elif kind == "move":
                self.move(data, data.draw(MOVE_PLACES), data.draw(MOVE_SLOTS))
            elif kind == "delete":
                self.delete(data)
            elif kind == "delete widest":
                self.remove(max(self.model.tree, key=lambda p: sum(self.model.matrix(p)[2:])))
            elif kind == "delete deepest":
                self.remove(max(self.model.tree, key=len))
            else:
                self.save_and_load()
            self.check_without_index()

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
        if call == "move to" and not self.model.tree:
            return
        with pytest.raises(MissingNodeError):
            calls[call]()

    # -- the comparison after every step ----------------------------------

    @invariant()
    def matches_the_model(self):
        check_store(self.store, self.model, FsPath(self.dir.name) / "s.db", records=self.handle)


StoreMachine.TestCase.settings = settings(deadline=None)
test_store_model = StoreMachine.TestCase
