import errno
import gc
import os
import random
import stat
import sys
import tempfile
import weakref
from fractions import Fraction
from pathlib import Path as FsPath

import pytest
from hypothesis import assume, given, settings, strategies

from mobiustree import store as store_module
from mobiustree.exactmath import DomainError, Ratio, to_decimal
from mobiustree.encoding import MobiusMatrix, Path, matrix_to_path, path_to_matrix, relative
from mobiustree.store import (
    CycleError,
    LoadError,
    MissingNodeError,
    OccupiedSlotError,
    StoreError,
    TreeStore,
    escape_payload,
    unescape_payload,
)

from oracles import (
    TreeModel,
    build_store_from_paths,
    check_store,
    dotted,
    mat_mul4,
    oracle_interval,
    primitive_product,
    random_forest,
)


def paths_of(store):
    return sorted(str(matrix_to_path(r.matrix)) for r in store)


def model_of(paths):
    """The model of build_store_from_paths(TreeStore, paths)."""
    return TreeModel({p: dotted(p) for p in paths})


def chain_store(*paths):
    """Store containing every prefix of every given dotted path."""
    closure = set()
    for text in paths:
        comps = tuple(Path.parse(text).components)
        for i in range(1, len(comps) + 1):
            closure.add(comps[:i])
    return build_store_from_paths(TreeStore, closure)


class TestAddChild:
    def test_first_allocation_under_root(self):
        st = TreeStore()
        rec = st.add_child("root", "first")
        assert rec.matrix.entries() == (1, 1, 1, 0)
        assert matrix_to_path(rec.matrix) == Path([1])

    def test_explicit_slot_21(self):
        st = chain_store("3.12.5.1")
        rec = st.add_child("3.12.5.1", "deep", index=21)
        assert rec.matrix.entries() == (4913, 225, 1594, 73)

    def test_sequential_allocation(self):
        st = TreeStore()
        st.add_child("root", "", index=3)
        a = st.add_child("3", "x")
        b = st.add_child("3", "y")
        assert a.matrix.entries() == (4, 3, 1, 1)
        assert b.matrix.entries() == (7, 3, 2, 1)
        assert paths_of(st) == ["3", "3.1", "3.2"]

    def test_missing_parent(self):
        st = TreeStore()
        with pytest.raises(MissingNodeError):
            st.add_child("4.7", "orphan")

    def test_occupied_slot(self):
        st = TreeStore()
        st.add_child("root", "", index=2)
        with pytest.raises(OccupiedSlotError):
            st.add_child("root", "", index=2)

    def test_gap_not_reused_but_tail_is(self):
        st = TreeStore()
        r1 = st.add_child("root", "1")
        st.add_child("root", "2")
        r3 = st.add_child("root", "3")
        st.delete_subtree(r1)
        assert matrix_to_path(st.add_child("root", "4").matrix) == Path([4])
        st.delete_subtree(r3)  # slot 3 was the max: freed for reuse
        st.delete_subtree(st.resolve("4"))
        assert matrix_to_path(st.add_child("root", "again").matrix) == Path([3])

    @pytest.mark.parametrize("index", [True, 2.0, "2"])
    def test_index_must_be_an_int(self, index):
        st = chain_store("3")
        with pytest.raises(TypeError):
            st.add_child("root", "x", index=index)
        with pytest.raises(TypeError):
            st.move_subtree(st.resolve("3"), "root", index=index)
        assert paths_of(st) == ["3"]

    def test_insert_is_non_volatile(self):
        st = chain_store("3.12.5.1.21", "4.7")
        before = {r: r.matrix for r in st}
        st.add_child("3.12", "new", index=6)
        for rec, m in before.items():
            assert rec.matrix == m


class TestResolveAndQueries:
    def test_resolve(self):
        st = chain_store("3.12.5.1.21")
        assert st.resolve("3.12.5.1.21").matrix.entries() == (4913, 225, 1594, 73)
        assert st.resolve(Path([3, 12])).payload == "3.12"
        with pytest.raises(MissingNodeError):
            st.resolve("9.9")

    def test_path_text_past_the_int_str_limit(self):
        """A component past CPython's int/str digit limit, between small
        ones, parses, resolves and takes a child like any other."""
        big = 7 * 10 ** (sys.int_info.default_max_str_digits + 699) + 9
        text = f"3.{to_decimal(big)}.2"
        assert Path.parse(text).components == (3, big, 2)
        st = TreeStore()
        mid = st.add_child(st.add_child("root", "3", index=3), "big", index=big)
        node = st.add_child(mid, "node", index=2)
        assert st.resolve(text) is st.resolve(Path.parse(text)) is node
        assert st.resolve(text.rpartition(".")[0]) is mid
        kid = st.add_child(text, "kid")
        assert kid.matrix.entries() == primitive_product((3, big, 2, 1))
        assert st.children(text) == [kid]
        # the message quotes the caller's text, excerpted
        missing = f"3.{to_decimal(big)}.5"
        for lookup in (st.resolve, lambda p: st.add_child(p, "orphan")):
            with pytest.raises(MissingNodeError) as e:
                lookup(missing)
            assert str(e.value) == f"no node at {missing[:40]}... ({len(missing)} chars)"

    def test_descendants_contains_deep_node(self):
        st = chain_store("3.12.5.1.21", "4.7")
        got = st.descendants(st.resolve("3.12"))
        assert [str(matrix_to_path(r.matrix)) for r in got] == ["3.12.5", "3.12.5.1", "3.12.5.1.21"]

    def test_descendants_of_leaf_empty(self):
        st = chain_store("3.12.5.1.21")
        assert st.descendants(st.resolve("3.12.5.1.21")) == []

    def test_descendants_distinguishes_equal_labels(self):
        # 3.12.5.1 and 3.12.6 share label 225/73 but are distinct nodes
        st = chain_store("3.12.5.1", "3.12.6")
        got = {str(matrix_to_path(r.matrix)) for r in st.descendants(st.resolve("3.12"))}
        assert got == {"3.12.5", "3.12.5.1", "3.12.6"}

    def test_descendants_ordered_by_interval_lo(self):
        rng = random.Random(5)
        st = build_store_from_paths(TreeStore, random_forest(rng, 120))
        from mobiustree.encoding import matrix_to_interval

        for rec in list(st)[:10]:
            got = st.descendants(rec)
            lows = [matrix_to_interval(r.matrix).lo for r in got]
            assert lows == sorted(lows)

    def test_stale_record_rejected(self):
        st = chain_store("3")
        rec = st.resolve("3")
        st.delete_subtree(rec)
        with pytest.raises(MissingNodeError):
            st.descendants(rec)

    def test_ancestors_worked_chain(self):
        st = chain_store("3.12.5.1.21")
        chain = st.ancestors(st.resolve("3.12.5.1.21"))
        labels = [str(Ratio(r.matrix.a, r.matrix.c)) for r in chain]
        assert labels == ["3/1", "37/12", "188/61", "225/73"]

    def test_ancestors_depth_one_empty(self):
        st = chain_store("3")
        assert st.ancestors(st.resolve("3")) == []

    def test_ancestors_via_convergents(self):
        from mobiustree.encoding import convergents, path_to_ratio

        st = chain_store("3.7.16")
        chain = st.ancestors(st.resolve("3.7.16"))
        labels = [Ratio(r.matrix.a, r.matrix.c) for r in chain]
        assert labels == convergents(path_to_ratio([3, 7, 16]))[:-1]
        assert [str(x) for x in labels] == ["3/1", "22/7"]

    def test_children_listing(self):
        st = chain_store("3.1", "3.2", "3.5", "4")
        kids = st.children(st.resolve("3"))
        assert {str(matrix_to_path(r.matrix)) for r in kids} == {"3.1", "3.2", "3.5"}
        top = st.children()
        assert {str(matrix_to_path(r.matrix)) for r in top} == {"3", "4"}

    def test_results_belong_to_the_caller(self):
        """Emptying or growing a returned list changes no later answer:
        no query hands out the index itself, and a leaf answers a new
        empty list each time."""
        st = chain_store("3.2.1.5", "3.4", "5")
        queries = {
            "all_nodes": st.all_nodes,
            "children of the root": st.children,
            "children": lambda: st.children("3"),
            "descendants": lambda: st.descendants(st.resolve("3")),
            # det +1 with a slot-1 child, which comes first
            "descendants of 3.2": lambda: st.descendants(st.resolve("3.2")),
            "children of a leaf": lambda: st.children("3.4"),
            "descendants of a leaf": lambda: st.descendants(st.resolve("5")),
            "children of an empty store's root": TreeStore().children,
        }
        want = {name: [r.payload for r in query()] for name, query in queries.items()}
        assert want["descendants of 3.2"] == ["3.2.1", "3.2.1.5"]
        extra = st.resolve("5")
        for query in queries.values():
            query().clear()
            query().append(extra)
            assert {name: [r.payload for r in q()] for name, q in queries.items()} == want


class TestRecordHandles:
    """A NodeRecord reference is resolved by identity: a record that was
    deleted, even one whose slot a new node took since, and a record of
    another store are missing for every operation, and the store is left
    as it was."""

    OPS = {
        "add_child": lambda st, h: st.add_child(h, "x"),
        "move_subtree_to": lambda st, h: st.move_subtree(st.resolve("4"), h),
        "move_subtree_from": lambda st, h: st.move_subtree(h, "root"),
        "children": lambda st, h: st.children(h),
        "descendants": lambda st, h: st.descendants(h),
        "ancestors": lambda st, h: st.ancestors(h),
        "delete_subtree": lambda st, h: st.delete_subtree(h),
    }

    @staticmethod
    def contents(st):
        return [(str(matrix_to_path(r.matrix)), r.payload) for r in st.all_nodes()]

    def check_missing(self, st, handle, op):
        before = self.contents(st)
        with pytest.raises(MissingNodeError):
            self.OPS[op](st, handle)
        assert self.contents(st) == before

    @pytest.mark.parametrize("op", OPS)
    def test_stale_handle_whose_slot_was_taken(self, op):
        st = chain_store("3.1", "4")
        stale = st.resolve("3")
        st.delete_subtree(stale)
        new = st.add_child("root", "new", index=3)
        assert new.matrix == stale.matrix
        self.check_missing(st, stale, op)
        assert st.children(new) == []

    @pytest.mark.parametrize("op", OPS)
    def test_record_of_another_store(self, op):
        st = chain_store("3.1", "4")
        foreign = chain_store("3.1", "4").resolve("3")
        self.check_missing(st, foreign, op)

    @pytest.mark.parametrize(
        "call",
        [
            lambda st: st.descendants("1"),
            lambda st: st.ancestors(Path([1])),
            lambda st: st.delete_subtree(None),
            lambda st: st.move_subtree("1", "root"),
            lambda st: st.add_child([1], "x"),
        ],
        ids=["descendants", "ancestors", "delete_subtree", "move_subtree", "add_child-under-a-list"],
    )
    def test_non_record_handle_is_a_type_error(self, call):
        """Methods that take a record, not a reference, reject anything
        else as children() rejects a reference of the wrong type, and
        add_child a parent that is no kind of reference."""
        st = chain_store("1.1", "4")
        before = self.contents(st)
        with pytest.raises(TypeError):
            call(st)
        assert self.contents(st) == before


class TestLeafAnswers:
    """A record with no child slots answers descendants and children
    from its own record, with no index search, after the same handle
    checks as any other record."""

    @pytest.mark.parametrize("query", ["descendants", "children"])
    def test_missing_leaf_handles_still_raise(self, query):
        st = chain_store("3.1", "4")
        stale = st.resolve("3.1")
        st.delete_subtree(stale)
        st.add_child("3", "new", index=1)
        foreign = chain_store("3.1", "4").resolve("4")
        for handle in (stale, foreign):
            with pytest.raises(MissingNodeError):
                getattr(st, query)(handle)
        with pytest.raises(TypeError):
            getattr(st, query)(object())

    def test_a_leaf_needs_no_index_search(self, monkeypatch):
        """With the store's bisect and child lookup broken, a leaf still
        answers; its descendants query still sorts the index a mutation
        left unsorted, as every descendants query does."""
        st = chain_store("3.2.1.5", "3.4")
        st.add_child("3.4", "leaf", index=7)
        assert st._unsorted

        def broken(*args, **kwargs):
            raise AssertionError("index search")

        monkeypatch.setattr(store_module.bisect, "bisect_left", broken)
        monkeypatch.setattr(TreeStore, "_records_at", broken)
        leaf = st.resolve("3.4.7")
        assert st.descendants(leaf) == []
        assert not st._unsorted
        assert st.children(leaf) == []
        with pytest.raises(AssertionError):
            st.descendants(st.resolve("3.4"))


class TestRecordLayout:
    """A record holds its matrix's four entries, not a MobiusMatrix;
    rec.matrix is a read-only view of them."""

    @staticmethod
    def reachable(obj):
        """Objects gc.get_referents reaches from obj, not through types."""
        seen = set()
        stack = [obj]
        while stack:
            for ref in gc.get_referents(stack.pop()):
                if not isinstance(ref, type) and id(ref) not in seen:
                    seen.add(id(ref))
                    stack.append(ref)
                    yield ref

    def test_records_keep_no_matrix_object(self, tmp_path):
        st = chain_store("3.12.5.1.21", "4.7")
        st.add_child("3.12", "new", index=9)
        st.move_subtree(st.resolve("3.12.5"), "4.7")
        f = tmp_path / "s.db"
        st.save(f)
        for store in (st, TreeStore.load(f)):
            assert len(store) == 8
            for rec in store:
                assert not any(isinstance(o, MobiusMatrix) for o in self.reachable(rec))

    def test_matrix_is_a_read_only_view(self):
        st = chain_store("3.12.5.1", "4.7")
        rec = st.resolve("3.12.5.1")
        with pytest.raises(AttributeError):
            rec.matrix = path_to_matrix(Path([4, 7]))
        assert st.resolve("3.12.5.1") is rec
        st.move_subtree(st.resolve("3.12"), "4.7", index=2)
        assert rec.matrix == path_to_matrix(Path([4, 7, 2, 5, 1]))
        assert st.resolve("4.7.2.5.1") is rec

    def test_tracked_objects_are_records_and_parents_slot_lists(self):
        """The garbage collector tracks each record, and the child-slot
        list of each record with children, and nothing else per record:
        the index is the records themselves, with no entry object around
        each, and leaves share the untracked empty tuple."""
        paths = random_forest(random.Random(7), 5000)
        gc.collect()
        before = len(gc.get_objects())
        st = build_store_from_paths(TreeStore, paths)
        st.all_nodes()
        gc.collect()
        parents = sum(1 for rec in st if rec._kids)
        assert parents < 0.6 * len(st)  # about half the records are leaves
        assert len(gc.get_objects()) - before <= len(st) + parents + 100

    def test_leaves_hold_the_empty_tuple(self, tmp_path):
        """A childless record holds (), and a list is made at its first
        child and dropped with its last, by a delete or a move."""

        def check(store):
            parents = {id(rec._parent) for rec in store}
            for rec in (store._root, *store):
                if id(rec) in parents:
                    assert isinstance(rec._kids, list) and rec._kids
                else:
                    assert rec._kids == ()

        st = TreeStore()
        check(st)
        st = chain_store("3.12.5", "4.7", "5.1", "6")
        check(st)
        st.delete_subtree(st.resolve("3.12.5"))  # 3.12's last child
        st.move_subtree(st.resolve("4.7"), "6")  # 4's last child, 6's first
        st.move_subtree(st.resolve("5.1"), "5", index=3)  # 5's only child, in place
        check(st)
        assert st.resolve("3.12")._kids == st.resolve("4")._kids == ()
        assert st.resolve("6")._kids == [1] and st.resolve("5")._kids == [3]
        st.save(tmp_path / "s.db")
        check(TreeStore.load(tmp_path / "s.db"))
        for rec in st.children():
            st.delete_subtree(rec)
        check(st)

    @pytest.mark.parametrize("case", ["built", "loaded", "deleted_handle_held"])
    def test_a_dropped_store_is_freed_without_the_cycle_collector(self, case, tmp_path):
        """References among a store and its records form no cycle, so
        with the cyclic collector off a store is freed as soon as its
        last reference goes, even while a handle it deleted is held."""
        st = chain_store("3.12.5.1.21", "4.7", "5.2")
        st.move_subtree(st.resolve("3.12"), "4.7")
        held = st.resolve("5")
        st.delete_subtree(held)
        if case == "loaded":
            st.save(tmp_path / "s.db")
            st = TreeStore.load(tmp_path / "s.db")
        if case != "deleted_handle_held":
            del held
        # every query, so that whatever a query keeps is in place
        st.ancestors(st.descendants(st.resolve("4"))[-1])
        st.children("4.7")
        ref = weakref.ref(st)
        gc.collect()
        gc.disable()
        try:
            del st
            assert ref() is None
        finally:
            gc.enable()

    def test_removed_records_are_released_by_the_next_query(self):
        """No operation finds a removed record.  A delete cuts its
        records out of a sorted index, so they are released at once;
        after an insert the index is unsorted, and its old list keeps
        records deleted since alive until the next query sorts a new
        one."""
        st = build_store_from_paths(TreeStore, random_forest(random.Random(67), 200))
        *_, other, second, first = sorted(st.children(), key=lambda r: len(st.descendants(r)))
        removed = {node: [node, *st.descendants(node)] for node in (first, second)}
        assert st.delete_subtree(first) == len(removed[first]) > 1
        assert not st._unsorted
        held = {id(o) for o in self.reachable(st)}
        assert not any(id(r) in held for r in removed[first])

        st.add_child(other, "x")
        assert st.delete_subtree(second) == len(removed[second]) > 1
        held = {id(o) for o in self.reachable(st)}
        assert all(id(r) in held for r in removed[second])
        for op in (
            lambda h: st.descendants(h),
            lambda h: st.ancestors(h),
            lambda h: st.children(h),
            lambda h: st.add_child(h, "x"),
            lambda h: st.move_subtree(h, "root"),
            lambda h: st.move_subtree(other, h),
            lambda h: st.delete_subtree(h),
        ):
            for handle in (first, removed[first][-1], second, removed[second][-1]):
                with pytest.raises(MissingNodeError):
                    op(handle)
        assert len(st.all_nodes()) == len(st) == 201 - sum(map(len, removed.values()))
        held = {id(o) for o in self.reachable(st)}
        assert not any(id(r) in held for r in removed[second])


class TestMoveSubtree:
    def test_worked_relocation(self):
        st = chain_store("3.12.5.1.21", "4.7")
        count = st.move_subtree(st.resolve("3.12.5"), st.resolve("4.7"), index=5)
        assert count == 3
        assert st.resolve("4.7.5.1.21").matrix.entries() == (3887, 178, 939, 43)
        assert paths_of(st) == ["3", "3.12", "4", "4.7", "4.7.5", "4.7.5.1", "4.7.5.1.21"]

    def test_identity_move(self):
        st = chain_store("3.7")
        rec = st.resolve("3.7")
        assert st.move_subtree(rec, st.resolve("3"), index=7) == 1
        assert st.resolve("3.7") is rec

    def test_auto_index(self):
        st = chain_store("3.1", "3.2", "5")
        st.move_subtree(st.resolve("5"), st.resolve("3"))
        assert paths_of(st) == ["3", "3.1", "3.2", "3.3"]

    def test_cycle_rejected(self):
        st = chain_store("3.12.5")
        with pytest.raises(CycleError):
            st.move_subtree(st.resolve("3"), st.resolve("3.12.5"))
        with pytest.raises(CycleError):
            st.move_subtree(st.resolve("3"), st.resolve("3"))

    def test_occupied_slot_rejected(self):
        st = chain_store("3.12", "4.12")
        with pytest.raises(OccupiedSlotError):
            st.move_subtree(st.resolve("3.12"), st.resolve("4"), index=12)

    def test_move_to_root(self):
        st = chain_store("3.12.5")
        st.move_subtree(st.resolve("3.12"), "root", index=9)
        assert paths_of(st) == ["3", "9", "9.5"]

    def test_payloads_and_relatives_preserved(self):
        st = chain_store("2.3.4", "7")
        src = st.resolve("2.3")
        rels_before = {r.payload: relative(src.matrix, r.matrix) for r in [src] + st.descendants(src)}
        st.move_subtree(src, st.resolve("7"), index=1)
        rels_after = {r.payload: relative(src.matrix, r.matrix) for r in [src] + st.descendants(src)}
        assert rels_before == rels_after
        assert st.resolve("7.1").payload == "2.3"
        assert st.resolve("7.1.4").payload == "2.3.4"


class TestSlotChoice:
    """add_child and move_subtree choose a child slot the same way."""

    @pytest.fixture(params=["add_child", "move_subtree"])
    def place(self, request):
        """Put a new node under parent at index, by insert or by moving
        a leaf from root slot 50; returns the placed record."""

        def place(st, parent, index=None):
            if request.param == "add_child":
                return st.add_child(parent, "placed", index=index)
            src = st.add_child("root", "placed", index=50)
            st.move_subtree(src, parent, index=index)
            return src

        return place

    @pytest.mark.parametrize("index", [0, -(10**5000)], ids=["zero", "huge-negative"])
    def test_index_below_one_rejected(self, place, index):
        st = chain_store("3")
        with pytest.raises(DomainError):
            place(st, "3", index)

    def test_occupied_slot_rejected(self, place):
        st = chain_store("3.2")
        with pytest.raises(OccupiedSlotError):
            place(st, "3", 2)

    def test_move_to_own_slot_by_auto_index(self):
        # the explicit-index case is TestMoveSubtree.test_identity_move
        st = chain_store("3.1", "3.2")
        rec = st.resolve("3.2")
        assert st.move_subtree(rec, st.resolve("3")) == 1
        assert st.resolve("3.2") is rec
        assert paths_of(st) == ["3", "3.1", "3.2"]


class TestDeleteSubtree:
    def test_leaf(self):
        st = chain_store("3.12")
        assert st.delete_subtree(st.resolve("3.12")) == 1
        assert paths_of(st) == ["3"]

    def test_subtree_count(self):
        st = chain_store("3.12.5.1.21")
        assert st.delete_subtree(st.resolve("3.12")) == 4
        assert paths_of(st) == ["3"]

    def test_resolve_after_delete(self):
        st = chain_store("3.12")
        st.delete_subtree(st.resolve("3.12"))
        with pytest.raises(MissingNodeError):
            st.resolve("3.12")


# the steps of TreeStore.save, in the order it takes them
SAVE_STEPS = [
    "mkstemp",
    "write",
    "chmod",
    "file fsync",
    "replace",
    "directory open",
    "directory fsync",
]


def fail_save_step(monkeypatch, step):
    """Make one step of a save raise OSError, leaving every other call
    to the same function alone (mkstemp opens its file with os.open, and
    the file and the directory share os.fsync)."""

    def is_dir(fd):
        return stat.S_ISDIR(os.fstat(fd).st_mode)

    def fail(*args, **kwargs):
        raise OSError(errno.EIO, f"injected {step} failure")

    if step == "write":
        real_fdopen = os.fdopen

        def fdopen(fd, mode):
            f = real_fdopen(fd, mode)
            f.write = fail
            return f

        monkeypatch.setattr(os, "fdopen", fdopen)
        return
    module, name, fails = {
        "mkstemp": (tempfile, "mkstemp", lambda *args, **kwargs: True),
        "chmod": (os, "chmod", lambda *args: True),
        "file fsync": (os, "fsync", lambda fd: not is_dir(fd)),
        "replace": (os, "replace", lambda *args: True),
        "directory open": (os, "open", lambda path, *args, **kwargs: os.path.isdir(path)),
        "directory fsync": (os, "fsync", is_dir),
    }[step]
    real = getattr(module, name)

    def call(*args, **kwargs):
        if fails(*args, **kwargs):
            fail()
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, call)


class TestPersistence:
    def test_empty_roundtrip(self, tmp_path):
        f = tmp_path / "s.db"
        TreeStore().save(f)
        assert f.read_bytes() == b"mobius-tree v1\n"
        assert len(TreeStore.load(f)) == 0

    def test_record_line_format(self, tmp_path):
        st = chain_store("3.12.5.1.21")
        deep = st.resolve("3.12.5.1.21")
        deep.payload = "example"
        f = tmp_path / "s.db"
        st.save(f)
        assert "4913\t225\t1594\t73\texample" in f.read_text().splitlines()

    def test_save_load_save_is_byte_identical(self, tmp_path):
        rng = random.Random(11)
        st = build_store_from_paths(TreeStore, random_forest(rng, 150))
        f1, f2 = tmp_path / "a.db", tmp_path / "b.db"
        st.save(f1)
        TreeStore.load(f1).save(f2)
        assert f1.read_bytes() == f2.read_bytes()

    def test_sorted_by_interval(self, tmp_path):
        from mobiustree.encoding import matrix_to_interval

        rng = random.Random(13)
        st = build_store_from_paths(TreeStore, random_forest(rng, 80))
        f = tmp_path / "s.db"
        st.save(f)
        keys = []
        for line in f.read_text().splitlines()[1:]:
            a, b, c, d, _ = line.split("\t")
            iv = matrix_to_interval(MobiusMatrix(int(a), int(b), int(c), int(d)))
            keys.append((iv.lo, iv.hi))
        assert keys == sorted(keys)

    def test_payload_escaping(self, tmp_path):
        st = TreeStore()
        nasty = "tab\there\nline\\slash"
        st.add_child("root", nasty)
        f = tmp_path / "s.db"
        st.save(f)
        text = f.read_text()
        assert len(text.splitlines()) == 2  # header + one record line
        loaded = TreeStore.load(f)
        assert loaded.resolve("1").payload == nasty

    @pytest.mark.parametrize("payload", ["a\rb", "x\r", "\r\n"])
    def test_carriage_returns_roundtrip(self, tmp_path, payload):
        st = TreeStore()
        st.add_child("root", payload)
        f = tmp_path / "s.db"
        st.save(f)
        # the file keeps the raw CR; only tab, newline and backslash escape
        record = b"1\t1\t1\t0\t" + payload.encode().replace(b"\n", b"\\n")
        assert f.read_bytes() == b"mobius-tree v1\n" + record + b"\n"
        assert TreeStore.load(f).resolve("1").payload == payload

    def test_payload_must_encode_as_utf8(self):
        st = TreeStore()
        with pytest.raises(DomainError, match="UTF-8"):
            st.add_child("root", "a\udcffb")
        assert len(st) == 0

    def test_escape_helpers(self):
        for s in ["", "plain", "a\tb", "a\nb", "a\\b", "\\t", "\\\\n"]:
            assert unescape_payload(escape_payload(s)) == s
        with pytest.raises(ValueError):
            unescape_payload("bad\\x")
        with pytest.raises(ValueError):
            unescape_payload("dangling\\")

    @given(strategies.text())
    def test_escape_roundtrip(self, s):
        assert unescape_payload(escape_payload(s)) == s

    @pytest.mark.parametrize(
        "text, message",
        [
            ("dangling\\", "dangling backslash in payload"),
            ("\\\\\\", "dangling backslash in payload"),
            ("bad\\x", "bad escape \\x in payload"),
            ("\\T", "bad escape \\T in payload"),
            ("\\0", "bad escape \\0 in payload"),
            ("a\\ b", "bad escape \\  in payload"),
            ("\\\t", "bad escape \\\t in payload"),
            ("\\\nx", "bad escape \\\n in payload"),
            ("\\\u00e9", "bad escape \\\u00e9 in payload"),
            ("\\t\\q\\", "bad escape \\q in payload"),
        ],
    )
    def test_unescape_errors(self, text, message):
        with pytest.raises(ValueError) as ei:
            unescape_payload(text)
        assert str(ei.value) == message

    def test_load_errors_name_lines(self, tmp_path):
        f = tmp_path / "s.db"

        def expect_error(content, line):
            f.write_text(content)
            with pytest.raises(LoadError) as ei:
                TreeStore.load(f)
            assert ei.value.line == line

        expect_error("wrong header\n", 1)
        expect_error("mobius-tree v1\n3\t1\t1\t0\n", 2)  # 4 fields
        expect_error("mobius-tree v1\n3\t1\t1\tx\tpay\n", 2)  # non-integer
        expect_error("mobius-tree v1\n2\t0\t2\t0\tx\n", 2)  # det 0
        expect_error("mobius-tree v1\n1\t0\t0\t1\tx\n", 2)  # identity
        expect_error(
            "mobius-tree v1\n3\t1\t1\t0\ta\n3\t1\t1\t0\tb\n", 3
        )  # duplicate
        expect_error("mobius-tree v1\n3\t1\t1\t0\tbad\\q\n", 2)  # bad escape
        # orphan: 3.12 without 3
        expect_error("mobius-tree v1\n37\t3\t12\t1\tx\n", 2)
        # a parent step that matrix_to_path would never finish decoding
        expect_error("mobius-tree v1\n0\t1\t2\t3\tx\n", 2)
        # (1, 1, 0, 1) is no node: the parent step's a - b < b branch
        # sends it to (1, 0, 1, -1), while the division alone would put
        # it in slot 0 of node 1, which the file holds
        expect_error("mobius-tree v1\n1\t1\t1\t0\tone\n1\t1\t0\t1\tbad\n", 3)

    def test_entries_past_the_int_str_limit(self, tmp_path):
        big = 10**5000
        st = TreeStore()
        top = st.add_child("root", "x", index=big)
        st.add_child(top, "y")
        f1, f2 = tmp_path / "a.db", tmp_path / "b.db"
        st.save(f1)
        assert ("1" + "0" * 5000 + "\t1\t1\t0\tx") in f1.read_text().splitlines()
        loaded = TreeStore.load(f1)
        loaded.save(f2)
        assert f1.read_bytes() == f2.read_bytes()
        assert loaded.resolve(Path([big, 1])).payload == "y"
        with pytest.raises(OccupiedSlotError):
            loaded.add_child("root", "z", index=big)
        # the deepest key is "10...01<TAB>10...0<TAB>1<TAB>1", 5001 digits each
        assert loaded.stats().max_key_bytes == 5001 + 1 + 5001 + 4

    @pytest.mark.parametrize(
        "entries, copies",
        [
            (("9" * 5000, "1", "1", "1"), 1),  # determinant has 5000 digits
            (("1", "0", "9" * 5000, "1"), 1),  # c > a
            (("9" * 10**6 + "x", "1", "1", "1"), 1),
            (("9" * 100_000, "1", "1", "1"), 2),
        ],
        ids=["determinant", "ordering", "non-integer", "duplicate"],
    )
    def test_load_rejects_bad_huge_entries(self, tmp_path, entries, copies):
        """The error names the first bad line and quotes only the start
        of each huge entry."""
        f = tmp_path / "s.db"
        f.write_text("mobius-tree v1\n" + ("\t".join(entries) + "\tx\n") * copies)
        with pytest.raises(LoadError) as ei:
            TreeStore.load(f)
        assert ei.value.line == 1 + copies
        assert len(str(ei.value)) < 300

    def test_missing_file(self, tmp_path):
        with pytest.raises(StoreError):
            TreeStore.load(tmp_path / "nope.db")

    @pytest.mark.parametrize("step", ["load", "save"])
    def test_a_huge_file_name_gives_a_short_error(self, tmp_path, step):
        name = tmp_path / ("x" * 100_000)
        with pytest.raises(StoreError) as ei:
            TreeStore.load(name) if step == "load" else TreeStore().save(name)
        assert len(str(ei.value)) < 300

    @pytest.mark.parametrize("parent", ["root", "3", "3.4"], ids=["det+1", "det-1", "depth-2"])
    def test_loaded_store_keeps_child_slots(self, tmp_path, parent):
        """The file lists a det -1 parent's children by descending slot;
        the loaded store still lists children in interval order and
        gives an automatic slot above the highest."""
        st = chain_store("3.4")
        for n in (1, 2, 5, 9):
            st.add_child(parent, f"k{n}", index=n)
        f = tmp_path / "s.db"
        st.save(f)
        loaded = TreeStore.load(f)
        assert [r.payload for r in loaded.children(parent)] == [r.payload for r in st.children(parent)]
        rec = loaded.add_child(parent, "auto")
        assert matrix_to_path(rec.matrix).components[-1] == 10

    def test_atomic_save_replaces(self, tmp_path):
        f = tmp_path / "s.db"
        st = chain_store("3")
        st.save(f)
        st.add_child("root", "", index=9)
        st.save(f)
        assert len(TreeStore.load(f)) == 2
        assert list(tmp_path.iterdir()) == [f]  # no temp leftovers

    def test_save_through_a_symlink_writes_its_target(self, tmp_path):
        """A save resolves the destination first: the link stays a link,
        the file it names gets the new records and keeps its mode, and
        no temp file is left beside either name."""
        (tmp_path / "real").mkdir()
        real = tmp_path / "real" / "s.db"
        link = tmp_path / "link.db"
        chain_store("3").save(real)
        os.chmod(real, 0o640)
        link.symlink_to("real/s.db")
        st = TreeStore.load(link)
        st.add_child("root", "new", index=9)
        st.save(link)
        assert link.is_symlink() and os.readlink(link) == "real/s.db"
        assert paths_of(TreeStore.load(real)) == ["3", "9"]
        assert stat.S_IMODE(real.stat().st_mode) == 0o640
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["link.db", "real", "s.db"]

    def test_save_syncs_the_file_before_the_rename_and_the_directory_after(
        self, tmp_path, monkeypatch
    ):
        st = chain_store("3.12")
        st.save(tmp_path / "before.db")
        size = (tmp_path / "before.db").stat().st_size
        f = tmp_path / "s.db"
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            info = os.fstat(fd)
            if stat.S_ISDIR(info.st_mode):
                calls.append(("fsync dir", info.st_ino == tmp_path.stat().st_ino))
            else:
                calls.append(("fsync file", info.st_size == size))
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", FsPath(dst) == f))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        st.save(f)
        assert calls == [("fsync file", True), ("replace", True), ("fsync dir", True)]
        assert f.stat().st_size == size

    @pytest.mark.parametrize("step", SAVE_STEPS)
    def test_a_failing_save_step_raises_store_error(self, tmp_path, monkeypatch, step):
        """Each step of a save fails in turn.  Before the rename the old
        file keeps its bytes, mode and inode, and no temp file is left.
        The directory's open and fsync come after the rename: the new
        bytes are in place, and the save still raises, since the rename
        may not survive a crash."""
        f = tmp_path / "s.db"
        chain_store("3").save(f)
        os.chmod(f, 0o640)
        old = f.read_bytes()
        old_ino = f.stat().st_ino
        st = chain_store("3.12", "4")
        st.save(tmp_path / "want")
        new = (tmp_path / "want").read_bytes()
        (tmp_path / "want").unlink()
        fail_save_step(monkeypatch, step)
        with pytest.raises(StoreError, match=f"cannot write .*injected {step} failure"):
            st.save(f)
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == [f]
        assert stat.S_IMODE(f.stat().st_mode) == 0o640
        if step.startswith("directory"):
            assert f.read_bytes() == new
        else:
            assert f.read_bytes() == old
            assert f.stat().st_ino == old_ino


class TestIndexOrderOracle:
    """all_nodes(), stats() and the saved bytes against a path-tuple
    model, whose interval order is computed with Fraction from oracle
    primitive products alone."""

    QUERIES = ()

    def check(self, store, tmp_path, model):
        check_store(store, model, tmp_path / "s.db", self.QUERIES)

    def test_random_forests(self, tmp_path):
        rng = random.Random(41)
        for size in (1, 2, 60, 400):
            paths = random_forest(rng, size)
            self.check(build_store_from_paths(TreeStore, paths), tmp_path, model_of(paths))

    def test_deep_spines_with_huge_endpoints(self, tmp_path):
        st = TreeStore()
        model = TreeModel()

        def add(parent, path):
            model.tree[path] = str(len(model.tree))
            return st.add_child(parent, model.tree[path], index=path[-1])

        for top in (1, 2, 3):
            ref = add("root", (top,))
            path = (top,)
            for level in range(1500):
                path += (1,)
                ref = add(ref, path)
                if level % 300 == 299:
                    # siblings and a nephew right next to the spine
                    for n in (2, 3):
                        add(add(ref, path + (n,)), path + (n, 1))
        self.check(st, tmp_path, model)
        max_den_bits = max((c + d).bit_length() for _, _, c, d in map(model.matrix, model.tree))
        assert 2 * max_den_bits + 2 > 2000  # the sort key's shift k

    def test_equal_low_endpoints(self, tmp_path):
        store = chain_store("3.2.1.5")
        model = model_of([(3,), (3, 2), (3, 2, 1), (3, 2, 1, 5)])
        self.check(store, tmp_path, model)
        assert model.order() == [(3,), (3, 2, 1), (3, 2), (3, 2, 1, 5)]


class TestSharedLowEndpoints:
    """The fact the index key rests on, checked with Fraction endpoints."""

    @settings(max_examples=40, deadline=None)
    @given(strategies.sampled_from(["forest", "chains", "moves"]), strategies.integers(0, 2**32))
    def test_low_endpoint_and_closed_bit_give_the_order(self, shape, seed):
        """Two stored records share a low endpoint only as a det +1 node,
        closed there, and its slot-1 child, open there, so sorting by
        (low endpoint, closed) is sorting by (low, high)."""
        rng = random.Random(seed)
        if shape == "chains":
            # first-child chains, with an occasional slot-2 step
            spines = [
                [rng.randint(1, 9)] + [rng.choice([1, 1, 1, 2]) for _ in range(60)]
                for _ in range(rng.randint(1, 4))
            ]
            st = chain_store(*(".".join(map(str, p)) for p in spines))
        else:
            st = build_store_from_paths(TreeStore, random_forest(rng, rng.randint(1, 200)))
        if shape == "moves":
            for _ in range(20):
                recs = list(st)
                try:
                    st.move_subtree(
                        rng.choice(recs), rng.choice(recs + ["root"]), index=rng.choice([None, 1, 2])
                    )
                except (CycleError, OccupiedSlotError):
                    pass
        rows = []
        for rec in st:
            a, b, c, d = m = rec.matrix.entries()
            lo, hi = oracle_interval(m)
            # the value at x = 1, (a+b)/(c+d), is the attained endpoint
            rows.append((lo, lo == Fraction(a + b, c + d), hi, m))
        by_low = {}
        for row in rows:
            by_low.setdefault(row[0], []).append(row)
        for group in by_low.values():
            assert len(group) <= 2
            if len(group) == 2:
                (_, closed1, _, child), (_, closed2, _, node) = sorted(group)
                a, b, c, d = node
                assert (closed1, closed2) == (False, True)
                assert a * d - b * c == 1
                assert child == mat_mul4(node, primitive_product((1,)))
        assert sorted(rows, key=lambda r: r[:2]) == sorted(rows, key=lambda r: (r[0], r[2]))


class TestDescendantsSliceOracle(TestIndexOrderOracle):
    """Every store of the index-order oracle again, now also checking
    descendants() of every node: the nodes with its path as a proper
    prefix, in the model's interval order."""

    QUERIES = ("descendants",)

    def test_first_child_chains(self, tmp_path):
        store = chain_store("1.1.1.1.1.1.1.1", "3.1.1.1", "3.2.1.5", "3.2.1.1.1", "2.1.1.2")
        model = TreeModel({tuple(map(int, rec.payload.split("."))): rec.payload for rec in store})
        self.check(store, tmp_path, model)


class TestDescendantsEndSearch:
    """descendants() finds a subtree's end among the W index entries
    past its start, or by a bisect past them, and checks the node by
    its owner token before any index work: subtrees on either side of W,
    with and without entries after them, against the slice oracle."""

    W = store_module._END_WINDOW

    @staticmethod
    def slice_length(store, node):
        """j - i: a det +1 node's slot-1 child sorts before the slice."""
        slots = [matrix_to_path(r.matrix)[-1] for r in store.children(node)]
        return len(store.descendants(node)) - (node.matrix.det == 1 and 1 in slots)

    @staticmethod
    def subtree(shape, size):
        if shape == "forest":
            return random_forest(random.Random(size), size)
        if shape == "chain":
            return [(1,) * n for n in range(1, size + 1)]
        return [(n,) for n in range(2, size + 2)]  # a fan with slot 1 free

    def test_subtree_sizes_around_the_window(self, tmp_path):
        covered = set()
        for node in [(3,), (3, 2)]:  # det -1, det +1
            for tail in (True, False):
                for shape in ("forest", "chain", "fan"):
                    for size in range(2 * self.W + 2):
                        paths = {(1,), (1, 1), (1, 2), *(node[:n] for n in range(1, len(node) + 1))}
                        paths |= {node + p for p in self.subtree(shape, size)}
                        if tail:  # entries after the subtree, past the probe
                            paths |= {(4,) + p for p in random_forest(random.Random(1), self.W + 2)}
                            paths.add((4,))
                        store = build_store_from_paths(TreeStore, paths)
                        check_store(store, model_of(paths), tmp_path / "s.db", ("descendants",))
                        rec = store.resolve(".".join(map(str, node)))
                        covered.add((len(node), tail, self.slice_length(store, rec)))
        for depth in (1, 2):
            for tail in (True, False):
                # the end at i + W and on both sides of it
                assert {(depth, tail, n) for n in range(2 * self.W + 2)} <= covered

    def test_det_plus_one_node_whose_only_child_is_slot_one(self, tmp_path):
        paths = {(3,), (3, 2), (3, 2, 1), (3, 1), (4,)} | {(4, n) for n in range(1, 2 * self.W)}
        store = build_store_from_paths(TreeStore, paths)
        check_store(store, model_of(paths), tmp_path / "s.db", ("descendants",))
        node = store.resolve("3.2")
        assert node.matrix.det == 1
        assert [r.payload for r in store.descendants(node)] == ["3.2.1"]
        assert self.slice_length(store, node) == 0

    @pytest.fixture
    def calls(self, monkeypatch):
        """Names of the TreeStore methods _ensure_index and _require, in
        call order."""
        calls = []
        for name in ("_ensure_index", "_require"):
            real = getattr(TreeStore, name)

            def counting(store, *args, _name=name, _real=real):
                calls.append(_name)
                return _real(store, *args)

            monkeypatch.setattr(TreeStore, name, counting)
        return calls

    @staticmethod
    def handles():
        """A store, and three records it does not hold: a deleted one
        whose slot a new node took, one of an equal store at a key it
        holds, and one of a store with its keys stale."""
        paths = random_forest(random.Random(67), 200)
        st = build_store_from_paths(TreeStore, paths)
        stale, kept = st.children()[:2]
        st.delete_subtree(stale)
        assert st.add_child("root", "new", index=matrix_to_path(stale.matrix)[-1]).matrix == stale.matrix
        foreign = build_store_from_paths(TreeStore, paths).resolve(matrix_to_path(kept.matrix))
        return st, [stale, foreign, TreeStore().add_child("root", "x")]

    @pytest.mark.parametrize("index", ["sorted", "unsorted", "stale"])
    def test_missing_handles_raise_before_any_index_work(self, calls, index):
        """Each handle, and a handle asked of an empty store, fails the
        owner check, whether the index is sorted, unsorted, or unsorted
        with its keys stale after an insert wider than every record."""
        st, handles = self.handles()
        empty = TreeStore()
        st.all_nodes()
        top = st.children()[0]
        if index == "sorted":
            empty.all_nodes()
        else:
            # slot 2**300 under a top-level node is wider than every record
            st.add_child(top, "newer", index=2**300 if index == "stale" else None)
        assert st._stale == (index == "stale")
        calls.clear()
        for store, handle in [*((st, h) for h in handles), (empty, handles[0])]:
            with pytest.raises(MissingNodeError):
                store.descendants(handle)
        assert calls == ["_require"] * (len(handles) + 1)  # no _ensure_index


class TestChildrenOrderOracle(TestIndexOrderOracle):
    """Every store of the index-order oracle again, now also checking
    children() of every node and of the root: the model's interval
    order restricted to the node's children."""

    QUERIES = ("children",)


class TestStats:
    def test_empty(self):
        s = TreeStore().stats()
        assert (s.nodes, s.max_depth, s.max_numerator_bits, s.max_key_bytes) == (0, 0, 0, 0)

    def test_deep_chain_stats(self):
        st = chain_store("3.12.5.1.21")
        s = st.stats()
        assert s.nodes == 5
        assert s.max_depth == 5
        assert s.max_numerator_bits == 13  # 4913
        assert s.max_key_bytes == len(b"4913\t225\t1594\t73")

    def test_fibonacci_chain(self):
        st = TreeStore()
        parent = "root"
        for i in range(40):
            rec = st.add_child(parent, f"n{i}", index=1)
            parent = rec
        s = st.stats()
        assert s.max_depth == 40
        assert s.max_numerator_bits == 28  # 165580141

    def test_deep_spines_match_the_oracle(self):
        st = TreeStore()
        model = TreeModel()
        for top in (1, 3, 5, 7):
            ref, path = "root", ()
            for slot in (top,) + (1,) * 300:
                # the next spine node, and a side leaf in the slot after it
                for n in (slot + 1, slot):
                    model.tree[path + (n,)] = "x"
                    node = st.add_child(ref, "x", index=n)
                ref, path = node, path + (slot,)
        assert vars(st.stats()) == model.stats()
        assert st.stats().max_depth == 301


class TestDescendantsOracle:
    def test_matches_prefix_filter_on_random_forests(self, tmp_path):
        """Every node's descendants are the nodes its path prefixes."""
        rng = random.Random(31)
        sizes = [500] + [rng.randint(20, 160) for _ in range(7)]
        for size in sizes:
            paths = random_forest(rng, size)
            st = build_store_from_paths(TreeStore, paths)
            check_store(st, model_of(paths), tmp_path / "s.db", ("descendants",))


class TestKeyComputations:
    """A record's index keys are computed once, when it gets its
    matrix; the index rebuild after an ordinary mutation only sorts.
    Only a mutation that needs a wider shift than every record before
    it re-keys records it did not add or move."""

    @pytest.fixture
    def keyed(self, monkeypatch):
        """Matrix entries passed to the store's key function, in call
        order."""
        keyed = []
        real = store_module._low_key

        def counting(key, k):
            keyed.append(key)
            return real(key, k)

        monkeypatch.setattr(store_module, "_low_key", counting)
        return keyed

    def test_keys_per_mutation(self, keyed, tmp_path):
        st = build_store_from_paths(TreeStore, random_forest(random.Random(47), 300))
        # a node much wider than the forest's, so that the moves below
        # never widen the shift
        w = st.add_child("root", "w", index=40)
        wide = st.add_child(w, "wide", index=2**200)
        st.all_nodes()
        assert len(keyed) == len(st)  # the first build keys every record once
        shift = st._shift

        # the three largest top-level subtrees of the forest
        top = [r for r in st.children() if r is not w]
        src, target, doomed = sorted(top, key=lambda r: len(st.descendants(r)))[-3:]

        keyed.clear()
        new = st.add_child(target, "new")
        st.descendants(new)
        assert keyed == [new.matrix.entries()]

        keyed.clear()
        assert st.move_subtree(src, target) > 1
        st.descendants(src)
        assert sorted(keyed) == sorted(
            [src.matrix.entries()] + [r.matrix.entries() for r in st.descendants(src)]
        )

        keyed.clear()
        assert st.delete_subtree(doomed) > 1
        st.all_nodes()
        assert keyed == []
        assert st._shift == shift

        deeper = st.add_child(wide, "deeper", index=2**200)
        st.descendants(deeper)
        assert st._shift > shift
        assert len(keyed) == len(st)  # one full re-key, the new record included
        assert sorted(keyed) == sorted(r.matrix.entries() for r in st)

        f = tmp_path / "s.db"
        st.save(f)
        keyed.clear()
        loaded = TreeStore.load(f)
        loaded.all_nodes()
        assert len(keyed) == len(loaded)

class TestSubtreeWalk:
    """delete_subtree and move_subtree find a subtree by walking down
    through the child slots, so neither builds the interval index, and
    a move re-keys each record with one primitive factor."""

    @pytest.fixture
    def index_calls(self, monkeypatch):
        """Stores whose _ensure_index was called, in call order."""
        calls = []
        real = TreeStore._ensure_index

        def counting(store):
            calls.append(store)
            return real(store)

        monkeypatch.setattr(TreeStore, "_ensure_index", counting)
        return calls

    def test_moves_and_deletes_build_no_index(self, index_calls, tmp_path):
        paths = random_forest(random.Random(53), 300)
        st = build_store_from_paths(TreeStore, paths)
        model = model_of(paths)
        st.all_nodes()
        st.add_child("root", "new", index=40)  # the index is stale from here
        model.add((), "new", 40)
        index_calls.clear()

        tops = sorted((p for p in model.tree if len(p) == 1), key=lambda p: len(model.subtree(p)))
        src, doomed = tops[-1], tops[-2]
        assert st.move_subtree(st.resolve(dotted(src)), "40", index=3) == len(model.move(src, (40,), 3))
        assert st.delete_subtree(st.resolve(dotted(doomed))) == len(model.delete(doomed)) > 1
        # into its own vacated slot, and out of it under its own parent
        moved = model.move((40, 3), (40,), 3)
        assert st.move_subtree(st.resolve("40.3"), "40", index=3) == len(moved)
        moved = model.move((40, 3), (40,))
        assert st.move_subtree(st.resolve("40.3"), "40") == len(moved)
        assert moved[(40, 3)] == (40, 1)  # 40 has no other child
        assert index_calls == []
        check_store(st, model, tmp_path / "s.db")

    @pytest.mark.parametrize("size", [0, 120])
    @pytest.mark.parametrize("op", ["delete", "delete-top", "move-narrow", "move-wide"])
    def test_widest_record_leaves_before_any_query(self, tmp_path, size, op):
        """The record that made the keys stale is gone, or narrow again,
        by the time the index is built: the shift must not shrink."""
        paths = random_forest(random.Random(59), size)
        st = build_store_from_paths(TreeStore, paths)
        model = model_of(paths)
        top = st.add_child("root", "top", index=60)
        model.add((), "top", 60)
        st.all_nodes()
        shift = st._shift
        # a denominator of 2**300, far past every shift so far
        wide = st.add_child(top, "wide", index=2**300)
        st.add_child(wide, "leaf", index=2)
        model.add((60,), "wide", 2**300)
        model.add((60, 2**300), "leaf", 2)
        assert st._stale
        if op == "delete":
            assert st.delete_subtree(wide) == len(model.delete((60, 2**300))) == 2
        elif op == "delete-top":  # leaves an empty store when size is 0
            assert st.delete_subtree(top) == len(model.delete((60,))) == 3
        elif op == "move-narrow":
            assert st.move_subtree(wide, "root", index=45) == len(model.move((60, 2**300), (), 45)) == 2
        else:
            moved = model.move((60, 2**300), (60,), 2**400)
            assert st.move_subtree(wide, top, index=2**400) == len(moved) == 2
        check_store(st, model, tmp_path / "s.db")
        assert st._shift >= shift

    move_paths = strategies.lists(strategies.integers(1, 30), min_size=1, max_size=8).map(tuple)

    @given(move_paths, move_paths, strategies.lists(move_paths | strategies.just(()), max_size=4))
    def test_moved_matrices_are_the_primitive_products(self, old, new, frags):
        """Each moved record's matrix is the primitive product of its
        new path, the new position followed by the record's fragment
        below the moved node, and the public constructor accepts it."""
        assume(not (len(new) > len(old) and new[: len(old)] == old))  # a cycle
        assume(not (len(new) < len(old) and old[: len(new)] == new))  # an occupied slot
        frags = set(frags) | {()}
        closure = {p[:i] for p in [old + f for f in frags] + [new[:-1]] for i in range(1, len(p) + 1)}
        st = build_store_from_paths(TreeStore, closure)
        moved = model_of(closure).move(old, new[:-1], new[-1])
        assert st.move_subtree(st.resolve(dotted(old)), dotted(new[:-1]), index=new[-1]) == len(moved)
        for q, p in moved.items():
            rec = st.resolve(Path(p))
            assert rec.matrix.entries() == primitive_product(p)
            assert MobiusMatrix(*rec.matrix.entries()) == rec.matrix
            assert rec.payload == dotted(q)


class TestSortedIndexEdits:
    """After a query, a move or delete edits the sorted index in place:
    it cuts the subtree's run out, and a move splices the re-keyed run
    back in, so the index stays sorted and no query re-sorts it.  A move
    that needs a wider key shift, or a mutation on an index an insert
    left unsorted, leaves the sort to the next query.

    Nodes at even depths are det +1.  2.1 has a slot-1 child, 2.1.1,
    which sorts just before it, with 2.1 between 2.1.1 and 2.1.1's
    descendants; so has 2.1.1.1, whose slot-1 child is a leaf.  3.2 and
    3.4 have a free slot 1.  Node 4.2**200 sets a shift wide enough for
    every move but the one into slot 2**300."""

    PATHS = ("1.1.1.2", "1.1.3", "2.1.1.1.1", "2.1.1.2", "2.1.3.1", "2.2", "3.2.2.1", "3.4")

    # (insert first, src, new parent or None for a delete, index, stays sorted)
    CASES = {
        "delete-det+1-node-with-slot-1-child": (False, "2.1", None, None, True),
        "move-det+1-node-with-slot-1-child": (False, "2.1", "3.2.2", 5, True),
        "move-det+1-node-with-slot-1-child-to-det-1": (False, "2.1", "root", 7, True),
        "delete-slot-1-child-of-det+1": (False, "2.1.1", None, None, True),
        "delete-slot-1-leaf-of-det+1": (False, "2.1.1.1.1", None, None, True),
        "move-slot-1-child-of-det+1": (False, "2.1.1", "3.4", 2, True),
        "move-slot-1-child-into-slot-1-of-det+1": (False, "2.1.1", "3.2", 1, True),
        "move-into-slot-1-of-det+1": (False, "1.1", "3.2", 1, True),
        "move-leaf-into-slot-1-of-det+1": (False, "2.2", "3.4", 1, True),
        "delete-top-level": (False, "1", None, None, True),
        "move-top-level": (False, "1", "root", 9, True),
        "move-top-level-down": (False, "3", "2.1.3", 2, True),
        "move-within-own-parent": (False, "2.1.3", "2.1", 5, True),
        "move-into-own-vacated-slot": (False, "2.1.3", "2.1", 3, True),
        "move-slot-1-child-into-own-vacated-slot": (False, "2.1.1", "2.1", 1, True),
        "move-widening-the-shift": (False, "1.1", "3", 2**300, False),
        "move-on-unsorted-index": (True, "2.1", "3.2.2", None, False),
        "delete-on-unsorted-index": (True, "2.1.1", None, None, False),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_edit(self, tmp_path, case):
        insert_first, src, parent, index, stays_sorted = self.CASES[case]
        parse = lambda text: tuple(Path.parse(text).components)
        paths = {parse(t)[:i] for t in self.PATHS for i in range(1, t.count(".") + 2)}
        paths |= {(4,), (4, 2**200)}
        st = build_store_from_paths(TreeStore, paths)
        model = model_of(paths)
        st.all_nodes()
        if insert_first:
            st.add_child("2", "new", index=9)
            model.add((2,), "new", 9)
        node = st.resolve(src)
        if parent is None:
            assert st.delete_subtree(node) == len(model.delete(parse(src)))
        else:
            moved = model.move(parse(src), () if parent == "root" else parse(parent), index)
            assert st.move_subtree(node, parent, index=index) == len(moved)
        assert st._unsorted is not stays_sorted
        check_store(st, model, tmp_path / "s.db")


class TestAutoSlot:
    """Without an index a node takes 1 + the highest occupied slot of
    its new parent, counting the slot it leaves there as free; interior
    gaps are never reused.  Under the root (det +1) and under a depth-1
    node (det -1)."""

    @pytest.fixture(params=["root", "7"])
    def parent(self, request):
        return request.param

    @staticmethod
    def store_with(parent, slots):
        st = TreeStore() if parent == "root" else chain_store("7")
        return st, {n: st.add_child(parent, str(n), index=n) for n in slots}

    @staticmethod
    def slot(rec):
        return matrix_to_path(rec.matrix).components[-1]

    def slots(self, st, parent):
        return sorted(map(self.slot, st.children(parent)))

    def test_after_deleting_the_top_child(self, parent):
        st, kids = self.store_with(parent, [1, 2, 5])
        st.delete_subtree(kids[5])
        new = st.add_child(parent, "x")
        assert self.slot(new) == 3
        st.delete_subtree(new)
        st.delete_subtree(kids[2])
        assert self.slot(st.add_child(parent, "y")) == 2

    def test_move_under_its_own_parent_from_the_top_slot(self, parent):
        st, kids = self.store_with(parent, [1, 2, 9])
        assert st.move_subtree(kids[9], parent) == 1
        assert self.slot(kids[9]) == 3
        assert self.slots(st, parent) == [1, 2, 3]

    def test_move_under_its_own_parent_from_another_slot(self, parent):
        st, kids = self.store_with(parent, [1, 2, 9])
        kid = st.add_child(kids[2], "grandchild", index=4)
        assert st.move_subtree(kids[2], parent) == 2
        assert self.slot(kids[2]) == 10
        assert matrix_to_path(kid.matrix).components[-2:] == (10, 4)
        assert self.slots(st, parent) == [1, 9, 10]
        assert st.move_subtree(kids[2], parent) == 2  # now the top: it stays
        assert self.slot(kids[2]) == 10
        assert st.resolve(matrix_to_path(kid.matrix)) is kid

    def test_interior_gaps_are_not_reused(self, parent):
        st, kids = self.store_with(parent, [1, 2, 3, 4])
        st.delete_subtree(kids[2])
        st.delete_subtree(kids[3])
        assert self.slot(st.add_child(parent, "x")) == 5
        other = st.add_child("root", "other", index=50)
        st.move_subtree(other, parent)
        assert self.slot(other) == 6
        assert self.slots(st, parent) == [1, 4, 5, 6]
