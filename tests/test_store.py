import random

import pytest

from mobiustree.exactmath import DomainError, Ratio
from mobiustree.encoding import MobiusMatrix, Path, matrix_to_path, path_to_matrix, relative
from mobiustree.store import (
    CycleError,
    IntegrityError,
    LoadError,
    MissingNodeError,
    OccupiedSlotError,
    StoreError,
    TreeStore,
    escape_payload,
    unescape_payload,
)

from oracles import build_store_from_paths, is_proper_prefix, random_forest


def paths_of(store):
    return sorted(str(matrix_to_path(r.matrix)) for r in store)


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

    def test_escape_helpers(self):
        for s in ["", "plain", "a\tb", "a\nb", "a\\b", "\\t", "\\\\n"]:
            assert unescape_payload(escape_payload(s)) == s
        with pytest.raises(ValueError):
            unescape_payload("bad\\x")
        with pytest.raises(ValueError):
            unescape_payload("dangling\\")

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
        "entries",
        [
            ("9" * 5000, "1", "1", "1"),  # determinant has 5000 digits
            ("1", "0", "9" * 5000, "1"),  # c > a
        ],
        ids=["determinant", "ordering"],
    )
    def test_load_rejects_bad_huge_entries(self, tmp_path, entries):
        f = tmp_path / "s.db"
        f.write_text("mobius-tree v1\n" + "\t".join(entries) + "\tx\n")
        with pytest.raises(LoadError) as ei:
            TreeStore.load(f)
        assert ei.value.line == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(StoreError):
            TreeStore.load(tmp_path / "nope.db")

    def test_atomic_save_replaces(self, tmp_path):
        f = tmp_path / "s.db"
        st = chain_store("3")
        st.save(f)
        st.add_child("root", "", index=9)
        st.save(f)
        assert len(TreeStore.load(f)) == 2
        assert list(tmp_path.iterdir()) == [f]  # no temp leftovers


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


class TestClosureAndIntegrity:
    def test_parent_closure_held_under_random_mutation(self):
        rng = random.Random(23)
        st = build_store_from_paths(TreeStore, random_forest(rng, 100))
        for _ in range(60):
            recs = list(st)
            if not recs:
                break
            op = rng.random()
            if op < 0.5:
                st.add_child(recs[rng.randrange(len(recs))], "x")
            elif op < 0.75:
                st.delete_subtree(recs[rng.randrange(len(recs))])
            else:
                src = recs[rng.randrange(len(recs))]
                tgt = recs[rng.randrange(len(recs))]
                try:
                    st.move_subtree(src, tgt)
                except (CycleError, OccupiedSlotError, MissingNodeError):
                    pass
            present = {TreeStore._key(r.matrix) for r in st}
            for r in st:
                p = path_to_matrix(matrix_to_path(r.matrix).components[:-1])
                assert p.is_identity or p.entries() in present

    def test_integrity_error_when_ancestor_vanishes(self):
        st = chain_store("3.12")
        node = st.resolve("3.12")
        # sabotage: remove the parent record behind the store's back
        del st._records[TreeStore._key(st.resolve("3").matrix)]
        with pytest.raises(IntegrityError):
            st.ancestors(node)


class TestDescendantsOracle:
    def test_matches_prefix_filter_on_random_forests(self):
        rng = random.Random(31)
        sizes = [500] + [rng.randint(20, 160) for _ in range(7)]
        for size in sizes:
            paths = random_forest(rng, size)
            st = build_store_from_paths(TreeStore, paths)
            by_path = {tuple(matrix_to_path(r.matrix).components): r for r in st}
            for p, rec in list(by_path.items())[:25]:
                got = {tuple(matrix_to_path(r.matrix).components) for r in st.descendants(rec)}
                want = {q for q in by_path if is_proper_prefix(p, q)}
                assert got == want
