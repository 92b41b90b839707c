import bisect
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies

from mobiustree import store as store_module
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

from oracles import (
    build_store_from_paths,
    is_proper_prefix,
    mat_mul4,
    primitive_product,
    random_forest,
)


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


def oracle_interval(matrix):
    """(lo, hi) of a matrix's interval as Fractions: the endpoints a/c
    and (a+b)/(c+d) in increasing order."""
    a, b, c, d = matrix
    return tuple(sorted([Fraction(a, c), Fraction(a + b, c + d)]))


class TestIndexOrderOracle:
    """all_nodes() and the saved line order against an interval order
    computed with Fraction from oracle primitive products alone."""

    @staticmethod
    def check(store, tmp_path, path_of):
        """path_of maps each record's payload to its path tuple."""
        paths = sorted(path_of.values(), key=len)
        product = {(): primitive_product(())}
        for p in paths:  # parents first: one primitive factor per node
            product[p] = mat_mul4(product[p[:-1]], primitive_product(p[-1:]))
        want = sorted(paths, key=lambda p: oracle_interval(product[p]))
        assert [path_of[rec.payload] for rec in store.all_nodes()] == want
        f = tmp_path / "s.db"
        store.save(f)
        saved = [tuple(map(int, line.split("\t")[:4])) for line in f.read_text().splitlines()[1:]]
        assert saved == [product[p] for p in want]
        return want, product

    @staticmethod
    def dotted(paths):
        return {".".join(map(str, p)): tuple(p) for p in paths}

    def test_random_forests(self, tmp_path):
        rng = random.Random(41)
        for size in (1, 2, 60, 400):
            paths = random_forest(rng, size)
            store = build_store_from_paths(TreeStore, paths)
            self.check(store, tmp_path, self.dotted(paths))

    def test_deep_spines_with_huge_endpoints(self, tmp_path):
        st = TreeStore()
        path_of = {}

        def add(parent, path):
            path_of[str(len(path_of))] = path
            return st.add_child(parent, str(len(path_of) - 1), index=path[-1])

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
        _, product = self.check(st, tmp_path, path_of)
        max_den_bits = max((c + d).bit_length() for _, _, c, d in product.values())
        assert 2 * max_den_bits + 2 > 2000  # the sort key's shift k

    def test_after_mutations(self, tmp_path):
        """Index order after every mutation step, including steps that
        take keys out and put the same keys back."""
        rng = random.Random(43)
        paths = random_forest(rng, 150)
        store = build_store_from_paths(TreeStore, paths)
        path_of = self.dotted(paths)
        self.check(store, tmp_path, path_of)

        def free_slot(parent):
            taken = [p[-1] for p in path_of.values() if p[:-1] == parent]
            return max(taken, default=0) + rng.randint(1, 3)

        def under(p, top):
            return p[: len(top)] == top

        def move(payload, parent, slot):
            src = path_of[payload]
            target = ".".join(map(str, parent)) or "root"
            store.move_subtree(store.resolve(".".join(map(str, src))), target, index=slot)
            for k, p in path_of.items():
                if under(p, src):
                    path_of[k] = parent + (slot,) + p[len(src):]

        for step in range(60):
            payload = rng.choice(sorted(path_of))
            src = path_of[payload]
            kind = step % 4
            if kind == 0:  # insert under the node or the root
                parent, ref = rng.choice([((), "root"), (src, ".".join(map(str, src)))])
                slot = free_slot(parent)
                store.add_child(ref, f"n{step}", index=slot)
                path_of[f"n{step}"] = parent + (slot,)
            elif kind == 1:  # move elsewhere
                targets = [p for p in path_of.values() if not under(p, src)]
                parent = rng.choice([()] + targets)
                move(payload, parent, free_slot(parent))
            elif kind == 2:  # move away and back: the old keys return
                move(payload, (), free_slot(()))
                move(payload, src[:-1], src[-1])
            else:  # delete, then bring the top back under its old key
                doomed = [k for k, p in path_of.items() if under(p, src)]
                assert store.delete_subtree(store.resolve(".".join(map(str, src)))) == len(doomed)
                for k in doomed:
                    del path_of[k]
                store.add_child(".".join(map(str, src[:-1])) or "root", payload, index=src[-1])
                path_of[payload] = src
            self.check(store, tmp_path, path_of)

    def test_equal_low_endpoints(self, tmp_path):
        store = chain_store("3.2.1.5")
        want, _ = self.check(store, tmp_path, self.dotted([(3,), (3, 2), (3, 2, 1), (3, 2, 1, 5)]))
        assert want == [(3,), (3, 2, 1), (3, 2), (3, 2, 1, 5)]


class TestDescendantsSliceOracle(TestIndexOrderOracle):
    """Every store of the index-order oracle again, now also checking
    descendants() of every node: the path-prefix block of the
    lexicographic path order, listed in the oracle's interval order."""

    @staticmethod
    def check(store, tmp_path, path_of):
        want, product = TestIndexOrderOracle.check(store, tmp_path, path_of)
        # payloads stand for paths below: long tuples rehash on each lookup
        payload_of = {p: k for k, p in path_of.items()}
        rank = {payload_of[p]: i for i, p in enumerate(want)}
        lex = sorted(want)
        lex_payloads = [payload_of[p] for p in lex]
        record_of = {rec.payload: rec for rec in store}
        for s, p in enumerate(lex):
            # q has p as a proper prefix iff p < q < p with its last
            # component incremented
            e = bisect.bisect_left(lex, p[:-1] + (p[-1] + 1,), s)
            expected = sorted(lex_payloads[s + 1 : e], key=rank.__getitem__)
            got = [rec.payload for rec in store.descendants(record_of[lex_payloads[s]])]
            assert got == expected, p
        return want, product

    def test_first_child_chains(self, tmp_path):
        store = chain_store("1.1.1.1.1.1.1.1", "3.1.1.1", "3.2.1.5", "3.2.1.1.1", "2.1.1.2")
        path_of = {rec.payload: tuple(map(int, rec.payload.split("."))) for rec in store}
        self.check(store, tmp_path, path_of)


class TestChildrenOrderOracle(TestIndexOrderOracle):
    """Every store of the index-order oracle again, now also checking
    children() of every node and of the root: the oracle's interval
    order restricted to the node's children."""

    @staticmethod
    def check(store, tmp_path, path_of):
        want, product = TestIndexOrderOracle.check(store, tmp_path, path_of)
        payload_of = {p: k for k, p in path_of.items()}
        kids = {}
        for p in want:
            kids.setdefault(p[:-1], []).append(payload_of[p])
        assert [rec.payload for rec in store.children("root")] == kids.get((), [])
        for rec in store:
            got = [kid.payload for kid in store.children(rec)]
            assert got == kids.get(path_of[rec.payload], []), rec.payload
        return want, product


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
        product = {(): primitive_product(())}
        for top in (1, 3, 5, 7):
            ref, path = "root", ()
            for slot in (top,) + (1,) * 300:
                # the next spine node, and a side leaf in the slot after it
                for n in (slot + 1, slot):
                    product[path + (n,)] = mat_mul4(product[path], primitive_product((n,)))
                    node = st.add_child(ref, "x", index=n)
                ref, path = node, path + (slot,)
        del product[()]
        s = st.stats()
        assert s.nodes == len(product)
        assert s.max_depth == max(map(len, product)) == 301
        assert s.max_numerator_bits == max(m[0].bit_length() for m in product.values())
        assert s.max_key_bytes == max(len("\t".join(map(str, m))) for m in product.values())


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


class TestKeyComputations:
    """A record's index keys are computed once, when it gets its
    matrix; the index rebuild after an ordinary mutation only sorts.
    Only a mutation that needs a wider shift than every record before
    it re-keys records it did not add or move."""

    @pytest.fixture
    def keyed(self, monkeypatch):
        """Matrices passed to the store's key function, in call order."""
        keyed = []
        real = store_module._endpoint_keys

        def counting(m, k):
            keyed.append(m)
            return real(m, k)

        monkeypatch.setattr(store_module, "_endpoint_keys", counting)
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
        assert keyed == [new.matrix]

        keyed.clear()
        assert st.move_subtree(src, target) > 1
        st.descendants(src)
        assert sorted(keyed, key=TreeStore._key) == sorted(
            [src.matrix] + [r.matrix for r in st.descendants(src)], key=TreeStore._key
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
        assert sorted(keyed, key=TreeStore._key) == sorted(
            (r.matrix for r in st), key=TreeStore._key
        )

        f = tmp_path / "s.db"
        st.save(f)
        keyed.clear()
        loaded = TreeStore.load(f)
        loaded.all_nodes()
        assert len(keyed) == len(loaded)

    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(strategies.data())
    def test_random_interleavings_match_the_oracle(self, tmp_path, data):
        """Inserts, moves, deletes and queries in any order, including
        first-child chains grown past the current shift and deletes of
        the deepest node, checked against the Fraction oracle after
        every step."""
        rng = random.Random(data.draw(strategies.integers(0, 2**32), label="seed"))
        paths = random_forest(rng, 25)
        st = build_store_from_paths(TreeStore, paths)
        path_of = TestIndexOrderOracle.dotted(paths)
        names = itertools.count()

        def ref(path):
            return ".".join(map(str, path)) or "root"

        def under(p, top):
            return p[: len(top)] == top

        def free_slot(parent):
            taken = [p[-1] for p in path_of.values() if p[:-1] == parent]
            return max(taken, default=0) + rng.randint(1, 3)

        def insert(parent, slot):
            payload = f"n{next(names)}"
            st.add_child(ref(parent), payload, index=slot)
            path_of[payload] = parent + (slot,)

        def delete(path):
            doomed = [k for k, p in path_of.items() if under(p, path)]
            assert st.delete_subtree(st.resolve(ref(path))) == len(doomed)
            for k in doomed:
                del path_of[k]

        shift = 0
        kinds = ["insert", "move", "delete", "chain", "delete-deepest", "query"]
        for kind in data.draw(strategies.lists(strategies.sampled_from(kinds), max_size=12)):
            existing = sorted(path_of.values())
            if kind == "insert" or not existing:
                parent = rng.choice([()] + existing)
                insert(parent, free_slot(parent))
            elif kind == "move":
                src = rng.choice(existing)
                parent = rng.choice([()] + [p for p in existing if not under(p, src)])
                slot = free_slot(parent)
                assert st.move_subtree(st.resolve(ref(src)), ref(parent), index=slot) == sum(
                    under(p, src) for p in existing
                )
                for k, p in path_of.items():
                    if under(p, src):
                        path_of[k] = parent + (slot,) + p[len(src):]
            elif kind == "delete":
                delete(rng.choice(existing))
            elif kind == "chain":  # first children until one needs a wider shift
                path, m = max(existing, key=len), (0, 0, 0, 0)
                while 2 * (m[2] + m[3]).bit_length() + 2 <= st._shift:
                    insert(path, 1)
                    path += (1,)
                    m = primitive_product(path)
            elif kind == "delete-deepest":
                delete(max(existing, key=len))
            else:
                node = st.resolve(ref(rng.choice(existing)))
                assert set(st.descendants(node)) <= set(st)
            assert st._shift >= shift
            shift = st._shift
            TestDescendantsSliceOracle.check(st, tmp_path, path_of)
