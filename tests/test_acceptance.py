"""Acceptance suite: one test per criterion, exact values only.

Each test prints one line, "criterion N (<name>): PASS|FAIL", and
enforces its runtime budget.  Run with -s (or -rA) to see the lines.
"""

import hashlib
import random
import time
from contextlib import contextmanager

import pytest

from mobiustree.exactmath import Ratio, ext_gcd, euclid_quotients
from mobiustree.encoding import (
    MobiusMatrix,
    Path,
    concat,
    convergents,
    matrix_to_interval,
    matrix_to_path,
    next_sibling,
    parent,
    path_to_matrix,
    path_to_ratio,
    ratio_to_matrix,
    ratio_to_path,
    relative,
)
from mobiustree.store import TreeStore
from mobiustree.cli import main as cli_main

from oracles import (
    TreeModel,
    build_store_from_paths,
    cf_value,
    check_records,
    fib,
    is_proper_prefix,
    random_forest,
)
from test_cli import golden_mismatches


@contextmanager
def criterion(number, name, budget_s):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s, budget {budget_s}s"
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS ({time.perf_counter() - start:.2f}s)")


@pytest.fixture(scope="module")
def random_paths_10k():
    rng = random.Random(20260809)
    out = []
    for _ in range(10_000):
        depth = rng.randint(0, 12)
        p = tuple(rng.randint(1, 30) for _ in range(depth))
        if p and rng.random() < 0.15:
            p = p[:-1] + (1,)  # force non-canonical trailing 1
        out.append(p)
    return out


def test_criterion_1_worked_examples():
    with criterion(1, "worked examples", 1.0):
        assert euclid_quotients(4913, 1594) == [3, 12, 5, 1, 21]
        assert path_to_ratio([3, 12, 5, 1, 21]) == Ratio(4913, 1594)

        m = path_to_matrix([3, 12, 5, 1, 21])
        assert m.entries() == (4913, 225, 1594, 73)

        assert str(matrix_to_interval(m)) == "(4913/1594, 5138/1667]"
        assert str(matrix_to_interval(path_to_matrix([3, 12]))) == "[40/13, 37/12)"
        chain = [Ratio(40, 13), Ratio(4913, 1594), Ratio(5138, 1667), Ratio(37, 12)]
        assert all(a < b for a, b in zip(chain, chain[1:]))

        pm = parent(m)
        assert Ratio(pm.a, pm.c) == Ratio(225, 73)

        assert next_sibling(m).entries() == (5138, 225, 1667, 73)

        g, x, y = ext_gcd(4913, 1594)
        assert (g, x, y) == (1, -73, 225)
        assert 1594 * 225 - 4913 * 73 == 1

        anc = MobiusMatrix(37, 3, 12, 1)
        frag = relative(anc, m)
        assert frag.entries() == (131, 6, 22, 1)
        assert concat(MobiusMatrix(29, 4, 7, 1), frag).entries() == (3887, 178, 939, 43)


def test_criterion_2_determinant_law(random_paths_10k):
    with criterion(2, "determinant law", 5.0):
        for comps in random_paths_10k:
            assert path_to_matrix(comps).det == (-1) ** len(comps)


def test_criterion_3_roundtrips(random_paths_10k):
    with criterion(3, "roundtrips", 5.0):
        for comps in random_paths_10k:
            m = path_to_matrix(comps)
            assert matrix_to_path(m).components == comps
            assert interval_round_trip(m)
            if comps:
                r = path_to_ratio(comps)
                back = ratio_to_path(r)
                assert back == Path(comps).canonical()
                assert ratio_to_matrix(r) == path_to_matrix(back)


def interval_round_trip(m):
    from mobiustree.encoding import interval_to_matrix

    return interval_to_matrix(matrix_to_interval(m)) == m


def test_criterion_4_laminar_nesting_oracle():
    with criterion(4, "laminar nesting", 30.0):
        rng = random.Random(41)
        sizes = [500] + [rng.randint(40, 180) for _ in range(49)]
        for size in sizes:
            paths = random_forest(rng, size)
            intervals = [matrix_to_interval(path_to_matrix(p)) for p in paths]
            n = len(paths)
            for i in range(n):
                pi, ivi = paths[i], intervals[i]
                for j in range(n):
                    if i == j:
                        continue
                    assert ivi.encloses(intervals[j]) == is_proper_prefix(pi, paths[j])
            # sibling intervals pairwise disjoint
            by_parent = {}
            for p, iv in zip(paths, intervals):
                by_parent.setdefault(p[:-1], []).append(iv)
            for group in by_parent.values():
                for i in range(len(group)):
                    for j in range(i + 1, len(group)):
                        assert not group[i].intersects(group[j])


def test_criterion_5_relocation_oracle():
    with criterion(5, "relocation oracle", 30.0):
        rng = random.Random(51)
        for _ in range(100):
            paths = random_forest(rng, rng.randint(20, 200))
            store = build_store_from_paths(TreeStore, paths)
            model = TreeModel({p: ".".join(map(str, p)) for p in paths})

            src_path = paths[rng.randrange(len(paths))]
            parent_choices = [p for p in paths if p[: len(src_path)] != src_path] + [()]
            np_path = parent_choices[rng.randrange(len(parent_choices))]
            free = [i for i in range(1, 31) if model.place(np_path, i, src_path)]
            slot = free[rng.randrange(len(free))]

            src = store.resolve(Path(src_path))
            target = "root" if np_path == () else store.resolve(Path(np_path))
            count = store.move_subtree(src, target, index=slot)
            assert count == len(model.move(src_path, np_path, slot))
            check_records(store, model)


def test_criterion_6_ancestors_equal_convergents():
    with criterion(6, "ancestors = convergents", 5.0):
        rng = random.Random(61)
        store = TreeStore()
        known = set()

        def insert_chain(comps):
            for i in range(1, len(comps) + 1):
                prefix = comps[:i]
                if prefix not in known:
                    parent_ref = "root" if i == 1 else Path(prefix[:-1])
                    store.add_child(parent_ref, "x", index=prefix[-1])
                    known.add(prefix)

        for _ in range(1000):
            depth = rng.randint(1, 12)
            comps = tuple(rng.randint(1, 30) for _ in range(depth - 1))
            comps += (rng.randint(2, 30),) if depth > 1 or rng.random() < 0.9 else (1,)
            insert_chain(comps)
            node = store.resolve(Path(comps))
            chain = store.ancestors(node)
            labels = [Ratio(r.matrix.a, r.matrix.c) for r in chain]
            expect = convergents(path_to_ratio(comps))[:-1]
            assert labels == expect


def test_criterion_7_growth_bound():
    with criterion(7, "growth bound", 5.0):
        ones = [1] * 40
        oracle = cf_value(ones)  # independent continued-fraction evaluation
        assert oracle.numerator == 165580141 == fib(41)
        assert path_to_matrix(ones).a == 165580141

        store = TreeStore()
        parent_ref = "root"
        for i in range(40):
            parent_ref = store.add_child(parent_ref, f"n{i}", index=1)
        stats = store.stats()
        assert stats.nodes == 40
        assert stats.max_depth == 40
        assert stats.max_numerator_bits == 28


def test_criterion_8_scale_smoke(tmp_path):
    with criterion(8, "100k-node scale smoke", 30.0):
        rng = random.Random(81)
        store = TreeStore()
        paths_by_key = {}
        # (record-or-root, path, used child slots); fanout capped at 8
        open_nodes = [("root", (), 0)]
        for i in range(100_000):
            while True:
                idx = rng.randrange(len(open_nodes))
                ref, ppath, used = open_nodes[idx]
                if used < 8:
                    break
                open_nodes[idx] = open_nodes[-1]
                open_nodes.pop()
            rec = store.add_child(ref, f"n{i}", index=used + 1)
            npath = ppath + (used + 1,)
            paths_by_key[rec.matrix.entries()] = npath
            open_nodes[idx] = (ref, ppath, used + 1)
            open_nodes.append((rec, npath, 0))
        assert len(store) == 100_000

        f = tmp_path / "big.db"
        store.save(f)
        # the saved bytes are pinned: an index or key change must not
        # change the file's line order
        assert hashlib.sha256(f.read_bytes()).hexdigest() == (
            "fd126ae8c48ddb10f9f9a9d901ee5d86620359cce2494acd3f0e449c3e8470ae"
        )
        loaded = TreeStore.load(f)
        assert len(loaded) == 100_000

        query_path = (1,)
        node = loaded.resolve(Path(query_path))
        got = loaded.descendants(node)
        got_keys = {r.matrix.entries() for r in got}
        want_keys = {
            k for k, p in paths_by_key.items() if is_proper_prefix(query_path, p)
        }
        assert got_keys == want_keys
        assert len(got_keys) > 1000  # the subtree is genuinely large
        lows = [matrix_to_interval(r.matrix).lo for r in got[:200]]
        assert lows == sorted(lows)


def test_criterion_9_cli_golden_outputs(tmp_path, capsys):
    with criterion(9, "CLI golden outputs", 30.0):

        def run(argv):
            return cli_main(argv), capsys.readouterr().out

        mismatches = golden_mismatches(run, tmp_path)
        assert not mismatches, "\n".join(mismatches)
