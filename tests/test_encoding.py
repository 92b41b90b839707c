import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mobiustree import kernels
from mobiustree.exactmath import DomainError, INFINITY, Ratio
from mobiustree.encoding import (
    MobiusMatrix,
    NestedInterval,
    Path,
    child,
    concat,
    convergents,
    depth,
    interval_contains,
    interval_to_matrix,
    is_ancestor,
    matrix_to_interval,
    matrix_to_path,
    next_sibling,
    parent,
    path_to_matrix,
    path_to_ratio,
    prev_sibling,
    ratio_to_matrix,
    ratio_to_path,
    relative,
    _child_entries,
    _parent_and_slot,
)
from mobiustree.store import TreeStore

from oracles import (
    cf_quotients,
    cf_value,
    is_proper_prefix,
    mat_mul4,
    primitive_product,
    random_paths,
)

paths = st.lists(st.integers(1, 30), max_size=12).map(tuple)
wide_paths = st.lists(st.integers(1, 10**6), max_size=10).map(tuple)


def M(*entries):
    return MobiusMatrix(*entries)


class TestPath:
    def test_parse_and_str(self):
        p = Path.parse("3.12.5.1.21")
        assert p.components == (3, 12, 5, 1, 21)
        assert str(p) == "3.12.5.1.21"
        assert Path.parse("root") == Path() == Path.parse("")
        assert str(Path()) == "root"

    def test_parse_rejects_garbage(self):
        for bad in ["3..5", ".3", "3.", "a", "3.-1", "3.0"]:
            with pytest.raises(DomainError):
                Path.parse(bad)

    def test_component_validation(self):
        with pytest.raises(DomainError):
            Path([0])
        with pytest.raises(TypeError):
            Path(["3"])
        with pytest.raises(TypeError):
            Path([3, True])  # would print as 3.True

    def test_canonical(self):
        assert Path([3, 12, 5, 1]).canonical() == Path([3, 12, 6])
        assert Path([1]).canonical() == Path([1])
        assert Path([1, 1]).canonical() == Path([2])
        assert Path([3, 12, 5, 1, 21]).is_canonical
        assert not Path([3, 12, 5, 1]).is_canonical

    def test_value_types_are_immutable(self):
        with pytest.raises(AttributeError):
            Path([3]).components = (4,)
        with pytest.raises(AttributeError):
            M(3, 1, 1, 0).a = 4
        iv = matrix_to_interval(M(3, 1, 1, 0))
        with pytest.raises(AttributeError):
            iv.lo = Ratio(1, 1)


class TestMatrixType:
    def test_constructor_validates_det(self):
        with pytest.raises(DomainError):
            M(2, 0, 2, 0)  # det 0
        with pytest.raises(DomainError):
            M(3, 1, 1, 1)  # det 2
        assert M(2, 1, 1, 1).det == 1  # path [1,1], fine

    def test_constructor_validates_ordering(self):
        with pytest.raises(DomainError):
            M(1, 1, 0, 1)  # c = 0 off-identity
        with pytest.raises(DomainError):
            M(1, 0, 1, 1)  # b < d

    def test_constructor_rejects_non_int_entries(self):
        for bad in [(True, 0, 0, True), (3, 1, 1, False), (3, 1, 1.0, 0), (3, "1", 1, 0)]:
            with pytest.raises(TypeError):
                M(*bad)

    def test_identity(self):
        assert MobiusMatrix.IDENTITY.is_identity
        assert MobiusMatrix.IDENTITY.det == 1

    def test_parse_and_str(self):
        m = MobiusMatrix.parse("4913,225,1594,73")
        assert m.entries() == (4913, 225, 1594, 73)
        assert str(m) == "4913,225,1594,73"
        with pytest.raises(DomainError):
            MobiusMatrix.parse("1,2,3")
        with pytest.raises(DomainError):
            MobiusMatrix.parse("1,2,3,x")

    def test_text_past_the_int_str_limit(self):
        big = 10**5000
        m = path_to_matrix([big, 2])
        assert MobiusMatrix.parse(str(m)) == m
        assert repr(m).startswith("MobiusMatrix(2")
        p = Path([big, 2])
        assert Path.parse(str(p)) == p
        assert repr(p).startswith("Path([1000")
        with pytest.raises(DomainError, match="determinant"):
            M(big, 1, 1, 1)
        with pytest.raises(DomainError, match="ordering"):
            M(1, 0, big, 1)
        with pytest.raises(DomainError):
            Path([-big])
        with pytest.raises(DomainError):
            child(MobiusMatrix.IDENTITY, -big)


class TestPathMatrix:
    def test_worked_example_product(self):
        assert path_to_matrix([3, 12, 5, 1, 21]).entries() == (4913, 225, 1594, 73)

    def test_empty_is_identity(self):
        assert path_to_matrix([]) == MobiusMatrix.IDENTITY

    def test_fragment_products(self):
        assert path_to_matrix([4, 7]).entries() == (29, 4, 7, 1)
        assert path_to_matrix([5, 1, 21]).entries() == (131, 6, 22, 1)

    def test_matrix_to_path_worked_example(self):
        assert matrix_to_path(M(4913, 225, 1594, 73)) == Path([3, 12, 5, 1, 21])
        assert matrix_to_path(MobiusMatrix.IDENTITY) == Path()

    def test_min_rule_on_trailing_one(self):
        # oracle: multiply the primitives for [3,12,5,1] directly
        assert primitive_product([3, 12, 5, 1]) == (225, 188, 73, 61)
        assert matrix_to_path(M(225, 188, 73, 61)) == Path([3, 12, 5, 1])

    @given(paths)
    def test_roundtrip(self, comps):
        m = path_to_matrix(comps)
        assert matrix_to_path(m).components == comps
        assert m.entries() == primitive_product(comps)

    @given(wide_paths)
    def test_roundtrip_wide(self, comps):
        assert matrix_to_path(path_to_matrix(comps)).components == comps

    @given(paths)
    def test_determinant_law(self, comps):
        assert path_to_matrix(comps).det == (-1) ** len(comps)

    @given(paths.filter(lambda c: len(c) > 0))
    def test_coprime_rows_and_columns(self, comps):
        from math import gcd as mgcd

        a, b, c, d = path_to_matrix(comps).entries()
        assert mgcd(a, c) == mgcd(b, d) == mgcd(a, b) == mgcd(c, d) == 1


class TestRatioConversions:
    def test_worked_example_cf_value(self):
        assert path_to_ratio([3, 12, 5, 1, 21]) == Ratio(4913, 1594)

    def test_unit_path(self):
        assert path_to_ratio([1]) == Ratio(1, 1)

    def test_pi_convergent(self):
        # oracle: top-down Fraction evaluation
        v = cf_value([3, 7, 16])
        assert (v.numerator, v.denominator) == (355, 113)
        assert path_to_ratio([3, 7, 16]) == Ratio(355, 113)

    def test_root_has_no_label(self):
        with pytest.raises(DomainError):
            path_to_ratio([])

    def test_ratio_to_path(self):
        assert ratio_to_path(Ratio(4913, 1594)) == Path([3, 12, 5, 1, 21])
        assert ratio_to_path(Ratio(1, 1)) == Path([1])
        assert ratio_to_path(Ratio(355, 113)) == Path([3, 7, 16])

    def test_ratio_to_path_preconditions(self):
        with pytest.raises(DomainError):
            ratio_to_path(Ratio(2, 3))
        with pytest.raises(DomainError):
            ratio_to_path(INFINITY)
        with pytest.raises(DomainError):
            ratio_to_path(Ratio(0, 1))

    def test_ratio_to_matrix_worked_example(self):
        assert ratio_to_matrix(Ratio(4913, 1594)).entries() == (4913, 225, 1594, 73)

    def test_ratio_to_matrix_unit(self):
        assert ratio_to_matrix(Ratio(1, 1)).entries() == (1, 1, 1, 0)

    def test_ratio_to_matrix_parent_label(self):
        # canonical path of 225/73 is [3,12,6]; det must be (-1)**3
        m = ratio_to_matrix(Ratio(225, 73))
        assert m.entries() == (225, 37, 73, 12)
        assert 225 * 12 - 37 * 73 == -1
        assert path_to_matrix([3, 12, 6]) == m

    @given(paths)
    def test_label_consistency(self, comps):
        if not comps:
            return
        m = path_to_matrix(comps)
        assert path_to_ratio(comps) == Ratio(m.a, m.c)

    @given(paths)
    def test_ratio_roundtrip_canonicalizes(self, comps):
        if not comps:
            return
        p = Path(comps)
        assert ratio_to_path(path_to_ratio(p)) == p.canonical()

    @given(paths)
    def test_canonical_matrix_selection(self, comps):
        if not comps:
            return
        r = path_to_ratio(comps)
        assert ratio_to_matrix(r) == path_to_matrix(ratio_to_path(r))


class TestIntervals:
    def test_deep_node_interval(self):
        iv = matrix_to_interval(M(4913, 225, 1594, 73))
        assert str(iv) == "(4913/1594, 5138/1667]"
        assert iv.closed_end == "high"

    def test_shallow_node_interval(self):
        iv = matrix_to_interval(M(37, 3, 12, 1))
        assert str(iv) == "[40/13, 37/12)"
        assert iv.closed_end == "low"

    def test_root_interval(self):
        iv = matrix_to_interval(MobiusMatrix.IDENTITY)
        assert str(iv) == "[1/1, inf)"
        assert iv.hi == INFINITY

    def test_interval_to_matrix(self):
        iv = NestedInterval(Ratio(4913, 1594), Ratio(5138, 1667), "high")
        assert interval_to_matrix(iv).entries() == (4913, 225, 1594, 73)
        assert interval_to_matrix(NestedInterval.parse("[1/1, inf)")) == MobiusMatrix.IDENTITY
        assert interval_to_matrix(NestedInterval.parse("[40/13, 37/12)")).entries() == (37, 3, 12, 1)

    def test_interval_to_matrix_rejects_non_encoding(self):
        with pytest.raises(DomainError):
            interval_to_matrix(NestedInterval(Ratio(1, 2), Ratio(2, 1), "high"))

    def test_parse_and_str(self):
        for text in ["(4913/1594, 5138/1667]", "[40/13, 37/12)", "[1/1, inf)"]:
            assert str(NestedInterval.parse(text)) == text
        for bad in ["(1/1, 2/1)", "[1/1, 2/1]", "1/1, 2/1", "(2/1, 1/1]"]:
            with pytest.raises(DomainError):
                NestedInterval.parse(bad)

    def test_parse_rejects_many_commas_in_linear_time(self):
        # a pattern that backtracks over the commas takes about 2 s here
        t0 = time.perf_counter()
        with pytest.raises(DomainError):
            NestedInterval.parse("(" + "," * 20_000 + ")")
        assert time.perf_counter() - t0 < 0.2

    def test_contains_worked_points(self):
        iv = NestedInterval.parse("[40/13, 37/12)")
        assert interval_contains(iv, Ratio(4913, 1594))
        assert interval_contains(iv, Ratio(40, 13))  # closed endpoint
        assert not interval_contains(iv, Ratio(37, 12))  # open endpoint
        assert not interval_contains(iv, Ratio(2, 1))

    @given(paths)
    def test_interval_roundtrip(self, comps):
        m = path_to_matrix(comps)
        assert interval_to_matrix(matrix_to_interval(m)) == m

    @given(paths.filter(bool))
    def test_label_is_open_endpoint_of_own_interval(self, comps):
        # a/c is the unattained limit at infinity: on the boundary,
        # excluded from the node's own interval
        m = path_to_matrix(comps)
        iv = matrix_to_interval(m)
        assert iv.open_point == Ratio(m.a, m.c)
        assert not iv.contains(Ratio(m.a, m.c))

    @given(paths.filter(bool), st.integers(1, 30))
    def test_descendant_label_is_inside_ancestor_interval(self, comps, n):
        m = path_to_matrix(comps)
        kid = child(m, n)
        assert matrix_to_interval(m).contains(Ratio(kid.a, kid.c))


class TestNavigation:
    def test_parent_worked_example(self):
        pm = parent(M(4913, 225, 1594, 73))
        assert pm.entries() == (225, 188, 73, 61)

    def test_parent_of_depth_one_is_root(self):
        assert parent(M(3, 1, 1, 0)) == MobiusMatrix.IDENTITY
        assert parent(MobiusMatrix.IDENTITY) is None

    def test_parent_derived(self):
        assert parent(M(131, 6, 22, 1)).entries() == (6, 5, 1, 1)
        assert path_to_matrix([5, 1]).entries() == (6, 5, 1, 1)

    def test_next_sibling_worked_example(self):
        assert next_sibling(M(4913, 225, 1594, 73)).entries() == (5138, 225, 1667, 73)
        assert next_sibling(M(3, 1, 1, 0)).entries() == (4, 1, 1, 0)
        assert next_sibling(M(131, 6, 22, 1)) == path_to_matrix([5, 1, 22])
        with pytest.raises(DomainError):
            next_sibling(MobiusMatrix.IDENTITY)

    def test_prev_sibling(self):
        assert prev_sibling(M(5138, 225, 1667, 73)).entries() == (4913, 225, 1594, 73)
        assert prev_sibling(M(4, 1, 1, 0)).entries() == (3, 1, 1, 0)
        assert prev_sibling(M(137, 6, 23, 1)).entries() == (131, 6, 22, 1)

    def test_prev_sibling_of_first_child(self):
        with pytest.raises(DomainError):
            prev_sibling(M(1, 1, 1, 0))  # path [1]
        with pytest.raises(DomainError):
            prev_sibling(path_to_matrix([3, 1]))
        with pytest.raises(DomainError):
            prev_sibling(MobiusMatrix.IDENTITY)

    def test_child_worked_example(self):
        assert child(M(225, 188, 73, 61), 21).entries() == (4913, 225, 1594, 73)
        assert child(MobiusMatrix.IDENTITY, 3).entries() == (3, 1, 1, 0)
        assert child(M(37, 3, 12, 1), 5).entries() == (188, 37, 61, 12)
        assert child(M(37, 3, 12, 1), 5) == path_to_matrix([3, 12, 5])
        with pytest.raises(DomainError):
            child(MobiusMatrix.IDENTITY, 0)
        for bad in [True, 2.0, "2"]:
            with pytest.raises(TypeError):
                child(MobiusMatrix.IDENTITY, bad)

    def test_concat_worked_example(self):
        assert concat(M(37, 3, 12, 1), M(131, 6, 22, 1)).entries() == (4913, 225, 1594, 73)
        assert concat(MobiusMatrix.IDENTITY, M(29, 4, 7, 1)) == M(29, 4, 7, 1)
        assert concat(M(29, 4, 7, 1), M(131, 6, 22, 1)).entries() == (3887, 178, 939, 43)

    def test_relative_worked_example(self):
        assert relative(M(37, 3, 12, 1), M(4913, 225, 1594, 73)).entries() == (131, 6, 22, 1)

    def test_relative_reflexive_is_identity(self):
        m = M(4913, 225, 1594, 73)
        assert relative(m, m) == MobiusMatrix.IDENTITY

    def test_relative_rejects_non_descendant(self):
        with pytest.raises(DomainError, match="not a descendant"):
            relative(M(29, 4, 7, 1), M(4913, 225, 1594, 73))

    def test_relative_rejects_trailing_one_collision(self):
        # same rational label 225/73, different nodes
        with pytest.raises(DomainError):
            relative(path_to_matrix([3, 12, 5, 1]), path_to_matrix([3, 12, 6, 2]))

    def test_is_ancestor_worked_example(self):
        anc = path_to_matrix([3, 12])
        desc = path_to_matrix([3, 12, 5, 1, 21])
        assert is_ancestor(anc, desc)
        assert not is_ancestor(desc, anc)
        assert not is_ancestor(desc, desc)
        assert not is_ancestor(path_to_matrix([4, 7]), desc)

    def test_depth(self):
        assert depth(M(4913, 225, 1594, 73)) == 5
        assert depth(MobiusMatrix.IDENTITY) == 0
        assert depth(M(29, 4, 7, 1)) == 2

    @given(paths, st.integers(1, 30))
    def test_parent_of_child(self, comps, n):
        m = path_to_matrix(comps)
        kid = child(m, n)
        assert parent(kid) == m
        # the parent's first column is the child's second column
        assert (m.a, m.c) == (kid.b, kid.d)

    @given(paths.filter(bool))
    def test_prev_of_next(self, comps):
        m = path_to_matrix(comps)
        assert prev_sibling(next_sibling(m)) == m

    @given(paths, paths)
    def test_concat_is_path_concatenation(self, p1, p2):
        assert concat(path_to_matrix(p1), path_to_matrix(p2)) == path_to_matrix(p1 + p2)

    @given(paths, paths)
    def test_relative_recovers_fragment(self, p1, p2):
        anc = path_to_matrix(p1)
        desc = path_to_matrix(p1 + p2)
        frag = relative(anc, desc)
        assert frag == path_to_matrix(p2)
        assert concat(anc, frag) == desc


class TestNestingAgreement:
    @given(paths, paths)
    def test_prefix_iff_ancestor_iff_interval(self, p, q):
        mp, mq = path_to_matrix(p), path_to_matrix(q)
        prefix = is_proper_prefix(p, q)
        assert is_ancestor(mp, mq) == prefix
        assert matrix_to_interval(mp).encloses(matrix_to_interval(mq)) == prefix

    @settings(max_examples=50)
    @given(paths.filter(bool), paths.filter(bool))
    def test_laminar(self, p, q):
        if p == q:
            return
        ip = matrix_to_interval(path_to_matrix(p))
        iq = matrix_to_interval(path_to_matrix(q))
        nested = ip.encloses(iq) or iq.encloses(ip)
        assert nested == ip.intersects(iq)

    def test_interval_keys_are_injective(self):
        # endpoint pairs determine the matrix, so no two nodes share one
        rng = random.Random(17)
        from oracles import random_forest

        paths = random_forest(rng, 400)
        keys = {
            (iv.lo, iv.hi)
            for iv in (matrix_to_interval(path_to_matrix(p)) for p in paths)
        }
        assert len(keys) == len(paths)

    def test_sibling_intervals_tile_without_overlap(self):
        kids = [matrix_to_interval(path_to_matrix([3, 12, n])) for n in range(1, 8)]
        for i, a in enumerate(kids):
            for b in kids[i + 1:]:
                assert not a.intersects(b)
        parent_iv = matrix_to_interval(path_to_matrix([3, 12]))
        for k in kids:
            assert parent_iv.encloses(k)


class TestConvergents:
    def test_worked_example_chain(self):
        got = convergents(Ratio(4913, 1594))
        assert [str(r) for r in got] == ["3/1", "37/12", "188/61", "225/73", "4913/1594"]

    def test_unit(self):
        assert convergents(Ratio(1, 1)) == [Ratio(1, 1)]

    def test_pi_convergent_chain(self):
        assert [str(r) for r in convergents(Ratio(355, 113))] == ["3/1", "22/7", "355/113"]

    def test_preconditions(self):
        with pytest.raises(DomainError):
            convergents(Ratio(2, 3))
        with pytest.raises(DomainError):
            convergents(INFINITY)

    @given(paths.filter(bool))
    def test_convergents_are_prefix_labels(self, comps):
        # independent route: evaluate each canonical-path prefix
        canon = Path(comps).canonical().components
        want = [path_to_ratio(canon[:i]) for i in range(1, len(canon) + 1)]
        assert convergents(path_to_ratio(comps)) == want


class TestWorstCaseGrowth:
    def test_fibonacci_growth(self):
        from oracles import fib

        m = path_to_matrix([1] * 40)
        v = cf_value([1] * 40)  # independent continued-fraction oracle
        assert v.numerator == 165580141 == fib(41)
        assert m.a == 165580141

    def test_determinant_survives_depth(self):
        rng = random.Random(7)
        for comps in random_paths(rng, 200, max_depth=40):
            assert path_to_matrix(comps).det == (-1) ** len(comps)


class TestTrustedDerivations:
    """Values the module derives from valid ones skip the public checks;
    each must still be a value the public constructors accept."""

    @given(st.one_of(paths, wide_paths), st.integers(1, 10**6))
    def test_derived_values_pass_the_public_checks(self, comps, n):
        m = path_to_matrix(comps)
        assert m.entries() == primitive_product(comps)
        kid = child(m, n)
        derived = [m, kid]
        if comps:
            pm = parent(m)
            assert pm.entries() == primitive_product(comps[:-1])
            derived.append(pm)
        for x in derived:
            assert MobiusMatrix(*x.entries()) == x
            iv = matrix_to_interval(x)
            for end in (iv.lo, iv.hi):
                # the constructor reduces, so equality means already reduced
                assert Ratio(end.num, end.den) == end
            assert NestedInterval(iv.lo, iv.hi, iv.closed_end) == iv
        assert parent(kid) == m
        p = Path(comps)
        assert Path.parse(str(p)) == p

    def test_parent_picks_the_candidate_the_constructor_accepts(self):
        # every matrix the public constructor accepts, entries below 16
        for a, b, c, d in itertools.product(range(16), repeat=4):
            try:
                m = MobiusMatrix(a, b, c, d)
            except DomainError:
                continue
            if m.is_identity:
                continue
            valid = []
            for q in (a // b, a // b - 1):
                try:
                    valid.append(MobiusMatrix(b, a - q * b, d, c - q * d))
                except DomainError:
                    pass
            assert len(valid) == 1
            assert parent(m) == valid[0]

    def test_accepted_matrices_are_exactly_the_primitive_products(self, tmp_path):
        # the constructor's checks alone make a matrix a path matrix, so
        # matrix_to_path, parent and relative need no check of their own;
        # TreeStore.load's parent-closure test accepts the same matrices
        bound = 24
        accepted = set()
        for entries in itertools.product(range(bound), repeat=4):
            try:
                MobiusMatrix(*entries)
            except DomainError:
                continue
            accepted.add(entries)
        # a primitive factor never shrinks an entry, so every prefix of a
        # product below the bound is below it too
        products = {}
        frontier = [((1, 0, 0, 1), ())]
        while frontier:
            m, comps = frontier.pop()
            products[m] = comps
            for q in range(1, bound):
                kid = mat_mul4(m, (q, 1, 1, 0))
                if max(kid) < bound:
                    frontier.append((kid, comps + (q,)))
        assert len(products) == len(accepted) == 344
        assert accepted == set(products)
        for entries, comps in products.items():
            m = MobiusMatrix(*entries)
            assert matrix_to_path(m).components == comps
            if comps:
                assert parent(m).entries() == primitive_product(comps[:-1])

        # load's node test: b >= 1 and one parent step lands on the root
        # or on a record.  A file of every accepted non-identity matrix
        # loads; no rejected tuple with b >= 1 steps onto an accepted
        # matrix or the root, so a file holding one is refused (a
        # record's parent has a smaller a, so the rejected record with
        # the least a has no parent in the file)
        root = (1, 0, 0, 1)
        nodes = sorted(accepted - {root})
        assert len(nodes) == 343
        f = tmp_path / "all.db"
        lines = ["mobius-tree v1", *("\t".join(map(str, m)) + "\tx" for m in nodes)]
        f.write_text("\n".join(lines) + "\n")
        assert {rec.matrix.entries() for rec in TreeStore.load(f)} == set(nodes)
        for entries in itertools.product(range(bound), repeat=4):
            if entries[1] >= 1 and entries not in accepted:
                pkey, slot = _parent_and_slot(*entries)
                assert _child_entries(*pkey, slot) == entries
                assert pkey != root and pkey not in accepted, entries

    @pytest.mark.parametrize("text", ["3.0.1", "0", "00", "3.00"])
    def test_parse_still_rejects_zero_components(self, text):
        with pytest.raises(DomainError):
            Path.parse(text)


# paths weighted toward component 1: all-ones runs (rarely up to 1500
# deep, where every continued-fraction step has quotient 1) between single
# components that are 1, small, or up to 2**70
_ones_run = st.one_of(st.integers(1, 12), st.integers(1, 1500)).map(lambda n: (1,) * n)
_component = st.one_of(st.just(1), st.integers(2, 5), st.integers(1, 2**70)).map(lambda q: (q,))
one_heavy_paths = st.tuples(
    st.booleans(),  # force a leading 1
    st.lists(st.one_of(_ones_run, _component), max_size=6),
    st.booleans(),  # force a trailing 1 (a non-canonical path)
).map(lambda t: (1,) * t[0] + sum(t[1], ()) + (1,) * t[2])


def _one_heavy_examples(f):
    # fixed cases: both determinant signs of the longest all-ones run,
    # a leading and a trailing 1 next to a 2**70 component, and (2,) and
    # (1, 1), the two paths whose matrices have a == 2b, at the edge of
    # the r < b test
    for comps in [
        (1,) * 1500,
        (1,) * 1499,
        (1,),
        (2,),
        (1, 1),
        (3, 2),
        (2, 1),
        (1, 2**70),
        (2**70, 1),
        (1, 2**70, 1, 1, 1),
        (7, 1, 1, 2**70 - 1, 1),
    ]:
        f = example(comps)(f)
    return f


class TestQuotientOneSteps:
    """Every continued-fraction step on paths heavy in 1s, where the
    parent and child steps take quotient 1 by a branch of their own;
    the oracles are primitive products and Fraction arithmetic."""

    @_one_heavy_examples
    @settings(deadline=None)
    @given(one_heavy_paths)
    def test_parent_and_child_steps(self, comps):
        m = primitive_product(comps)
        if comps:
            assert _parent_and_slot(*m) == (primitive_product(comps[:-1]), comps[-1])
        for n in (1, 2, comps[-1] if comps else 3):
            assert _child_entries(*m, n) == primitive_product(comps + (n,))

    @_one_heavy_examples
    @settings(deadline=None)
    @given(one_heavy_paths)
    def test_path_matrix_round_trip(self, comps):
        m = kernels.path_to_matrix_raw(comps)
        assert m == primitive_product(comps)
        assert kernels.matrix_to_path_raw(*m) == list(comps)

    @_one_heavy_examples
    @settings(deadline=None)
    @given(one_heavy_paths.filter(bool))
    def test_label_and_its_quotients(self, comps):
        v = cf_value(comps)
        num, den = kernels.cf_eval_raw(comps)
        assert (num, den) == (v.numerator, v.denominator)
        quotients, g = kernels.euclid_quotients_raw(num, den)
        assert g == 1
        assert quotients == cf_quotients(v)
        assert Fraction(num, den) == cf_value(quotients)
