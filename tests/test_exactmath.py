import operator
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import mobiustree
from mobiustree import kernels
from mobiustree.exactmath import (
    DomainError,
    INFINITY,
    Ratio,
    ext_gcd,
    euclid_quotients,
    from_decimal,
    gcd,
    ratio_cmp,
    to_decimal,
)

from oracles import brute_gcd, brute_min_bezout, cf_value


class TestGcd:
    def test_deep_node_label_is_coprime(self):
        assert gcd(4913, 1594) == 1

    def test_gcd_with_zero(self):
        assert gcd(12, 0) == 12
        assert gcd(0, 12) == 12

    def test_brute_force_oracle(self):
        # oracle: scan all common divisors <= 24
        assert brute_gcd(54, 24) == 6
        assert gcd(54, 24) == 6

    def test_both_zero_rejected(self):
        with pytest.raises(DomainError):
            gcd(0, 0)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            gcd(-4, 2)

    def test_non_int_rejected(self):
        for args in [(True, 2), (4, False), (4.0, 2)]:
            for f in (gcd, ext_gcd):
                with pytest.raises(TypeError):
                    f(*args)
        with pytest.raises(TypeError):
            euclid_quotients(True, True)


class TestExtGcd:
    def test_worked_bezout_pair(self):
        # 1594*225 - 4913*73 = 1
        g, x, y = ext_gcd(4913, 1594)
        assert (g, x, y) == (1, -73, 225)
        assert 4913 * x + 1594 * y == g == 1

    def test_unit_tie_break(self):
        assert ext_gcd(1, 1) == (1, 1, 0)

    def test_back_substitution_oracle(self):
        # oracle: exhaustive search of |x| <= 73
        assert brute_min_bezout(225, 73) == (1, -12, 37)
        assert ext_gcd(225, 73) == (1, -12, 37)

    def test_zero_cases(self):
        assert ext_gcd(7, 0) == (7, 1, 0)
        assert ext_gcd(0, 7) == (7, 0, 1)
        with pytest.raises(DomainError):
            ext_gcd(0, 0)

    @given(st.integers(0, 10**18), st.integers(0, 10**18))
    def test_bezout_identity(self, a, b):
        if a == 0 and b == 0:
            return
        g, x, y = ext_gcd(a, b)
        assert a * x + b * y == g
        assert g == gcd(a, b)

    @given(st.integers(1, 10**9), st.integers(1, 10**9))
    def test_minimal_magnitude(self, a, b):
        g, x, y = ext_gcd(a, b)
        assert abs(x) <= max(1, b // (2 * g))
        assert abs(y) <= max(1, a // (2 * g))


class TestEuclidQuotients:
    def test_worked_division_chain(self):
        assert euclid_quotients(4913, 1594) == [3, 12, 5, 1, 21]

    def test_unit_denominator(self):
        assert euclid_quotients(7, 1) == [7]
        assert euclid_quotients(1, 1) == [1]

    def test_pi_convergent(self):
        # oracle: 355 = 113*3 + 16; 113 = 16*7 + 1; 16 = 1*16
        assert euclid_quotients(355, 113) == [3, 7, 16]

    def test_preconditions(self):
        with pytest.raises(DomainError):
            euclid_quotients(3, 4)
        with pytest.raises(DomainError):
            euclid_quotients(4, 0)
        with pytest.raises(DomainError):
            euclid_quotients(54, 24)  # not coprime

    @given(st.integers(1, 10**12), st.integers(1, 10**12))
    def test_quotients_reevaluate_to_input(self, x, y):
        from math import gcd as mgcd

        a, b = max(x, y), min(x, y)
        g = mgcd(a, b)
        a, b = a // g, b // g
        qs = euclid_quotients(a, b)
        assert all(q >= 1 for q in qs)
        if b >= 2:
            assert qs[-1] >= 2
        v = cf_value(qs)
        assert (v.numerator, v.denominator) == (a, b)


class TestRatio:
    def test_normalizes(self):
        r = Ratio(10, 4)
        assert (r.num, r.den) == (5, 2)

    def test_zero_forms(self):
        assert (Ratio(0, 5).num, Ratio(0, 5).den) == (0, 1)
        with pytest.raises(DomainError):
            Ratio(0, 0)

    def test_non_int_parts_rejected(self):
        for args in [(True,), (3, True), (1.5, 1), (3, "2")]:
            with pytest.raises(TypeError):
                Ratio(*args)

    def test_infinity_sentinel(self):
        assert INFINITY.is_infinite
        assert (Ratio(3, 0).num, Ratio(3, 0).den) == (1, 0)
        assert str(INFINITY) == "inf"

    def test_parse(self):
        assert Ratio.parse("4913/1594") == Ratio(4913, 1594)
        assert Ratio.parse("10/4") == Ratio(5, 2)
        assert Ratio.parse("7") == Ratio(7, 1)
        assert Ratio.parse("inf") == INFINITY
        for bad in ["", "x", "1/-2", "-1/2", "1/2/3", "1.5"]:
            with pytest.raises(DomainError):
                Ratio.parse(bad)

    def test_str_roundtrip(self):
        for r in [Ratio(4913, 1594), Ratio(1, 1), Ratio(0, 1), INFINITY]:
            assert Ratio.parse(str(r)) == r

    def test_immutable(self):
        r = Ratio(1, 2)
        with pytest.raises(AttributeError):
            r.num = 5

    def test_interval_endpoint_chain(self):
        # 40/13 < 4913/1594 < 5138/1667 < 37/12
        chain = [Ratio(40, 13), Ratio(4913, 1594), Ratio(5138, 1667), Ratio(37, 12)]
        for lo, hi in zip(chain, chain[1:]):
            assert lo < hi
            assert ratio_cmp(lo, hi) == -1

    def test_cmp_examples(self):
        assert ratio_cmp(Ratio(1, 1), Ratio(1, 1)) == 0
        assert ratio_cmp(Ratio(5138, 1667), Ratio(37, 12)) == -1
        assert ratio_cmp(Ratio(2, 1), Ratio(40, 13)) == -1

    def test_infinity_tops_everything(self):
        assert Ratio(10**100, 1) < INFINITY
        assert ratio_cmp(INFINITY, Ratio(10**100, 1)) == 1
        assert ratio_cmp(INFINITY, INFINITY) == 0

    @given(
        st.tuples(st.integers(0, 10**9), st.integers(0, 10**9)),
        st.tuples(st.integers(0, 10**9), st.integers(0, 10**9)),
        st.tuples(st.integers(0, 10**9), st.integers(0, 10**9)),
    )
    def test_total_order(self, t1, t2, t3):
        ratios = []
        for num, den in (t1, t2, t3):
            if num == 0 and den == 0:
                return
            ratios.append(Ratio(num, den))
        p, q, r = ratios
        # antisymmetry
        assert ratio_cmp(p, q) == -ratio_cmp(q, p)
        assert (ratio_cmp(p, q) == 0) == (p == q)
        # transitivity
        if p <= q and q <= r:
            assert p <= r

    @given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
    def test_cmp_matches_fractions(self, pn, pd, qn, qd):
        from fractions import Fraction

        if (pn == 0 and pd == 0) or (qn == 0 and qd == 0):
            return
        p, q = Ratio(pn, pd), Ratio(qn, qd)
        if p.is_infinite or q.is_infinite:
            return
        expect = (Fraction(pn, pd) > Fraction(qn, qd)) - (Fraction(pn, pd) < Fraction(qn, qd))
        assert ratio_cmp(p, q) == expect


# finite Ratios, the same value often spelled twice, and the infinity sentinel
RATIOS = st.one_of(
    st.just(INFINITY),
    st.builds(Ratio, st.integers(0, 10**6), st.integers(1, 10**6)),
    st.builds(Ratio, st.integers(0, 12), st.integers(1, 12)),
)
ORDER_OPS = (operator.lt, operator.le, operator.gt, operator.ge)


class TestRatioOrder:
    @given(RATIOS, RATIOS)
    def test_operators_match_ratio_cmp_and_fraction(self, p, q):
        def key(r):
            return (1, 0) if r.is_infinite else (0, Fraction(r.num, r.den))

        for op in (*ORDER_OPS, operator.eq):
            assert op(p, q) == op(ratio_cmp(p, q), 0) == op(key(p), key(q))

    def test_operators_refuse_other_types(self):
        for other in (5, "x"):
            for op in ORDER_OPS:
                with pytest.raises(TypeError):
                    op(Ratio(1, 2), other)
                with pytest.raises(TypeError):
                    op(other, INFINITY)

    def test_each_operator_is_the_class_own(self):
        # perfbench/tracer.py patches each one in Ratio.__dict__
        for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
            assert name in Ratio.__dict__


# well past CPython's default int <-> str limit of 4300 digits
HUGE_DIGITS = sys.int_info.default_max_str_digits + 700


class TestDecimalText:
    def test_matches_str_and_int_within_the_limit(self):
        for n in [0, 7, -7, 10**600 - 1, 10**600, 3**5000]:
            assert to_decimal(n) == str(n)
            assert from_decimal(str(n)) == n

    def test_roundtrip_past_the_limit(self):
        text = "9" * HUGE_DIGITS
        n = from_decimal(text)
        assert n == 10**HUGE_DIGITS - 1
        assert to_decimal(n) == text
        assert to_decimal(-n) == "-" + text
        # interior chunks keep their leading zeros
        n = 10**HUGE_DIGITS + 7
        assert to_decimal(n) == "1" + "0" * (HUGE_DIGITS - 1) + "7"
        assert from_decimal(to_decimal(n)) == n

    def test_rejects_non_digits_past_the_limit(self):
        nines = "9" * HUGE_DIGITS
        for bad in [nines + "x", " " + nines, "+" + nines, "--" + nines, "-+" + nines,
                    "- " + nines, "-" + nines + "-", nines[:9] + "_" + nines, "-"]:
            with pytest.raises(ValueError):
                from_decimal(bad)

    def test_negative_past_the_limit(self):
        text = "-" + "9" * HUGE_DIGITS
        assert from_decimal(text) == -(10**HUGE_DIGITS - 1)
        assert to_decimal(from_decimal(text)) == text
        n = -(10**HUGE_DIGITS + 7)
        assert from_decimal(to_decimal(n)) == n

    def test_errors_name_huge_values(self):
        big = 10**HUGE_DIGITS
        with pytest.raises(DomainError, match="need a >= b"):
            euclid_quotients(big, big + 1)
        with pytest.raises(DomainError, match="not coprime"):
            euclid_quotients(2 * big, big)

    def test_ratio_text_past_the_limit(self):
        r = Ratio(10**HUGE_DIGITS + 1, 10**HUGE_DIGITS)
        assert Ratio.parse(str(r)) == r
        assert repr(r).startswith("Ratio(1000")


def test_kernel_names_read_by_the_benchmark():
    # perfbench/run.py prints KERNEL_BACKEND; perfbench/tracer.py wraps
    # these seven kernels by name
    assert mobiustree.KERNEL_BACKEND == "pure"
    for name in (
        "ext_gcd_raw",
        "euclid_quotients_raw",
        "cf_eval_raw",
        "path_to_matrix_raw",
        "matrix_to_path_raw",
        "mat_mul_raw",
        "cmp_raw",
    ):
        assert callable(getattr(kernels, name))


def test_package_exports_each_module_name_once():
    from mobiustree import encoding, exactmath, store

    assert set(mobiustree.__all__) == {
        "__version__", "KERNEL_BACKEND",
        "DomainError", "INFINITY", "Ratio", "gcd", "ext_gcd", "euclid_quotients", "ratio_cmp",
        "Path", "MobiusMatrix", "NestedInterval", "path_to_matrix", "matrix_to_path",
        "path_to_ratio", "ratio_to_path", "ratio_to_matrix", "matrix_to_interval",
        "interval_to_matrix", "interval_contains", "parent", "next_sibling", "prev_sibling",
        "child", "concat", "relative", "is_ancestor", "convergents", "depth",
        "TreeStore", "NodeRecord", "StoreStats", "StoreError", "MissingNodeError",
        "OccupiedSlotError", "CycleError", "LoadError", "ROOT",
    }
    assert len(mobiustree.__all__) == 38
    for module in (exactmath, encoding, store):
        for name in module.__all__:
            assert getattr(mobiustree, name) is getattr(module, name), name
    # the decimal text helpers stay importable from their module alone
    assert exactmath.to_decimal(10) == "10" and exactmath.from_decimal("10") == 10
    assert not hasattr(mobiustree, "to_decimal")
