import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from _reference import horner, p_partition, root_brackets
from chebflag.chebpoly import Partition, p_coeff_closed, p_poly


class TestPartition:
    def test_basic(self):
        xi = Partition([3, 2, 2])
        assert xi.size == 7
        assert xi.length == 3
        assert list(xi) == [3, 2, 2]

    def test_empty_allowed(self):
        assert Partition().size == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Partition([2, 0])
        with pytest.raises(ValueError):
            Partition([-1])

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition([1, 2])


class TestPPoly:
    def test_base_cases(self):
        assert p_poly(0).coeffs == (1,)
        assert p_poly(1).coeffs == (1,)

    def test_first_steps(self):
        assert p_poly(2).coeffs == (1, -1)
        assert p_poly(3).coeffs == (1, -2)
        assert p_poly(4).coeffs == (1, -3, 1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            p_poly(-1)

    def test_degree_and_constant_term(self):
        for r in range(25):
            p = p_poly(r)
            assert p.degree == r // 2
            assert p[0] == 1


class TestClosedForm:
    def test_matches_recurrence_everywhere(self):
        for r in range(25):
            p = p_poly(r)
            for j in range(r // 2 + 2):
                assert p[j] == p_coeff_closed(r, j), (r, j)

    def test_vanishing_beyond_half(self):
        assert p_coeff_closed(5, 3) == 0

    def test_constant_coefficient(self):
        for r in range(20):
            assert p_coeff_closed(r, 0) == 1

    def test_example(self):
        assert p_coeff_closed(4, 1) == -3

    @given(st.integers(0, 60), st.integers(-3, 40))
    def test_guarded_binomial(self, r, j):
        want = 0
        if 0 <= j <= r - j:
            want = (-1) ** j * math.comb(r - j, j)
        assert p_coeff_closed(r, j) == want


class TestPPartition:
    def test_empty_product(self):
        assert p_partition(Partition()).coeffs == (1,)

    def test_all_ones(self):
        assert p_partition(Partition([1, 1, 1])).coeffs == (1,)

    def test_square(self):
        assert p_partition(Partition([2, 2])).coeffs == (1, -2, 1)


def _holds_root(pm, n, bits):
    """p_m has a root in [n, n + 1) / 2^bits, by exact Horner at both ends."""
    lo, hi = horner(pm, Fraction(n, 2**bits)), horner(pm, Fraction(n + 1, 2**bits))
    return hi != 0 and (lo == 0 or (lo < 0) != (hi < 0))


class TestRoots:
    def test_m2(self):
        for bits in range(9):
            assert root_brackets(2, bits) == [2**bits]  # the root 1

    def test_m3(self):
        for bits in range(1, 9):
            assert root_brackets(3, bits) == [2 ** (bits - 1)]  # the root 1/2
        assert root_brackets(3, 0) == [0]

    def test_m5(self):
        assert root_brackets(5, 2) == [1, 4]  # 1/3 and 1, at 1/4 resolution

    def test_m4_increasing_positive(self):
        lo, hi = root_brackets(4, 20)
        assert 0 < lo < hi

    def test_constant_pm_has_no_roots(self):
        assert root_brackets(0, 10) == []
        assert root_brackets(1, 10) == []

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            root_brackets(-1, 10)
        with pytest.raises(ValueError):
            root_brackets(4, -1)

    def test_count_order_through_300(self):
        for m in range(2, 301):
            ns = root_brackets(m, 2)
            assert len(ns) == m // 2, m
            assert ns == sorted(ns), m
            assert ns[0] >= 1, m  # rho1 >= 1/4

    def test_matches_trig_closed_form(self):
        for m in range(2, 41):
            ns = root_brackets(m, 50)
            assert len(set(ns)) == len(ns) == m // 2, m
            for j, n in enumerate(ns, start=1):
                rho = 1 / (4 * math.cos(j * math.pi / (m + 1)) ** 2)
                assert abs(n / 2**50 - rho) <= 1e-12 * rho, (m, j)

    def test_sign_change_across_each_bracket(self):
        for m in range(2, 41):
            pm = p_poly(m)
            for n in root_brackets(m, 50):
                assert _holds_root(pm, n, 50), (m, n)

    def test_builds_where_float_residuals_fail(self):
        # a float root's residual exceeds any fixed tolerance at these m;
        # the brackets are exact there as everywhere
        for m in [54, 88, 94, 100, 106, 108, 110, 114, 118, 122, 126, 128]:
            ns = root_brackets(m, 40)
            assert len(ns) == m // 2, m
            assert all(a < b for a, b in zip(ns, ns[1:])), m
            assert ns[0] >= 2**38, m  # rho1 >= 1/4


class TestPositiveAtRho1:
    """p_a(rho1(m)) > 0 for every a < m, proved by exact brackets."""

    def test_constant(self):
        assert p_poly(0).coeffs == p_poly(1).coeffs == (1,)

    def test_value(self):
        # rho1(3) = 1/2 exactly, where p_2 = 1 - x is 1/2
        assert root_brackets(3, 30) == [2**29]
        assert horner(p_poly(3), Fraction(1, 2)) == 0
        assert horner(p_poly(2), Fraction(1, 2)) == Fraction(1, 2)

    def test_positive_through_80(self):
        # p_a > 0 on [0, rho1(a)) and p_a(0) = 1; a strictly falling
        # bracket puts rho1(a+1) below rho1(a), so rho1(m) < rho1(a) for
        # every 2 <= a < m <= 80
        n1 = [root_brackets(a, 24)[0] for a in range(2, 81)]
        assert all(a > b for a, b in zip(n1, n1[1:]))
