import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from chebflag.chebpoly import (
    Partition,
    RootData,
    p_at_rho1,
    p_coeff_closed,
    p_partition,
    p_poly,
    roots_of_pm,
)


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


class TestRoots:
    def test_m2(self):
        rd = roots_of_pm(2)
        assert len(rd.roots) == 1
        assert abs(rd.roots[0] - 1.0) < 1e-12

    def test_m3(self):
        assert abs(roots_of_pm(3).roots[0] - 0.5) < 1e-12

    def test_m4_increasing_positive(self):
        rd = roots_of_pm(4)
        assert len(rd.roots) == 2
        assert 0 < rd.roots[0] < rd.roots[1]

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            roots_of_pm(1)
        with pytest.raises(ValueError):
            roots_of_pm(0)

    def test_theta(self):
        assert roots_of_pm(5).theta == pytest.approx(math.pi / 6)

    def test_count_structure_residuals_through_12(self):
        for m in range(2, 13):
            rd = roots_of_pm(m)
            assert len(rd.roots) == m // 2
            assert all(r > 0 for r in rd.roots)
            assert all(a < b for a, b in zip(rd.roots, rd.roots[1:]))
            pm = p_poly(m)
            for j, rho in enumerate(rd.roots, start=1):
                if (m, j) == (12, 6):
                    # the one root where 1e-9 is unattainable in doubles:
                    # |p'(rho)| ~ 1.2e6 and ulp(rho) ~ 3.6e-15 put the
                    # floor for any stored double near 2e-9; hold it to
                    # the exact bracket instead
                    w = Fraction(1, 2**40)
                    assert pm(Fraction(rho) * (1 - w)) * pm(Fraction(rho) * (1 + w)) < 0
                else:
                    assert abs(pm(rho)) < 1e-9, (m, j, pm(rho))

    def test_builds_where_float_residuals_fail(self):
        # at these larger m the float residual of some root exceeds any
        # fixed tolerance; the exact brackets still prove every root
        past = [54, 88, 94, 100, 106, 108, 110, 114, 118, 122, 126, 128]
        for m in list(range(2, 21)) + past:
            rd = roots_of_pm(m)
            assert len(rd.roots) == m // 2
            assert rd.rho1 > 1 / 4, m  # 1/(4 cos^2(pi/(m+1)))

    def test_rootdata_validates(self):
        with pytest.raises(ValueError):
            RootData(2, (1.0, 2.0), math.pi / 3)  # wrong count
        with pytest.raises(ValueError):
            RootData(4, (2.618033988749895, 0.38196601125010515), math.pi / 5)
        with pytest.raises(ValueError):
            RootData(2, (0.9,), math.pi / 3)  # not a root


class TestPAtRho1:
    def test_constant(self):
        assert p_at_rho1(0, 2) == 1.0
        assert p_at_rho1(1, 5) == 1.0

    def test_value(self):
        assert p_at_rho1(2, 3) == pytest.approx(0.5)

    def test_rejects_r_at_least_m(self):
        with pytest.raises(ValueError):
            p_at_rho1(3, 3)
        with pytest.raises(ValueError):
            p_at_rho1(-1, 3)

    def test_positive_through_128(self):
        # Horner on the coefficients of p_r cancels to <= 0 first at
        # (r, m) = (45, 46); the closed form stays positive
        for m in range(2, 129):
            for r in range(m):
                assert p_at_rho1(r, m) > 0, (r, m)

    def test_matches_horner_through_12(self):
        # where Horner does not cancel, the closed form is p_r at rho1
        for m in range(2, 13):
            rho1 = roots_of_pm(m).rho1
            for r in range(m):
                assert abs(p_at_rho1(r, m) - p_poly(r)(rho1)) < 1e-15, (r, m)

    def test_rejects_constant_pm(self):
        with pytest.raises(ValueError):
            p_at_rho1(0, 1)
