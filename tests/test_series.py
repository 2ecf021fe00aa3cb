import pytest
from hypothesis import given, strategies as st

from chebflag.series import (
    IntPolynomial,
    ONE,
    ZERO,
    poly_add,
    poly_mul,
    poly_pow,
    poly_prod,
    product_coeff,
    series_div_unit,
)


def P(*cs):
    return IntPolynomial(cs)


class TestIntPolynomial:
    def test_trailing_zeros_trimmed(self):
        assert IntPolynomial([1, 0, 0]).coeffs == (1,)
        assert IntPolynomial([0, 0]) == ZERO

    def test_zero_degree(self):
        assert ZERO.degree == -1
        assert P(5).degree == 0

    def test_getitem_outside_range(self):
        p = P(1, -1)
        assert p[5] == 0
        assert p[-1] == 0


class TestPolyAdd:
    def test_cancellation(self):
        assert poly_add(P(1, -1), P(0, 1)) == ONE

    def test_zero_identity(self):
        p = P(3, 1, 4)
        assert poly_add(ZERO, p) == p

    def test_hand_sum(self):
        assert poly_add(P(1, -2), P(1, -1)) == P(2, -3)


class TestPolyMul:
    def test_one_identity(self):
        assert poly_mul(P(1, -1), ONE) == P(1, -1)

    def test_square(self):
        assert poly_mul(P(1, -1), P(1, -1)) == P(1, -2, 1)

    def test_hand_product(self):
        assert poly_mul(P(1, -2), P(1, -1)) == P(1, -3, 2)

    def test_degree_adds(self):
        assert poly_mul(P(1, 0, 2), P(0, 3)).degree == 3

    def test_pow(self):
        assert poly_pow(P(1, -1), 0) == ONE
        assert poly_pow(P(1, -1), 3) == P(1, -3, 3, -1)
        with pytest.raises(ValueError):
            poly_pow(ONE, -1)


class TestSeriesDivUnit:
    def test_geometric(self):
        assert series_div_unit(ONE, P(1, -1), 4).coeffs == (1, 1, 1, 1, 1)

    def test_powers_of_two(self):
        assert series_div_unit(ONE, P(1, -2), 3).coeffs == (1, 2, 4, 8)

    def test_exact_cancellation(self):
        assert series_div_unit(P(1, -1), P(1, -1), 2).coeffs == (1, 0, 0)

    def test_rejects_nonunit_constant(self):
        with pytest.raises(ValueError):
            series_div_unit(ONE, P(2, 1), 3)
        with pytest.raises(ValueError):
            series_div_unit(ONE, ZERO, 3)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            series_div_unit(ONE, P(1, -1), -1)

    def test_series_numerator_feeds_next_division(self):
        once = series_div_unit(ONE, P(1, -1), 4)
        assert series_div_unit(once, P(1, -1), 4).coeffs == (1, 2, 3, 4, 5)
        assert series_div_unit(once, P(1, -1), 2).coeffs == (1, 2, 3)
        with pytest.raises(ValueError):
            series_div_unit(once, P(1, -1), 5)


small_polys = st.builds(
    IntPolynomial, st.lists(st.integers(-9, 9), max_size=21)
)
unit_dens = st.builds(
    lambda tail: IntPolynomial([1] + tail), st.lists(st.integers(-5, 5), max_size=8)
)


@given(small_polys, unit_dens, st.integers(0, 25))
def test_division_round_trip(num, den, order):
    # den * (num/den) must reproduce num through the truncation order
    s = series_div_unit(num, den, order)
    back = poly_mul(den, IntPolynomial(s.coeffs))
    for j in range(order + 1):
        assert back[j] == num[j]


@given(small_polys, unit_dens, st.integers(0, 20), st.integers(0, 20))
def test_division_truncation_consistency(num, den, r1, r2):
    lo, hi = sorted((r1, r2))
    assert series_div_unit(num, den, hi).coeffs[: lo + 1] == series_div_unit(
        num, den, lo
    ).coeffs


@given(small_polys, small_polys)
def test_mul_commutative(p, q):
    assert poly_mul(p, q) == poly_mul(q, p)


@given(small_polys, small_polys, small_polys)
def test_mul_associative(p, q, r):
    assert poly_mul(poly_mul(p, q), r) == poly_mul(p, poly_mul(q, r))


@given(small_polys, small_polys)
def test_degree_of_product(p, q):
    if p and q:
        assert poly_mul(p, q).degree == p.degree + q.degree
    else:
        assert poly_mul(p, q) == ZERO


def _schoolbook_prod(factors, order):
    acc = ONE
    for f in factors:
        acc = poly_mul(acc, f)
    if order is None:
        return acc
    return IntPolynomial(acc.coeffs[: order + 1])


wide_coeffs = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**200), 2**200),
)
wide_polys = st.builds(IntPolynomial, st.lists(wide_coeffs, max_size=12))


class TestPolyProd:
    """poly_prod (Kronecker substitution) against a schoolbook poly_mul chain."""

    @given(st.lists(wide_polys, max_size=5), st.one_of(st.none(), st.integers(0, 70)))
    def test_matches_schoolbook(self, factors, order):
        assert poly_prod(factors, order) == _schoolbook_prod(factors, order)

    @given(st.lists(wide_polys, min_size=1, max_size=5), st.data())
    def test_order_inside_and_beyond_degree(self, factors, data):
        full = _schoolbook_prod(factors, None)
        order = data.draw(st.integers(0, max(full.degree, 0) + 5))
        assert poly_prod(factors, order) == _schoolbook_prod(factors, order)
        assert poly_prod(factors, max(full.degree, 0) + 5) == full

    @given(st.lists(wide_polys, max_size=4), st.one_of(st.none(), st.integers(0, 9)))
    def test_zero_factor_gives_zero(self, factors, order):
        assert poly_prod(factors + [ZERO], order) == ZERO
        # a factor that vanishes through x^order zeroes the truncated product
        assert poly_prod(factors + [P(0, 0, 7)], 1) == ZERO

    def test_empty_product_is_one(self):
        assert poly_prod([]) == ONE
        assert poly_prod([], 0) == ONE
        assert poly_prod([], 5) == ONE

    def test_order_zero_reads_constant_terms(self):
        assert poly_prod([P(-2, 5), P(3, 1, 1)], 0) == P(-6)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            poly_prod([P(1, -1)], -1)


class TestProductCoeff:
    """product_coeff against the full product of a poly_mul chain."""

    @given(
        st.lists(st.lists(st.integers(-(2**70), 2**70), max_size=9), max_size=5),
        st.integers(0, 20),
    )
    def test_matches_schoolbook(self, vectors, r):
        # vectors of degree <= 8 and r up to 20: r often runs past the end
        # of some vectors, or of the whole product
        want = _schoolbook_prod([IntPolynomial(v) for v in vectors], None)[r]
        assert product_coeff(vectors, r) == want

    def test_short_vectors_read_as_zero(self):
        assert product_coeff([[1, 1], [1] * 30, [2]], 5) == 4
        assert product_coeff([[1] * 30, [1, 1]], 29) == 2
        assert product_coeff([[], [1]], 0) == 0

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            product_coeff([[1]], -1)
