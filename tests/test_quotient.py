import itertools
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from _reference import p_partition, scan_threshold, spec_of
from chebflag.chebpoly import Partition, p_poly
from chebflag.quotient import (
    PositivityClass,
    QuotientSpec,
    classify,
    default_order,
    expand,
    expand_decimal,
    make_spec,
    multiplicities,
    multiplicity,
    positivity_bound,
    positivity_threshold,
    signed_coefficient,
)
from chebflag.series import IntPolynomial, poly_mul, poly_pow, series_div_unit
from chebflag.verify import default_golden_path


class TestMakeSpec:
    def test_surplus_cancellation(self):
        sp = spec_of([2, 2], 2, 0)
        assert (sp.mu1, sp.mu0, sp.t, sp.k) == (0, 0, 2, -1)
        assert sp.alphas == (1,)

    def test_simple_pole(self):
        sp = spec_of([1], 2, 1)
        assert (sp.mu1, sp.mu0, sp.t, sp.k) == (0, 1, 0, 1)
        assert sp.alphas == (0, 1)

    def test_rejects_oversize_part(self):
        with pytest.raises(ValueError):
            spec_of([3], 2, 0)

    def test_rejects_negative_mu(self):
        with pytest.raises(ValueError):
            spec_of([1], 2, -1)

    def test_direct_construction_is_checked(self):
        with pytest.raises(ValueError, match="part 7 exceeds"):
            QuotientSpec(Partition((7,)), 3, 0)
        with pytest.raises(ValueError, match="level m"):
            QuotientSpec(Partition(()), 0, 0)
        with pytest.raises(ValueError, match="mu"):
            QuotientSpec(Partition((1,)), 2, -1)

    def test_alpha_order(self):
        sp = spec_of([4, 3, 1], 4, 2)
        assert sp.alphas == (1, 3, 1)

    @given(
        st.integers(1, 6).flatmap(
            lambda m: st.tuples(
                st.just(m),
                st.lists(st.integers(1, m), max_size=5),
                st.integers(0, 30),
            )
        )
    )
    def test_bookkeeping_invariants(self, args):
        m, parts, mu = args
        sp = spec_of(sorted(parts, reverse=True), m, mu)
        assert sp.mu == sp.mu1 * m + sp.mu0
        assert 0 <= sp.mu0 < m
        assert sp.k == sp.mu1 + 1 - sp.t
        assert all(0 <= a <= m - 1 for a in sp.alphas)
        assert sp.alphas[0] == m - sp.mu0 - 1


class TestExpand:
    def test_geometric(self):
        assert expand(spec_of([1], 2, 1), 5).coeffs.coeffs == (1, 1, 1, 1, 1, 1)

    def test_polynomial_case(self):
        assert expand(spec_of([2, 2], 2, 0), 3).coeffs.coeffs == (1, -1, 0, 0)

    def test_level_one_constant(self):
        for parts, mu in [((), 0), ((1, 1), 2), ((1, 1, 1), 5)]:
            cs = expand(spec_of(parts, 1, mu), 6).coeffs.coeffs
            assert cs == (1, 0, 0, 0, 0, 0, 0)

    def test_reduced_equals_unreduced(self):
        # dividing prod p_alpha by p_m^k must match the raw form
        # p_{m-mu0-1} * p_xi / p_m^(mu1+1) whenever mu1+1 >= 0
        from chebflag.series import series_div_unit

        for parts, m, mu in [
            ((2, 2), 2, 3),
            ((3, 1), 3, 4),
            ((4, 4, 2), 4, 6),
            ((5, 3), 5, 2),
        ]:
            sp = spec_of(parts, m, mu)
            raw_num = poly_mul(p_poly(m - sp.mu0 - 1), p_partition(sp.xi))
            raw = series_div_unit(raw_num, poly_pow(p_poly(m), sp.mu1 + 1), 12)
            assert expand(sp, 12).coeffs == raw


@st.composite
def specs_with_k(draw, max_m=64, min_k=-2, max_k=9):
    """Specs with m in 2..max_m and net pole order k in min_k..max_k."""
    m = draw(st.integers(2, max_m))
    k = draw(st.integers(min_k, max_k))
    t = max(0, 1 - k) + draw(st.integers(0, 2))
    rest = draw(st.lists(st.integers(1, m - 1), max_size=3))
    mu = (k - 1 + t) * m + draw(st.integers(0, m - 1))
    sp = spec_of(sorted([m] * t + rest, reverse=True), m, mu)
    assert sp.k == k
    return sp


class TestLayeredDivision:
    """expand divides by p_m one layer at a time; the reference is one
    truncated division by the dense power p_m^k."""

    @given(specs_with_k(), st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_reference(self, sp, order):
        got = expand(sp, order).coeffs.coeffs
        num, pm = p_partition(sp.alphas), p_poly(sp.m)
        if sp.k <= 0:
            poly = poly_mul(num, poly_pow(pm, -sp.k))
            assert got == tuple(poly[i] for i in range(order + 1))
        else:
            den = poly_pow(pm, sp.k)
            assert got == series_div_unit(num, den, order).coeffs
            # and the series times the denominator gives back the numerator
            back = poly_mul(IntPolynomial(got), den)
            assert all(back[i] == num[i] for i in range(order + 1))

    def test_golden_fixture(self):
        with open(default_golden_path(), encoding="utf-8") as fh:
            cases = json.load(fh)["expansions"]
        assert cases
        for case in cases:
            sp = spec_of(case["xi"], case["m"], case["mu"])
            got = expand(sp, case["order"]).coeffs.coeffs
            assert [str(c) for c in got] == case["coeffs"]


class TestExpandDecimal:
    """expand_decimal prints what str() of expand's ints prints, on both
    sides of the crossover into decimal.Decimal."""

    @staticmethod
    def _edge(sp):
        return 500 + 30 * sp.k * (sp.m // 2)

    def test_equals_str_of_expand(self):
        rng = random.Random(20261020)
        wide = negative = zero = 0
        for _ in range(60):
            m, k = rng.randint(3, 9), rng.randint(1, 3)
            rest = sorted((rng.randint(1, m - 1) for _ in range(rng.randint(0, 4))),
                          reverse=True)
            t = rng.randint(0, 2)
            sp = spec_of([m] * t + rest, m, (k - 1 + t) * m + rng.randrange(m))
            assert sp.k == k
            # the last order below the crossover, then one above it
            for order in (self._edge(sp), self._edge(sp) + 1 + rng.randrange(40)):
                cs = expand(sp, order).coeffs.coeffs
                # equality with str(int) rules out "-0" and exponents
                assert list(expand_decimal(sp, order)) == list(map(str, cs))
                if order > self._edge(sp):
                    wide += 1
                    negative += any(c < 0 for c in cs)
                    zero += 0 in cs
        assert (wide, negative > 0, zero > 0) == (60, True, True)

    def test_other_quotients_stay_on_ints(self):
        # k <= 0, and m <= 2 where p_m has no root inside the unit disc
        for sp in (spec_of([2, 2], 2, 0), spec_of([4, 4, 1], 4, 5),
                   spec_of([1], 2, 10), spec_of([1, 1], 1, 3)):
            cs = expand(sp, 3000).coeffs.coeffs
            assert list(expand_decimal(sp, 3000)) == list(map(str, cs))

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            expand_decimal(spec_of([1], 3, 0), -1)

    def test_stops_at_the_digit_limit(self):
        # a_1082 is the first coefficient past 640 digits: the strings
        # before it are yielded, then str()'s own ValueError
        sp = spec_of([7, 5], 12, 60)
        assert 2000 > self._edge(sp)
        want = list(map(str, expand(sp, 1081).coeffs.coeffs))
        got = []
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with pytest.raises(ValueError, match="Exceeds the limit \\(640 digits\\)"):
                got.extend(expand_decimal(sp, 2000))
        finally:
            sys.set_int_max_str_digits(previous)
        assert got == want

    def test_no_digit_limit_without_get_int_max_str_digits(self, monkeypatch):
        # a Python that predates the digit limit has no
        # sys.get_int_max_str_digits, and no limit either
        sp = spec_of([7, 5], 12, 60)
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            monkeypatch.delattr(sys, "get_int_max_str_digits")
            got = list(expand_decimal(sp, 2000))
        finally:
            sys.set_int_max_str_digits(previous)
        assert len(got) == 2001 and len(got[1082].lstrip("-")) > 640

    def test_imports_decimal_only_when_wide(self):
        code = (
            "import sys\n"
            "from chebflag.chebpoly import Partition\n"
            "from chebflag.quotient import expand_decimal, make_spec\n"
            "sp = make_spec(Partition([1]), 3, 0)\n"
            "list(expand_decimal(sp, 530)); print('decimal' in sys.modules)\n"
            "list(expand_decimal(sp, 531)); print('decimal' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=dict(os.environ), check=True)
        assert proc.stdout == "False\nTrue\n"


class TestSignedCoefficient:
    def test_simple_pole_tail(self):
        assert signed_coefficient(spec_of([1], 2, 1), 3) == 1

    def test_r0_always_one(self):
        for parts, m, mu in [((), 1, 0), ((2,), 3, 1), ((3, 2), 4, 5)]:
            assert signed_coefficient(spec_of(parts, m, mu), 0) == 1

    def test_agrees_with_expand(self):
        sp = spec_of([1, 1], 3, 2)
        assert signed_coefficient(sp, 2) == expand(sp, 2).coeffs.coeffs[2] == 4

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            signed_coefficient(spec_of([2, 2], 2, 0), 1)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            signed_coefficient(spec_of([1], 2, 1), -1)

    def test_sweep_against_division(self):
        for m in range(1, 5):
            for parts in itertools.combinations_with_replacement(range(1, m + 1), 2):
                for mu in range(0, 2 * m + 1):
                    sp = spec_of(sorted(parts, reverse=True), m, mu)
                    if sp.k < 0:
                        continue
                    cs = expand(sp, 8).coeffs.coeffs
                    for r in range(9):
                        assert signed_coefficient(sp, r) == cs[r], (parts, m, mu, r)


    def test_independent_of_division(self, monkeypatch):
        # the signed route must not reach the products or divisions that
        # expand is built from, or the cross-check would check nothing
        specs = [spec_of([2, 1], 2, 1), spec_of([3, 2], 4, 1),
                 spec_of([1, 1], 2, 2), spec_of([4, 3], 5, 12)]
        assert [sp.k for sp in specs] == [0, 1, 2, 3]
        want = [expand(sp, 12).coeffs.coeffs for sp in specs]

        def refuse(*args, **kwargs):
            raise AssertionError("signed route reached the division route")

        monkeypatch.setattr("chebflag.quotient.poly_prod", refuse)
        monkeypatch.setattr("chebflag.quotient.series_div_unit", refuse)
        monkeypatch.setattr("chebflag.quotient.p_poly", refuse)
        for sp, cs in zip(specs, want):
            assert [signed_coefficient(sp, r) for r in range(13)] == list(cs)

    @given(specs_with_k(max_m=8, min_k=0, max_k=3), st.integers(0, 300))
    @settings(max_examples=25, deadline=None)
    def test_matches_expand_at_benchmark_sizes(self, sp, r):
        assert signed_coefficient(sp, r) == expand(sp, r).coeffs.coeffs[r]

    def test_deep_index(self):
        # a pole of order 2 at r = 1500: one walk-count pass, no recursion
        sp = spec_of([1], 2, 2)
        assert sp.k == 2
        assert signed_coefficient(sp, 1500) == expand(sp, 1500).coeffs.coeffs[1500]


class TestClassify:
    def test_polynomial_branch(self):
        pc = classify(spec_of([2, 2], 2, 0))
        assert pc.kind == "polynomial"
        assert pc.degree_bound is not None

    def test_eventually_positive_branch(self):
        assert classify(spec_of([1], 2, 0)).kind == "eventually_positive"

    def test_constant_one_branch(self):
        assert classify(spec_of([1, 1], 1, 2)).kind == "constant_one"

    def test_kind_constructor_validation(self):
        with pytest.raises(ValueError):
            PositivityClass("nonsense")
        with pytest.raises(ValueError):
            PositivityClass("polynomial")

    def test_polynomial_bound_holds(self):
        # beyond the bound everything vanishes, and multiplying back by
        # p_m^(mu1+1) recovers the numerator exactly
        from chebflag.series import IntPolynomial

        for parts, m, mu in [
            ((2, 2), 2, 0),
            ((2, 2, 2), 2, 1),
            ((3, 3), 3, 0),
            ((4, 4, 4), 4, 3),
            ((5, 5), 5, 1),
        ]:
            sp = spec_of(parts, m, mu)
            pc = classify(sp)
            assert pc.kind == "polynomial"
            rep = expand(sp, pc.degree_bound + 10)
            tail = rep.coeffs.coeffs[pc.degree_bound + 1 :]
            assert all(c == 0 for c in tail), (parts, m, mu)
            back = poly_mul(
                IntPolynomial(rep.coeffs.coeffs), poly_pow(p_poly(m), sp.mu1 + 1)
            )
            assert back == poly_mul(p_poly(m - sp.mu0 - 1), p_partition(sp.xi))


def _eventually_positive_specs(seed, count):
    """Seeded specs with k >= 1: m in 2..9 and at most 7 parts."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(2, 9)
        parts = sorted((rng.randint(1, m) for _ in range(rng.randint(0, 7))), reverse=True)
        t = parts.count(m)
        sp = spec_of(parts, m, (t + rng.randint(0, 2)) * m + rng.randint(0, m - 1))
        assert sp.k >= 1
        yield sp


class TestPositivityThreshold:
    def test_all_positive_from_zero(self):
        assert positivity_threshold(spec_of([1], 2, 1), 50) == 0

    def test_resolves_small_case(self):
        r0 = positivity_threshold(spec_of([1, 1], 3, 0), 50)
        assert r0 is not None
        cs = expand(spec_of([1, 1], 3, 0), 50).coeffs.coeffs
        assert all(c > 0 for c in cs[r0:])

    def test_negative_early_coefficient(self):
        sp = spec_of([3, 2], 4, 1)
        cs = expand(sp, 10).coeffs.coeffs
        assert cs[1] < 0
        assert positivity_threshold(sp, 120) == 2

    def test_rejects_polynomial_spec(self):
        with pytest.raises(ValueError):
            positivity_threshold(spec_of([2, 2], 2, 0), 50)

    def test_equals_the_full_scan(self):
        # horizons 0, 3 and 10 often sit below the bound, where the scan
        # reads the whole horizon; default_order sits above it here
        below = above = 0
        for sp in _eventually_positive_specs(20261019, 300):
            bound = positivity_bound(sp)
            for horizon in (0, 3, 10, default_order(sp)):
                assert positivity_threshold(sp, horizon) == scan_threshold(sp, horizon), (
                    sp, horizon)
                below += bound <= horizon
                above += bound > horizon
        assert below > 300 and above > 100

    def test_bound_holds_past_itself(self):
        for sp in _eventually_positive_specs(20261019, 300):
            bound = positivity_bound(sp)
            cs = expand(sp, bound + 30).coeffs.coeffs
            assert all(c >= 1 for c in cs[bound:]), sp

    def test_bound_rejects_other_classes(self):
        for sp in (spec_of([2, 2], 2, 0), spec_of([], 1, 3)):
            with pytest.raises(ValueError):
                positivity_bound(sp)

    def test_default_order_heuristic(self):
        sp = spec_of([1], 2, 1)
        assert default_order(sp) >= 4 * 2 * 2 + 40


class TestMultiplicity:
    def test_basic_values(self):
        assert multiplicity(Partition([2]), 2, 2) == 1
        assert multiplicity(Partition([1, 1]), 2, 0) == 1

    def test_parity_zero(self):
        assert multiplicity(Partition([2]), 2, 1) == 0

    def test_negative_weight_zero(self):
        assert multiplicity(Partition([2]), 2, -2) == 0

    def test_overweight_zero(self):
        assert multiplicity(Partition([1]), 2, 5) == 0

    def test_rejects_level_below_largest_part(self):
        with pytest.raises(ValueError):
            multiplicity(Partition([3]), 2, 1)

    @given(st.integers(1, 5), st.integers(0, 4), st.integers(0, 12))
    @settings(max_examples=80, deadline=None)
    def test_matches_direct_extraction(self, m, length, n):
        parts = tuple(sorted((1 + (i * 7) % m for i in range(length)), reverse=True))
        xi = Partition(parts)
        value = multiplicity(xi, m, n)
        gap = xi.size - n
        if gap < 0 or gap % 2:
            assert value == 0
        else:
            sp = make_spec(xi, m, n)
            assert value == expand(sp, gap // 2).coeffs.coeffs[gap // 2]


@st.composite
def grids(draw):
    """A partition, a level and a grid of n: negative n, odd gaps, n above
    |xi|, repeats, any order, and parts equal to m so that k <= 0 occurs."""
    m = draw(st.integers(1, 9))
    parts = draw(st.lists(st.integers(1, m), max_size=7))
    size = sum(parts)
    ns = draw(st.lists(st.integers(-3, size + 3), max_size=12))
    return Partition(sorted(parts, reverse=True)), m, ns


class TestMultiplicities:
    """One pass over a grid against one expansion per n."""

    @given(grids())
    @settings(max_examples=80, deadline=None)
    def test_matches_expand_per_n(self, grid):
        xi, m, ns = grid
        got = multiplicities(xi, m, ns)
        assert len(got) == len(ns)
        for n, value in zip(ns, got):
            gap = xi.size - n
            if n < 0 or gap < 0 or gap % 2:
                assert value == 0
                continue
            idx = gap // 2
            sp = make_spec(xi, m, n)
            assert value == expand(sp, idx).coeffs.coeffs[idx], (n, sp.k)
            if sp.k >= 0:
                assert value == signed_coefficient(sp, idx), (n, sp.k)
            assert value == multiplicity(xi, m, n)

    def test_deep_chain(self):
        # k climbs to 9 along the grid; each row against its own expansion
        xi = Partition([4] * 9 + [3, 3])
        ns = list(range(0, xi.size + 1, 2))
        got = multiplicities(xi, 5, ns)
        for n, value in zip(ns, got):
            idx = (xi.size - n) // 2
            assert value == expand(make_spec(xi, 5, n), idx).coeffs.coeffs[idx]
        assert make_spec(xi, 5, ns[-1]).k == 9

    def test_empty_grid(self):
        assert multiplicities(Partition([2, 1]), 2, []) == []

    def test_rejects_oversize_part(self):
        with pytest.raises(ValueError):
            multiplicities(Partition([3]), 2, [1])
