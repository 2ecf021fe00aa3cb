import dataclasses
import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from _reference import p_partition, pair_product, spec_of
from chebflag.families import (
    FamilyQuery,
    PairDecomposition,
    family_multiplicity,
    family_kind_of,
    family_quotient,
    find_pair_decomposition,
    product_model_coeff,
)
from chebflag.pathcomb import DyckConstraint, dyck_count
from chebflag import families, quotient, verify
from chebflag.quotient import expand, multiplicity


def reference_product_model(dec, r):
    """The product model counted the long way: each D_m(a, b; u) on its
    own, then the full convolution through x^r over every pair."""
    vec = [1] + [0] * r
    for a, b in dec.pairs:
        counts = [dyck_count(DyckConstraint(dec.m, a, b, u)) for u in range(r + 1)]
        vec = [
            sum(vec[i] * counts[n - i] for i in range(n + 1)) for n in range(r + 1)
        ]
    return vec[r]


@st.composite
def decompositions(draw):
    # pairs drawn from a pool of at most three, so repeats are common
    m = draw(st.integers(1, 9))
    pair = st.integers(0, m - 1).flatmap(
        lambda a: st.tuples(st.just(a), st.integers(0, m - 1 - a))
    )
    pool = draw(st.lists(pair, min_size=1, max_size=3))
    pairs = draw(st.lists(st.sampled_from(pool), max_size=5))
    return PairDecomposition(m, tuple(pairs))


class TestPairDecomposition:
    def test_validation(self):
        with pytest.raises(ValueError):
            PairDecomposition(3, ((1, 2),))
        with pytest.raises(ValueError):
            PairDecomposition(2, ((0, 2),))
        with pytest.raises(ValueError):
            PairDecomposition(0, ())

    def test_product(self):
        dec = PairDecomposition(3, ((2, 0), (0, 0)))
        assert dec.k == 2
        assert pair_product(dec).coeffs == (1, -1)

    def test_find_trivial_pair(self):
        dec = find_pair_decomposition(spec_of([1], 2, 1))
        assert dec is not None and dec.pairs == ((0, 0),)

    def test_find_single_index(self):
        dec = find_pair_decomposition(spec_of([2], 3, 2))
        assert dec is not None and dec.pairs == ((2, 0),)

    def test_find_needs_first_single(self):
        # (4,3,2) into two slots under limit 5 only works as (4,0),(3,2)
        dec = find_pair_decomposition(spec_of([4, 3, 2], 6, 11))
        assert dec is not None and dec.pairs == ((4, 0), (3, 2))

    def test_none_when_too_many_indices(self):
        assert find_pair_decomposition(spec_of([3, 2], 4, 1)) is None

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            find_pair_decomposition(spec_of([2, 2], 2, 0))

    def test_zero_padding(self):
        dec = find_pair_decomposition(spec_of([], 2, 3))
        assert dec is not None and dec.pairs == ((0, 0), (0, 0))

    def test_product_always_matches_numerator(self):
        for m in range(2, 6):
            for parts in itertools.combinations_with_replacement(
                range(1, m + 1), 3
            ):
                for mu in range(0, 2 * m):
                    sp = spec_of(sorted(parts, reverse=True), m, mu)
                    if sp.k <= 0:
                        continue
                    dec = find_pair_decomposition(sp)
                    if dec is not None:
                        assert dec.k == sp.k
                        assert pair_product(dec) == p_partition(sp.alphas)


class TestProductModel:
    def test_single_free_pair(self):
        # D_3(0,0;u) = 2^u
        dec = PairDecomposition(3, ((0, 0),))
        assert [product_model_coeff(dec, r) for r in range(4)] == [1, 2, 4, 8]

    def test_two_pair_convolution(self):
        dec = PairDecomposition(3, ((0, 0), (0, 0)))
        assert product_model_coeff(dec, 1) == 4

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            product_model_coeff(PairDecomposition(2, ((0, 0),)), -1)

    def test_matches_division_route(self):
        for parts, m, mu in [((1,), 2, 1), ((2,), 3, 2), ((3, 2), 6, 11)]:
            sp = spec_of(parts, m, mu)
            dec = find_pair_decomposition(sp)
            assert dec is not None
            cs = expand(sp, 8).coeffs.coeffs
            for r in range(9):
                assert product_model_coeff(dec, r) == cs[r]

    def test_no_pairs(self):
        dec = PairDecomposition(3, ())
        assert [product_model_coeff(dec, r) for r in range(4)] == [1, 0, 0, 0]

    @given(decompositions(), st.integers(0, 60))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, dec, r):
        assert product_model_coeff(dec, r) == reference_product_model(dec, r)

    def test_matches_expand_through_300(self):
        # crosscheck asks for coefficients up to 300
        for fq in [
            FamilyQuery("a", 5, 1, 7),
            FamilyQuery("b", 6, 1, 3, r=4),
            FamilyQuery("c", 7, 1, 6, rs=(5, 3)),
        ]:
            model = family_quotient(fq)
            dec = model.decomposition
            assert dec is not None and dec.k >= 2
            cs = expand(model.spec, 300).coeffs.coeffs
            for r in range(301):
                assert product_model_coeff(dec, r) == cs[r], (fq, r)

    def test_one_count_per_distinct_pair(self, monkeypatch):
        import chebflag.families

        real = chebflag.families.dyck_counts
        seen = []

        def counting(c):
            seen.append((c.a, c.b))
            return real(c)

        monkeypatch.setattr(chebflag.families, "dyck_counts", counting)
        dec = PairDecomposition(6, ((0, 2),) + ((0, 0),) * 8)
        assert product_model_coeff(dec, 40) == reference_product_model(dec, 40)
        assert sorted(seen) == [(0, 0), (0, 2)]

    def test_independent_of_division(self, monkeypatch):
        # the product model counts walks only: it must not reach the
        # products, divisions or p recurrence that expand is built from
        specs = [spec_of([1], 2, 1), spec_of([3, 2], 6, 11),
                 spec_of([], 3, 6), spec_of([4, 2], 5, 16)]
        decs = [find_pair_decomposition(sp) for sp in specs]
        assert [dec.k for dec in decs] == [1, 2, 3, 4]
        want = [expand(sp, 20).coeffs.coeffs for sp in specs]

        def refuse(*args, **kwargs):
            raise AssertionError("product model reached the division route")

        for name, module in list(sys.modules.items()):
            if name == "chebflag" or name.startswith("chebflag."):
                for attr in ("poly_prod", "series_div_unit", "p_poly"):
                    if hasattr(module, attr):
                        monkeypatch.setattr(module, attr, refuse)
        for dec, cs in zip(decs, want):
            assert [product_model_coeff(dec, r) for r in range(21)] == list(cs)


class TestFamilyQuery:
    def test_validation(self):
        with pytest.raises(ValueError):
            FamilyQuery("z", 2, 0, 0)
        with pytest.raises(ValueError):
            FamilyQuery("a", 2, 0, 0, r=1)
        with pytest.raises(ValueError):
            FamilyQuery("b", 2, 0, 0)
        with pytest.raises(ValueError):
            FamilyQuery("b", 3, 0, 0, r=3)
        with pytest.raises(ValueError):
            FamilyQuery("c", 3, 0, 0)
        with pytest.raises(ValueError):
            FamilyQuery("c", 4, 0, 0, rs=(4,))
        with pytest.raises(ValueError):
            FamilyQuery("a", 2, 0, 0, N=-1)

    def test_euclidean_split(self):
        fq = FamilyQuery("a", 3, 1, 7, N=1)
        assert fq.q_rho == (1, 2)
        fq = FamilyQuery("a", 2, 3, 1, N=2)
        assert fq.q_rho == (-2, 1)

    def test_partition_shape(self):
        fq = FamilyQuery("c", 4, 2, 3, rs=(2, 3))
        assert fq.partition().parts == (4, 4, 3, 2, 1, 1, 1)
        assert fq.middles == (3, 2)
        assert fq.base == 8


class TestFamilyQuotient:
    def test_kind_a_pairs(self):
        model = family_quotient(FamilyQuery("a", 2, 1, 2, N=0))
        assert model.decomposition is not None
        assert model.decomposition.pairs == ((0, 1), (0, 0))
        assert model.note == ""

    def test_kind_b_positive_q(self):
        model = family_quotient(FamilyQuery("b", 4, 0, 6, r=2, N=1))
        # base 8, shift 2: q, rho = divmod(6, 4) = (1, 2)
        assert model.decomposition is not None
        assert model.decomposition.pairs == ((0, 1), (2, 0))

    def test_kind_b_boundary_single_pair(self):
        model = family_quotient(FamilyQuery("b", 4, 1, 3, r=2, N=1))
        # base 5, shift 2: q, rho = (0, 3), rho >= r so one pair fits
        assert model.decomposition is not None
        assert model.decomposition.pairs == ((2, 0),)
        assert model.note == ""

    def test_kind_b_boundary_no_model(self):
        model = family_quotient(FamilyQuery("b", 4, 1, 1, r=2, N=1))
        # base 3, shift 2: q, rho = (0, 1), rho < r
        assert model.decomposition is None
        assert "no unsigned model" in model.note

    def test_kind_c_enough_room(self):
        model = family_quotient(FamilyQuery("c", 4, 0, 8, rs=(3, 2), N=1))
        # base 13, shift 2: q, rho = divmod(11, 4) = (2, 3)
        assert model.decomposition is not None
        assert model.decomposition.pairs == ((0, 0), (3, 0), (2, 0))

    def test_kind_c_too_few_slots(self):
        model = family_quotient(FamilyQuery("c", 4, 0, 4, rs=(3, 2), N=2))
        # base 9, shift 4: q, rho = divmod(5, 4) = (1, 1) and d = 2
        assert model.decomposition is None
        assert "q = 1 < d = 2" in model.note

    def test_rejects_negative_q(self):
        with pytest.raises(ValueError):
            family_quotient(FamilyQuery("a", 2, 3, 1, N=2))

    def test_pairs_multiply_to_numerator_on_grid(self):
        queries = []
        for m in range(1, 6):
            middles = [("a", None, ())] + [("b", r, ()) for r in range(1, m)]
            middles += [("c", None, rs) for d in (2, 3)
                        for rs in itertools.combinations_with_replacement(
                            range(1, m), d)]
            for kind, r, rs in middles:
                for t, s, N in itertools.product(
                    range(2), range(2 * m + 1), [None, *range(m + 1)]
                ):
                    fq = FamilyQuery(kind, m, t, s, r=r, rs=rs, N=N)
                    if fq.q_rho[0] >= 0:
                        queries.append(fq)
        listed = 0
        for fq in queries:
            model = family_quotient(fq)
            dec = model.decomposition
            if dec is None:
                assert model.note, fq
                continue
            listed += 1
            assert len(dec.pairs) == model.spec.k, fq
            assert pair_product(dec) == p_partition(model.spec.alphas), fq
        assert listed > 2000

    def test_spec_exponent_matches_q(self):
        for fq in [
            FamilyQuery("a", 3, 2, 8, N=1),
            FamilyQuery("b", 5, 1, 6, r=3, N=2),
            FamilyQuery("c", 5, 0, 7, rs=(4, 2), N=1),
        ]:
            q, _ = fq.q_rho
            model = family_quotient(fq)
            assert model.spec.k == q + 1


class TestFamilyMultiplicity:
    def test_requires_index(self):
        with pytest.raises(ValueError):
            family_multiplicity(FamilyQuery("a", 2, 1, 2))

    def test_negative_q_vanishes(self):
        fq = FamilyQuery("a", 2, 3, 1, N=2)
        assert family_multiplicity(fq) == 0
        # the raw expansion agrees
        xi = fq.partition()
        assert multiplicity(xi, 2, xi.size - 4) == 0

    def test_boundary_identity_is_a_path_count(self):
        # kind b at q = 0 with 2N <= s: the value is one Dyck count
        for m, r, s, N in [(4, 2, 3, 1), (5, 3, 4, 2), (3, 2, 2, 1)]:
            fq = FamilyQuery("b", m, 1, s, r=r, N=N)
            q, rho = fq.q_rho
            assert q == 0 and rho >= r
            want = dyck_count(DyckConstraint(m, r, m - rho - 1, N))
            assert family_multiplicity(fq) == want

    def test_no_model_value_still_stands(self):
        fq = FamilyQuery("b", 4, 1, 1, r=2, N=1)
        model = family_quotient(fq)
        assert model.decomposition is None
        xi = fq.partition()
        assert family_multiplicity(fq) == multiplicity(xi, 4, xi.size - 2)

    def test_agrees_with_multiplicity_everywhere(self):
        queries = []
        for m in (2, 3, 4):
            for t in range(3):
                for s in range(5):
                    for N in range(4):
                        queries.append(FamilyQuery("a", m, t, s, N=N))
                        for r in range(2, m):
                            queries.append(FamilyQuery("b", m, t, s, r=r, N=N))
        for m in (3, 4):
            for rs in [(2, 2), (m - 1, 2)]:
                for s in range(4):
                    for N in range(3):
                        queries.append(FamilyQuery("c", m, 0, s, rs=rs, N=N))
        assert len(queries) > 300
        for fq in queries:
            xi = fq.partition()
            n = xi.size - 2 * fq.N
            assert family_multiplicity(fq) == multiplicity(xi, fq.m, n), fq


class TestFamilyKind:
    def test_classification(self):
        assert family_kind_of((3, 3, 1, 1), 3) == "a"
        assert family_kind_of((3, 2, 1), 3) == "b"
        assert family_kind_of((4, 3, 2, 1), 4) == "c"
        assert family_kind_of((), 2) == "a"


class TestVerifyFamiliesSuite:
    def test_catches_a_broken_division_chain(self, monkeypatch):
        assert all(verify.families(random.Random(seed)).ok for seed in range(20))
        # divide by at most p_m^2, and drop every pair decomposition, which
        # turns off family_multiplicity's own product-model recount: the
        # suite must still see wrong values through a route of its own
        real_over_pm, real_quotient = quotient._over_pm, families.family_quotient
        monkeypatch.setattr(quotient, "_over_pm", lambda factors, m, wants: real_over_pm(
            factors, m, [(min(k, 2), top) for k, top in wants]))
        monkeypatch.setattr(families, "family_quotient", lambda fq: dataclasses.replace(
            real_quotient(fq), decomposition=None))
        caught = [not verify.families(random.Random(seed)).ok for seed in range(20)]
        assert sum(caught) >= 19
