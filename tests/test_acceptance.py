"""Acceptance gate: nine executable criteria, one printed pass/fail line
each.  Run directly (python3 tests/test_acceptance.py) or with pytest -s
to see the lines; every criterion states its check count, elapsed time,
and time budget.
"""

import math
import random
import sys
import time

from _reference import p_partition, root_brackets
from chebflag import verify
from chebflag.chebpoly import Partition, p_poly
from chebflag.families import FamilyQuery, family_multiplicity
from chebflag.pathcomb import (
    DyckConstraint,
    enumerate_dyck,
    enumerate_strip_walks,
    full_height_count,
    strip_walk_count_dfs,
)
from chebflag.quotient import (
    classify,
    expand,
    make_spec,
    multiplicity,
    positivity_threshold,
)
from chebflag.series import IntPolynomial, poly_mul, poly_pow, series_div_unit


def _report(num: int, name: str, budget: float, body) -> None:
    t0 = time.perf_counter()
    fail = None
    checks = 0
    try:
        checks = body()
    except AssertionError as exc:
        fail = str(exc) or "assertion failed"
    dt = time.perf_counter() - t0
    if fail is None and dt >= budget:
        fail = f"budget exceeded: {dt:.2f}s >= {budget:g}s"
    verdict = "PASS" if fail is None else "FAIL"
    tail = "" if fail is None else f" :: {fail}"
    print(
        f"[{verdict}] criterion {num}: {name} "
        f"({checks} checks, {dt:.2f}s, budget {budget:g}s){tail}",
        flush=True,
    )
    assert fail is None, f"criterion {num}: {fail}"


def _c1_matching_coefficients() -> int:
    checks = 0
    for r in range(25):
        p = p_poly(r)
        assert p.degree == r // 2, r
        for j in range(r // 2 + 1):
            assert p[j] == (-1) ** j * math.comb(r - j, j), (r, j)
            checks += 1
    return checks


def _passed(*results) -> int:
    for r in results:
        assert r.ok, (
            f"{r.name}: {r.failures} of {r.checks} checks failed, "
            f"first: {r.first_counterexample}"
        )
    return sum(r.checks for r in results)


def _c2_walk_quotient_three_routes() -> int:
    # series against transfer matrix on 616 cells, and transfer matrix
    # against DFS on every cell those read (m <= 6, L <= 25)
    return _passed(
        verify.walk_quotient(),
        verify.walk_counts(None, max_m=6, max_len=25, extras=0),
    )


def _c3_continuant_identity() -> int:
    return _passed(verify.continuant())


def _c4_bijection_exact() -> int:
    return _passed(verify.bijection(max_u=4))


def _c5_three_way_agreement() -> int:
    return _passed(
        verify.three_way(random.Random(20260816), spec_count=200, order=12)
    )


_POLYNOMIAL_SPECS = [
    ((2, 2), 2, 0),
    ((2, 2, 2), 2, 1),
    ((3, 3), 3, 0),
    ((3, 3, 3), 3, 2),
    ((4, 4, 4), 4, 3),
    ((5, 5), 5, 1),
]

# 20 eventually-positive specs with their verified positivity onsets:
# every coefficient from r0 through 120 is strictly positive
_REGRESSION_SET = [
    ((), 2, 0, 0),
    ((1,), 2, 1, 0),
    ((2, 1), 2, 2, 0),
    ((2, 2, 1), 2, 4, 0),
    ((), 2, 4, 0),
    ((1, 1), 3, 2, 0),
    ((2,), 3, 2, 0),
    ((3, 2, 2), 3, 5, 2),
    ((2, 2, 2), 3, 6, 0),
    ((3, 2), 4, 1, 2),
    ((3, 3, 2), 4, 4, 2),
    ((4, 3), 4, 5, 2),
    ((3, 3, 3, 1), 4, 6, 2),
    ((4, 4, 3), 5, 7, 2),
    ((4,), 5, 0, 4),
    ((5, 4, 4), 5, 6, 4),
    ((5, 5, 5), 6, 1, 9),
    ((5, 5, 5, 5), 6, 2, 10),
    ((6, 5, 5, 5), 6, 6, 10),
    ((5, 5, 5, 5), 6, 6, 9),
]


def _c6_dichotomy_conformance() -> int:
    checks = 0
    for parts, m, mu in _POLYNOMIAL_SPECS:
        sp = make_spec(Partition(parts), m, mu)
        pc = classify(sp)
        assert pc.kind == "polynomial", (parts, m, mu)
        rep = expand(sp, pc.degree_bound + 12)
        tail = rep.coeffs.coeffs[pc.degree_bound + 1 :]
        assert all(c == 0 for c in tail), (parts, m, mu)
        back = poly_mul(
            IntPolynomial(rep.coeffs.coeffs), poly_pow(p_poly(m), sp.mu1 + 1)
        )
        assert back == poly_mul(p_poly(m - sp.mu0 - 1), p_partition(sp.xi))
        checks += 1
    for parts, m, mu, want_r0 in _REGRESSION_SET:
        sp = make_spec(Partition(parts), m, mu)
        assert classify(sp).kind == "eventually_positive", (parts, m, mu)
        r0 = positivity_threshold(sp, 120)
        assert r0 == want_r0, (parts, m, mu, r0, want_r0)
        cs = expand(sp, 120).coeffs.coeffs
        assert all(c > 0 for c in cs[r0:]), (parts, m, mu)
        checks += 1
    for parts, mu in [((), 0), ((1, 1), 3), ((1,), 7)]:
        cs = expand(make_spec(Partition(parts), 1, mu), 50).coeffs.coeffs
        assert cs == (1,) + (0,) * 50, (parts, mu)
        checks += 1
    return checks


# eventually positive specs, m <= 4: a_{r+1}/a_r converges to 1/rho_1.
# A simple pole (k = 1) converges geometrically; a pole of order k >= 2
# carries r^(k-1), which leaves an offset of about (k-1)/(r*rho_1)
_RATIO_SPECS = [
    ((1,), 2, 1),
    ((), 2, 1),
    ((1, 1), 3, 2),
    ((2,), 3, 2),
    ((3, 2), 4, 1),
    ((1,), 4, 3),
    ((3, 3), 4, 2),
    ((), 2, 2),
    ((1, 1), 3, 5),
    ((2, 2, 2), 3, 6),
    ((), 4, 11),
]


def _c7_pole_ratio() -> int:
    checks = 0
    for parts, m, mu in _RATIO_SPECS:
        sp = make_spec(Partition(parts), m, mu)
        assert classify(sp).kind == "eventually_positive", (parts, m, mu)
        cs = expand(sp, 121).coeffs.coeffs
        rho1 = root_brackets(m, 60)[0] / 2**60
        errs = [abs(cs[r + 1] / cs[r] - 1.0 / rho1) for r in range(80, 121)]
        avg = sum(errs) / len(errs)
        if sp.k == 1:
            assert avg < 1e-3, (parts, m, mu, avg)
        else:
            predicted = (sp.k - 1) / (100 * rho1)  # at the window's middle
            assert abs(avg - predicted) < 0.1 * predicted, (parts, m, mu, avg)
        checks += 1
    return checks


def _c8_family_edges() -> int:
    checks = 0
    vanishing = [
        FamilyQuery("a", 2, 3, 1, N=2),
        FamilyQuery("b", 3, 2, 1, r=2, N=2),
        FamilyQuery("c", 4, 2, 0, rs=(3, 2), N=3),
        FamilyQuery("a", 5, 1, 12, N=7),
    ]
    for fq in vanishing:
        q, _ = fq.q_rho
        assert q < 0, fq
        assert family_multiplicity(fq) == 0, fq
        xi = fq.partition()
        n = xi.size - 2 * fq.N
        assert n >= 0, "edge case must exercise a real expansion"
        assert multiplicity(xi, fq.m, n) == 0, fq
        checks += 1
    boundary = [(4, 2, 1, 3, 1), (5, 3, 0, 4, 2), (3, 2, 2, 2, 1), (6, 4, 0, 5, 2)]
    for m, r, t, s, N in boundary:
        fq = FamilyQuery("b", m, t, s, r=r, N=N)
        q, rho = fq.q_rho
        assert q == 0 and 2 * N <= s, (m, r, t, s, N)
        c = DyckConstraint(m, r, m - r - s + 2 * N - 1, N)
        want = len(enumerate_dyck(c))
        assert family_multiplicity(fq) == want, (m, r, t, s, N, want)
        checks += 1
    return checks


def _c9_known_series() -> int:
    checks = 0
    for m, closed in ((2, lambda u: 1), (3, lambda u: 2**u)):
        series = series_div_unit(IntPolynomial((1,)), p_poly(m), 10).coeffs
        for u in range(11):
            want = closed(u)
            L = m - 1 + 2 * u
            assert series[u] == want, (m, u)
            assert full_height_count(m, u) == want, (m, u)
            assert strip_walk_count_dfs(m, 0, m - 1, L) == want, (m, u)
            assert len(enumerate_strip_walks(m, 0, m - 1, L)) == want, (m, u)
            checks += 1
    return checks


_CRITERIA = [
    (1, "closed form matches recurrence", 1.0, _c1_matching_coefficients),
    (2, "walk quotient, three routes", 5.0, _c2_walk_quotient_three_routes),
    (3, "continuant determinant identity", 1.0, _c3_continuant_identity),
    (4, "walk/Dyck bijection exact", 10.0, _c4_bijection_exact),
    (5, "three-way coefficient agreement", 60.0, _c5_three_way_agreement),
    (6, "dichotomy conformance", 30.0, _c6_dichotomy_conformance),
    (7, "pole ratio convergence", 30.0, _c7_pole_ratio),
    (8, "family formula edge cases", 30.0, _c8_family_edges),
    (9, "known series values", 1.0, _c9_known_series),
]


def test_criterion_1():
    _report(*_CRITERIA[0])


def test_criterion_2():
    _report(*_CRITERIA[1])


def test_criterion_3():
    _report(*_CRITERIA[2])


def test_criterion_4():
    _report(*_CRITERIA[3])


def test_criterion_5():
    _report(*_CRITERIA[4])


def test_criterion_6():
    _report(*_CRITERIA[5])


def test_criterion_7():
    _report(*_CRITERIA[6])


def test_criterion_8():
    _report(*_CRITERIA[7])


def test_criterion_9():
    _report(*_CRITERIA[8])


if __name__ == "__main__":
    failures = 0
    for item in _CRITERIA:
        try:
            _report(*item)
        except AssertionError:
            failures += 1
    sys.exit(1 if failures else 0)
