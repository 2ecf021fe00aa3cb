"""Cross-validation sweeps: every value the library reports is recomputed
along an independent route and compared exactly.

Suites cover matchings against the closed form, transfer-matrix walk
counts against depth-first search, the walk generating function, the
walk/Dyck bijection, three-way coefficient agreement (division, signed
formula, Dyck product model), family formulas against the signed formula
(or, for a polynomial quotient, plain multiplicity extraction), the
symbolic continuant identity, and frozen golden fixtures.

Each suite is a function named after the suite.  The sized ones take
their sizes as parameters whose defaults are what ``chebflag verify``
runs; the acceptance gate calls the same functions at its own sizes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from importlib import resources

from .chebpoly import Partition, p_poly
from .families import (
    FamilyQuery,
    family_multiplicity,
    find_pair_decomposition,
    product_model_vectors,
)
from .pathcomb import (
    DyckConstraint,
    dyck_counts,
    enumerate_dyck,
    enumerate_matchings,
    enumerate_strip_walks,
    continuant_det,
    dyck_to_walk,
    full_height_count,
    matching_count,
    strip_walk_count,
    strip_walk_count_dfs,
    strip_walk_counts,
    walk_to_dyck,
)
from .quotient import (expand, make_spec, multiplicity, signed_coefficient,
                       signed_vectors)
from .series import poly_mul, product_coeff, series_div_unit

__all__ = [
    "SuiteResult",
    "run_all",
    "default_golden_path",
    "matchings",
    "walk_counts",
    "walk_quotient",
    "bijection",
    "three_way",
    "families",
    "continuant",
    "golden",
]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checks: int
    failures: int
    first_counterexample: str | None = None

    @property
    def ok(self) -> bool:
        return self.failures == 0


class _Tally:
    def __init__(self, name: str) -> None:
        self.name = name
        self.checks = 0
        self.failures = 0
        self.first: str | None = None

    def check(self, ok: bool, detail: str) -> None:
        self.checks += 1
        if not ok:
            self.failures += 1
            if self.first is None:
                self.first = detail

    def result(self) -> SuiteResult:
        return SuiteResult(self.name, self.checks, self.failures, self.first)


def matchings() -> SuiteResult:
    t = _Tally("matchings")
    for r in range(13):
        for j in range(7):
            got = len(enumerate_matchings(r, j))
            want = matching_count(r, j)
            t.check(got == want, f"r={r} j={j}: enumerated {got}, closed form {want}")
    return t.result()


def walk_counts(
    rng: random.Random | None, max_m: int = 4, max_len: int = 10, extras: int = 60
) -> SuiteResult:
    """Transfer matrix against depth-first search on every cell m <= max_m,
    L <= max_len and on ``extras`` random cells drawn from rng; walks of
    length <= 14 are also enumerated one by one."""
    t = _Tally("walk_counts")
    cells = [
        (m, a, b, L, tm)
        for m in range(1, max_m + 1)
        for a in range(m)
        for b in range(m)
        for L, tm in enumerate(strip_walk_counts(m, a, b, max_len))
    ]
    for _ in range(extras):
        m = rng.randint(2, 6)
        a, b, L = rng.randrange(m), rng.randrange(m), rng.randint(0, 14)
        cells.append((m, a, b, L, strip_walk_count(m, a, b, L)))
    for m, a, b, L, tm in cells:
        dfs = strip_walk_count_dfs(m, a, b, L)
        t.check(tm == dfs, f"m={m} a={a} b={b} L={L}: transfer {tm}, dfs {dfs}")
        if L <= 14:
            enum = len(enumerate_strip_walks(m, a, b, L))
            t.check(tm == enum, f"m={m} a={a} b={b} L={L}: transfer {tm}, enum {enum}")
    return t.result()


def walk_quotient() -> SuiteResult:
    """Coefficients of p_a p_{m-1-b} / p_m against strip walk counts from
    a to b, for a <= b < m <= 6 through x^10."""
    t = _Tally("walk_quotient")
    for m in range(1, 7):
        pm = p_poly(m)
        for a in range(m):
            for b in range(a, m):
                series = series_div_unit(
                    poly_mul(p_poly(a), p_poly(m - 1 - b)), pm, 10
                )
                walks = strip_walk_counts(m, a, b, b - a + 20)[b - a :: 2]
                for r, (got, want) in enumerate(zip(series.coeffs, walks)):
                    t.check(
                        got == want,
                        f"m={m} a={a} b={b} r={r}: series {got}, walks {want}",
                    )
    return t.result()


def bijection(max_u: int = 3) -> SuiteResult:
    """The walk/Dyck bijection for m <= 5 and excess u <= max_u: equal
    counts, the image of the walks is exactly the enumerated paths, and
    dyck_to_walk undoes walk_to_dyck on every walk.  The last check makes
    walk_to_dyck injective, and with the image check, a bijection whose
    inverse is dyck_to_walk."""
    t = _Tally("bijection")
    for m in range(1, 6):
        for a in range(m):
            for b in range(m - a):
                for u, count in enumerate(dyck_counts(DyckConstraint(m, a, b, max_u))):
                    c = DyckConstraint(m, a, b, u)
                    walks = enumerate_strip_walks(m, a, m - 1 - b, c.walk_length)
                    paths = enumerate_dyck(c)
                    t.check(
                        len(walks) == len(paths) == count,
                        f"{c}: {len(walks)} walks, {len(paths)} paths, count {count}",
                    )
                    images = {walk_to_dyck(w, c) for w in walks}
                    t.check(
                        images == set(paths),
                        f"{c}: image set differs from enumerated paths",
                    )
                    for w in walks:
                        t.check(
                            dyck_to_walk(walk_to_dyck(w, c), c) == w,
                            f"{c}: round trip broke on {w.heights}",
                        )
    return t.result()


def _random_spec(rng: random.Random):
    while True:
        m = rng.randint(1, 5)
        parts = sorted(
            (rng.randint(1, m) for _ in range(rng.randint(0, 4))), reverse=True
        )
        mu = rng.randint(0, 3 * m)
        sp = make_spec(Partition(parts), m, mu)
        if 0 <= sp.k <= 3:
            return sp


def three_way(rng: random.Random, spec_count: int = 60, order: int = 10) -> SuiteResult:
    """Division, the signed formula and, where a pair decomposition
    exists, the Dyck product model on a_0..a_order of spec_count random
    specs with m <= 5 and 0 <= k <= 3.  Each spec's signed and product
    vectors are built once, through x^order, and every a_r is read from
    them."""
    t = _Tally("three_way")
    for _ in range(spec_count):
        sp = _random_spec(rng)
        report = expand(sp, order)
        signed_vecs = signed_vectors(sp, order)
        dec = find_pair_decomposition(sp) if sp.k >= 1 else None
        product_vecs = None if dec is None else product_model_vectors(dec, order)
        for r in range(order + 1):
            division = report.coeffs.coeffs[r]
            signed = product_coeff(signed_vecs, r)
            t.check(
                division == signed,
                f"xi={sp.xi.parts} m={sp.m} mu={sp.mu} r={r}: "
                f"division {division}, signed {signed}",
            )
            if product_vecs is not None:
                product = product_coeff(product_vecs, r)
                t.check(
                    division == product,
                    f"xi={sp.xi.parts} m={sp.m} mu={sp.mu} r={r}: "
                    f"division {division}, product {product}",
                )
    return t.result()


def families(rng: random.Random) -> SuiteResult:
    """family_multiplicity of 80 random family queries with m <= 5 and
    N <= 8 against a route that never divides by p_m."""
    t = _Tally("families")
    queries: list[FamilyQuery] = []
    for _ in range(80):
        m = rng.randint(1, 5)
        t_, s = rng.randint(0, 2), rng.randint(0, 2 * m)
        N = rng.randint(0, 8)
        kind = rng.choice("abc") if m >= 2 else "a"
        if kind == "a":
            queries.append(FamilyQuery("a", m, t_, s, N=N))
        elif kind == "b":
            queries.append(FamilyQuery("b", m, t_, s, r=rng.randint(1, m - 1), N=N))
        else:
            d = rng.randint(2, 3)
            rs = tuple(rng.randint(1, m - 1) for _ in range(d))
            queries.append(FamilyQuery("c", m, t_, s, rs=rs, N=N))
    for fq in queries:
        got = family_multiplicity(fq)
        xi = fq.partition()
        n = xi.size - 2 * fq.N
        want = 0
        if n >= 0:
            # the signed formula shares no division with family_multiplicity;
            # multiplicity divides by nothing when k < 0
            sp = make_spec(xi, fq.m, n)
            want = (signed_coefficient(sp, fq.N) if sp.k >= 0
                    else multiplicity(xi, fq.m, n))
        q, _ = fq.q_rho
        if q < 0:
            t.check(got == 0, f"{fq}: q<0 must vanish, got {got}")
        t.check(got == want, f"{fq}: direct formula {got}, recomputed {want}")
    return t.result()


def continuant() -> SuiteResult:
    t = _Tally("continuant")
    for m in range(1, 9):
        det = continuant_det(m)
        pm = p_poly(m)
        want = tuple(
            pm.coeffs[i // 2] if i % 2 == 0 else 0
            for i in range(2 * pm.degree + 1)
        )
        t.check(
            det.coeffs == want,
            f"m={m}: det {det.coeffs}, substituted {want}",
        )
    return t.result()


def default_golden_path() -> str:
    return str(resources.files("chebflag").joinpath("data/golden.json"))


def golden(path: str) -> SuiteResult:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        return _check_golden(data)
    except (TypeError, AttributeError, KeyError) as exc:
        # a fixture of the wrong shape: a section that is not a list of
        # objects, a missing key, or a field of the wrong type
        raise ValueError(
            f"malformed golden fixture {path}: {type(exc).__name__}: {exc}"
        ) from exc


def _check_golden(data) -> SuiteResult:
    t = _Tally("golden")
    for case in data["matchings"]:
        got = [
            [list(edge) for edge in m]
            for m in enumerate_matchings(case["r"], case["j"])
        ]
        t.check(got == case["expect"], f"matchings {case['r']},{case['j']}: {got}")
    for case in data["strip_walks"]:
        got = [
            list(w.heights)
            for w in enumerate_strip_walks(case["m"], case["a"], case["b"], case["L"])
        ]
        t.check(got == case["expect"], f"walks {case}: {got}")
    for case in data["dyck"]:
        got = [
            p.word
            for p in enumerate_dyck(
                DyckConstraint(case["m"], case["a"], case["b"], case["u"])
            )
        ]
        t.check(got == case["expect"], f"dyck {case}: {got}")
    for case in data["full_height"]:
        got = [str(full_height_count(case["m"], u)) for u in range(len(case["values"]))]
        t.check(got == case["values"], f"full_height m={case['m']}: {got}")
    for case in data["expansions"]:
        sp = make_spec(Partition(case["xi"]), case["m"], case["mu"])
        got = [str(c) for c in expand(sp, case["order"]).coeffs.coeffs]
        t.check(got == case["coeffs"], f"expansion {case['xi']},{case['m']},{case['mu']}: {got}")
    return t.result()


def run_all(seed: int, golden_path: str | None = None) -> list[SuiteResult]:
    rng = random.Random(seed)
    return [
        matchings(),
        walk_counts(rng),
        walk_quotient(),
        bijection(),
        three_way(rng),
        families(rng),
        continuant(),
        golden(golden_path or default_golden_path()),
    ]
