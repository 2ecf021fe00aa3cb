"""The normalized quotient F = prod p_alpha / p_m^k, its exact expansion,
the eventual-positivity trichotomy with a proved positivity bound, the
signed coefficient formula, and multiplicity extraction.

Given a partition xi with parts <= m and a weight mu written as
mu = mu1*m + mu0, the quotient p_{m-mu0-1} * p_xi / p_m^(mu1+1) cancels
one p_m for every part equal to m.  What is left is tracked exactly:
numerator indices alphas (all < m) over p_m^k with k = mu1 + 1 - t.
Negative k means surplus cancellation and the quotient is a polynomial.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, Iterator

from .chebpoly import Partition, p_coeff_closed, p_poly
from .fusion import fold
from .pathcomb import DyckConstraint, dyck_counts
from .series import (IntPolynomial, TruncatedSeries, _div_coeffs, poly_prod,
                     product_coeff, series_div_unit)

__all__ = [
    "QuotientSpec",
    "PositivityClass",
    "CoefficientReport",
    "make_spec",
    "expand",
    "expand_decimal",
    "signed_vectors",
    "signed_coefficient",
    "classify",
    "positivity_bound",
    "positivity_threshold",
    "default_order",
    "coefficient_index",
    "multiplicity",
    "multiplicities",
]


@dataclass(frozen=True)
class QuotientSpec:
    """F for (xi, m, mu), checked on construction.  The Euclidean data of
    mu, the count t of parts equal to m, the net denominator exponent k
    and the numerator indices are derived on each read."""

    xi: Partition
    m: int
    mu: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("level m must be >= 1")
        if self.mu < 0:
            raise ValueError("mu must be nonnegative")
        if self.xi.length and self.xi.parts[0] > self.m:  # parts nonincreasing
            raise ValueError(f"part {self.xi.parts[0]} exceeds the level m={self.m}")

    @property
    def mu1(self) -> int:
        return self.mu // self.m

    @property
    def mu0(self) -> int:
        return self.mu % self.m

    @property
    def t(self) -> int:
        return self.xi.parts.count(self.m)

    @property
    def k(self) -> int:
        return self.mu1 + 1 - self.t

    @property
    def alphas(self) -> tuple[int, ...]:
        # parts are nonincreasing and at most m: the t parts equal to m lead
        return (self.m - self.mu0 - 1,) + self.xi.parts[self.t :]


@dataclass(frozen=True)
class PositivityClass:
    """One of constant_one, polynomial (with a degree bound), or
    eventually_positive."""

    kind: str
    degree_bound: int | None = None

    _KINDS = ("constant_one", "polynomial", "eventually_positive")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"kind must be one of {self._KINDS}")
        if (self.kind == "polynomial") != (self.degree_bound is not None):
            raise ValueError("degree_bound goes with the polynomial kind only")


@dataclass(frozen=True)
class CoefficientReport:
    """Exact coefficients a_0..a_order of the quotient a spec describes."""

    coeffs: TruncatedSeries


def make_spec(xi: Partition, m: int, mu: int) -> QuotientSpec:
    """Normalize (xi, m, mu) into a QuotientSpec.

    >>> sp = make_spec(Partition([2, 2]), 2, 0)
    >>> (sp.mu1, sp.mu0, sp.t, sp.k, sp.alphas)
    (0, 0, 2, -1, (1,))
    >>> sp = make_spec(Partition([1]), 2, 1)
    >>> (sp.mu1, sp.mu0, sp.t, sp.k, sp.alphas)
    (0, 1, 0, 1, (0, 1))
    """
    return QuotientSpec(xi, m, mu)


def _over_pm(factors: list[IntPolynomial], m: int,
             wants: list[tuple[int, int]]) -> Iterator[tuple[int, ...]]:
    """Coefficients of prod(factors) / p_m^k through x^top, for each
    (k, top) of wants in ascending k.  Each top is at most the first.

    The product is built once, through the first top.  For k <= 0 the
    denominator cancels and the product is multiplied by p_m^(-k).  For
    k > 0 one chain of truncated divisions by p_m is advanced through the
    ks and never restarted: the divisor keeps the small coefficients
    (-1)^j C(m-j, j) instead of the wide ones of p_m^k, and truncation
    commutes with the division, so each link holds exactly the
    coefficients of one division by p_m^k.
    """
    pm = p_poly(m)
    chain, layers = None, 0
    for k, top in wants:
        if chain is None:
            chain = poly_prod(factors, top)
        if k <= 0:
            yield poly_prod([chain] + [pm] * -k, top).coeffs
            continue
        while layers < k:
            chain = series_div_unit(chain, pm, top)
            layers += 1
        yield chain.coeffs


def expand(spec: QuotientSpec, order: int) -> CoefficientReport:
    """Exact coefficients a_0..a_order of F, built only through x^order;
    a polynomial F (k <= 0) is padded with zeros."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    cs = next(_over_pm([p_poly(a) for a in spec.alphas], spec.m, [(spec.k, order)]))
    return CoefficientReport(TruncatedSeries(cs + (0,) * (order + 1 - len(cs))))


def _wide(spec: QuotientSpec, order: int) -> bool:
    # measured on CPython 3.11 (ROADMAP item 7): the Decimal chain costs
    # 1.1-1.8 times the int one per multiply-add, and int-to-str is
    # quadratic in the width, so the crossover moves out with k*(m//2);
    # for m <= 2 p_m has no root inside the unit disc and a_r stays narrow
    return spec.k >= 1 and spec.m >= 3 and order > 500 + 30 * spec.k * (spec.m // 2)


def expand_decimal(spec: QuotientSpec, order: int) -> Iterator[str]:
    """The decimal strings of a_0..a_order, exactly as str() of expand's
    coefficients gives them, CPython's digit limit included.

    With a pole inside the unit disc, a_r gains up to two bits per index,
    and CPython's int-to-decimal conversion is quadratic in the width.  So
    above a measured crossover (k >= 1, m >= 3 and order > 500 +
    30*k*(m//2)) the numerator is converted to decimal.Decimal once, the k
    divisions by p_m run in a context exact by construction (Inexact and
    Rounded trapped), and str() of each Decimal is linear.  Below it the
    ints of expand are converted, as before.  decimal is imported only on
    that wide path.

    The strings are made lazily.  The first a_r past the digit limit
    (sys.get_int_max_str_digits(), 0 for none) raises the ValueError that
    str() of its int raises, so a consumer stops at the same coefficient.

    >>> list(expand_decimal(make_spec(Partition([1]), 3, 0), 4))
    ['1', '1', '2', '4', '8']
    """
    if not _wide(spec, order):  # expand refuses a negative order
        return map(str, expand(spec, order).coeffs.coeffs)
    import decimal

    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                            traps=[decimal.Inexact, decimal.Rounded])
    num = poly_prod([p_poly(a) for a in spec.alphas], order).coeffs
    with decimal.localcontext(exact):
        cs = list(map(decimal.Decimal, num))
        pm = list(map(decimal.Decimal, p_poly(spec.m).coeffs))
        for _ in range(spec.k):
            cs = _div_coeffs(cs, pm, order)
    return _decimal_strings(cs)


def _decimal_strings(cs) -> Iterator[str]:
    # a Python that predates the digit limit has no getter and no limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for c in cs:
        if limit and c.adjusted() >= limit:
            str(10 ** c.adjusted())  # as many digits as c: CPython's own error
        yield str(c)


def signed_vectors(spec: QuotientSpec, r: int) -> list[list[int]]:
    """The vectors whose product's [x^i] is a_i for every i <= r: the
    closed-form coefficients of each p_alpha and k copies of B_m(0..r).
    Only defined for k >= 0."""
    if spec.k < 0:
        raise ValueError("signed formula requires k >= 0; expand instead")
    if r < 0:
        raise ValueError("coefficient index must be nonnegative")
    vectors = [[p_coeff_closed(a, j) for j in range(min(a // 2, r) + 1)]
               for a in spec.alphas]
    if spec.k:
        vectors += [dyck_counts(DyckConstraint(spec.m, 0, 0, r))] * spec.k
    return vectors


def signed_coefficient(spec: QuotientSpec, r: int) -> int:
    """a_r by the signed tuple count: sum over j_0..j_L, u_1..u_k with
    sum r of (-1)^(sum j) * prod C(alpha_i - j_i, j_i) * prod B_m(u_nu),
    the B product read as 1 when k = 0: [x^r] of the product of the
    closed-form vectors of the p_alpha and k copies of B_m(0..r) =
    D_m(0,0;0..r), read from one transfer-matrix pass.  Neither the
    recurrence for p_r nor a division is used, so the route stays
    independent of expand.  Only defined for k >= 0.
    """
    return product_coeff(signed_vectors(spec, r), r)


def _degree_bound(spec: QuotientSpec) -> int:
    # deg p_a = a // 2, so prod p_alpha * p_m^(-k) has degree at most this
    return (sum(spec.alphas) + max(-spec.k, 0) * spec.m) // 2


def classify(spec: QuotientSpec) -> PositivityClass:
    """The trichotomy: m=1 gives the constant 1; k <= 0 (t >= mu1+1) makes
    F a polynomial with an explicit degree bound; otherwise coefficients are
    eventually strictly positive (simple growth from the pole at rho_1)."""
    if spec.m == 1:
        return PositivityClass("constant_one")
    if spec.k <= 0:
        return PositivityClass("polynomial", _degree_bound(spec))
    return PositivityClass("eventually_positive")


def positivity_bound(spec: QuotientSpec) -> int:
    """An R with a_r >= 1 for every r >= R, proved by the level-m fold of
    the numerator: F = sum_n N_n * x^s * p_c * p_m^(e-k), n = e*m + c, every
    N_n >= 1.  A term with e >= k is a polynomial of degree at most
    s + c//2 + (e-k)*(m//2); T is the largest such degree, or -1.  A term
    with e < k is x^s times D_m(c, 0; .) convolved with k-e-1 copies of
    B_m, each >= 1 at every index when m >= 2, so it is >= 1 at every
    index >= s; S is the smallest such s (the fold always keeps an e = 0
    term).  R = max(T + 1, S).  Only for eventually positive quotients.

    >>> positivity_bound(make_spec(Partition([3, 2]), 4, 1))
    2
    """
    if classify(spec).kind != "eventually_positive":
        raise ValueError("a positivity bound applies to eventually positive quotients")
    m, k, size = spec.m, spec.k, sum(spec.alphas)
    top, onset = -1, size
    for n in fold(spec.alphas, m):
        e, c = divmod(n, m)
        s = (size - n) // 2
        if e >= k:
            top = max(top, s + c // 2 + (e - k) * (m // 2))
        else:
            onset = min(onset, s)
    return max(top + 1, onset)


def positivity_threshold(spec: QuotientSpec, horizon: int) -> int | None:
    """Smallest r0 <= horizon with a_r > 0 for all r0 <= r <= horizon, or
    None when even a_horizon fails.

    Every a_r from R = positivity_bound(spec) on is at least 1, so when
    R <= horizon, r0 is exact: positivity holds for every r >= r0, and F is
    expanded only through R - 1, scanned downward from there.  When
    R > horizon, the scan reads every coefficient through the horizon."""
    bound = positivity_bound(spec)  # refuses a quotient that is not eventually positive
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    top = min(bound, horizon + 1) - 1
    r0 = top + 1
    if top >= 0:
        cs = expand(spec, top).coeffs.coeffs
        for r in range(top, -1, -1):
            if cs[r] > 0:
                r0 = r
            else:
                break
    return r0 if r0 <= horizon else None


def default_order(spec: QuotientSpec) -> int:
    """Sweep order: past the polynomial degree bound and deep enough that
    pole growth dominates.  For an eventually positive quotient it is a
    search horizon only; positivity_bound gives the proved onset."""
    return max(_degree_bound(spec), 4 * spec.m * (max(spec.k, 0) + 1) + 40)


def coefficient_index(xi: Partition, n: int) -> int | None:
    """The coefficient (|xi| - n)/2 that the multiplicity of weight n
    reads, or None when n < 0 or |xi| - n is negative or odd."""
    gap = xi.size - n
    if n < 0 or gap < 0 or gap % 2:
        return None
    return gap // 2


def multiplicity(xi: Partition, m: int, n: int) -> int:
    """The flag multiplicity: coefficient (|xi| - n)/2 of F built from
    (xi, m, n), zero when n < 0 or |xi| - n is negative or odd.

    >>> multiplicity(Partition([2]), 2, 2)
    1
    >>> multiplicity(Partition([1, 1]), 2, 0)
    1
    >>> multiplicity(Partition([2]), 2, 1)
    0
    """
    return multiplicities(xi, m, [n])[0]


def multiplicities(xi: Partition, m: int, ns: Iterable[int]) -> list[int]:
    """multiplicity(xi, m, n) for each n of a grid, in one pass.

    With mu = n, F = p_{m-mu0-1} * G_k, where G_k is the product of p_part
    over the parts below m divided by p_m^k; it depends on n only through
    k.  One division chain gives every G_k.  Larger k means larger n and a
    smaller index, so each G_k is carried only as far as its own rows read
    it.  Each row is then a short convolution with p_{m-mu0-1}.

    >>> multiplicities(Partition([2, 2, 1, 1, 1, 1]), 3, range(-1, 9))
    [0, 2, 0, 2, 0, 5, 0, 3, 0, 1]
    """
    base = make_spec(xi, m, 0)  # checks m and the parts, also for an empty grid
    ns = list(ns)
    rows: dict[int, list[tuple[int, int, int]]] = {}  # k -> (slot, index, alpha0)
    for slot, n in enumerate(ns):
        idx = coefficient_index(xi, n)
        if idx is not None:
            sp = make_spec(xi, m, n)
            rows.setdefault(sp.k, []).append((slot, idx, sp.alphas[0]))
    ks = sorted(rows)
    wants = [(k, max(idx for _, idx, _ in rows[k])) for k in ks]
    out = [0] * len(ns)
    factors = [p_poly(a) for a in base.alphas[1:]]  # the parts below m
    for k, cs in zip(ks, _over_pm(factors, m, wants)):
        for slot, idx, a0 in rows[k]:
            # cs may stop short of idx when G_k is a polynomial
            out[slot] = product_coeff([p_poly(a0).coeffs, cs], idx)
    return out
