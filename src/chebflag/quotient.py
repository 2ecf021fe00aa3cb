"""The normalized quotient F = prod p_alpha / p_m^k, its exact expansion,
the eventual-positivity trichotomy, the signed coefficient formula, and
multiplicity extraction.

Given a partition xi with parts <= m and a weight mu written as
mu = mu1*m + mu0, the quotient p_{m-mu0-1} * p_xi / p_m^(mu1+1) cancels
one p_m for every part equal to m.  What is left is tracked exactly:
numerator indices alphas (all < m) over p_m^k with k = mu1 + 1 - t.
Negative k means surplus cancellation and the quotient is a polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

from .chebpoly import Partition, p_poly
from .pathcomb import full_height_count
from .series import IntPolynomial, TruncatedSeries, poly_prod, series_div_unit

__all__ = [
    "QuotientSpec",
    "PositivityClass",
    "CoefficientReport",
    "make_spec",
    "expand",
    "signed_coefficient",
    "classify",
    "positivity_threshold",
    "default_order",
    "multiplicity",
    "multiplicities",
]


@dataclass(frozen=True)
class QuotientSpec:
    """F for (xi, m, mu), checked on construction.  The Euclidean data of
    mu, the count t of parts equal to m, the net denominator exponent k
    and the numerator indices are derived on first use."""

    xi: Partition
    m: int
    mu: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("level m must be >= 1")
        if self.mu < 0:
            raise ValueError("mu must be nonnegative")
        if any(p > self.m for p in self.xi):
            big = max(self.xi.parts)
            raise ValueError(f"part {big} exceeds the level m={self.m}")

    @cached_property
    def mu1(self) -> int:
        return self.mu // self.m

    @cached_property
    def mu0(self) -> int:
        return self.mu % self.m

    @cached_property
    def t(self) -> int:
        return sum(1 for p in self.xi if p == self.m)

    @cached_property
    def k(self) -> int:
        return self.mu1 + 1 - self.t

    @cached_property
    def alphas(self) -> tuple[int, ...]:
        return (self.m - self.mu0 - 1,) + tuple(p for p in self.xi if p < self.m)

    def numerator(self, order: int | None = None) -> IntPolynomial:
        """prod p_alpha, truncated after x^order when order is given."""
        return poly_prod([p_poly(a) for a in self.alphas], order)


@dataclass(frozen=True)
class PositivityClass:
    """One of constant_one, polynomial (with a degree bound), or
    eventually_positive (optionally with an empirical threshold r0)."""

    kind: str
    degree_bound: int | None = None
    threshold: int | None = None

    _KINDS = ("constant_one", "polynomial", "eventually_positive")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"kind must be one of {self._KINDS}")
        if (self.kind == "polynomial") != (self.degree_bound is not None):
            raise ValueError("degree_bound goes with the polynomial kind only")
        if self.threshold is not None and self.kind != "eventually_positive":
            raise ValueError("threshold goes with eventually_positive only")

    @classmethod
    def constant_one(cls) -> "PositivityClass":
        return cls("constant_one")

    @classmethod
    def polynomial(cls, degree_bound: int) -> "PositivityClass":
        return cls("polynomial", degree_bound=degree_bound)

    @classmethod
    def eventually_positive(cls, threshold: int | None = None) -> "PositivityClass":
        return cls("eventually_positive", threshold=threshold)


@dataclass(frozen=True)
class CoefficientReport:
    """Exact coefficients a_0..a_order of the quotient a spec describes."""

    spec: QuotientSpec
    order: int
    coeffs: TruncatedSeries

    def __post_init__(self) -> None:
        if self.coeffs.order != self.order:
            raise ValueError("series order does not match report order")


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


def expand(spec: QuotientSpec, order: int) -> CoefficientReport:
    """Exact coefficients a_0..a_order of F.

    Every product is built only through x^order.  For k <= 0 the
    denominator cancels completely and F is the polynomial
    prod p_alpha * p_m^(-k), padded with zeros.  Otherwise the numerator
    is divided by p_m k times, each truncated division feeding the next:
    the divisor keeps the small coefficients (-1)^j C(m-j, j) instead of
    the wide ones of p_m^k, and truncation commutes with the division, so
    the coefficients are exactly those of one division by p_m^k.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    pm = p_poly(spec.m)
    if spec.k <= 0:
        poly = poly_prod([p_poly(a) for a in spec.alphas] + [pm] * -spec.k, order)
        series = TruncatedSeries([poly[i] for i in range(order + 1)], order)
    else:
        series = spec.numerator(order)
        for _ in range(spec.k):
            series = series_div_unit(series, pm, order)
    return CoefficientReport(spec, order, series)


@lru_cache(maxsize=None)
def _b_convolved(m: int, slots: int, total: int) -> int:
    # sum over u_1 + ... + u_slots = total of prod B_m(u_nu)
    if slots == 0:
        return 1 if total == 0 else 0
    return sum(
        full_height_count(m, u) * _b_convolved(m, slots - 1, total - u)
        for u in range(total + 1)
    )


def signed_coefficient(spec: QuotientSpec, r: int) -> int:
    """a_r by the signed tuple count: sum over j_0..j_L, u_1..u_k with
    sum r of (-1)^(sum j) * prod C(alpha_i - j_i, j_i) * prod B_m(u_nu),
    the B product read as 1 when k = 0.

    Nested bounded loops; each j_i stops at floor(alpha_i / 2) where the
    binomial dies.  Only defined for k >= 0.
    """
    if spec.k < 0:
        raise ValueError("signed formula requires k >= 0; expand instead")
    if r < 0:
        raise ValueError("coefficient index must be nonnegative")
    alphas = spec.alphas
    m, k = spec.m, spec.k
    total = 0

    def go(i: int, rem: int, weight: int) -> None:
        nonlocal total
        if i == len(alphas):
            total += weight * _b_convolved(m, k, rem)
            return
        a = alphas[i]
        for j in range(min(a // 2, rem) + 1):
            w = math.comb(a - j, j)
            go(i + 1, rem - j, weight * w if j % 2 == 0 else -weight * w)

    go(0, r, 1)
    return total


def classify(spec: QuotientSpec) -> PositivityClass:
    """The trichotomy: m=1 gives the constant 1; t >= mu1+1 makes F a
    polynomial with an explicit degree bound; otherwise coefficients are
    eventually strictly positive (simple growth from the pole at rho_1)."""
    if spec.m == 1:
        return PositivityClass.constant_one()
    if spec.t >= spec.mu1 + 1:
        bound = (sum(spec.alphas) + (spec.t - spec.mu1 - 1) * spec.m) // 2
        return PositivityClass.polynomial(bound)
    return PositivityClass.eventually_positive()


def positivity_threshold(spec: QuotientSpec, horizon: int) -> int | None:
    """Smallest r0 <= horizon with a_r > 0 for all r0 <= r <= horizon, or
    None when even a_horizon fails.  Empirical evidence, not a proof."""
    pc = classify(spec)
    if pc.kind != "eventually_positive":
        raise ValueError("threshold search applies to eventually positive quotients")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    cs = expand(spec, horizon).coeffs.coeffs
    r0 = horizon + 1
    for r in range(horizon, -1, -1):
        if cs[r] > 0:
            r0 = r
        else:
            break
    return r0 if r0 <= horizon else None


def default_order(spec: QuotientSpec) -> int:
    """Heuristic sweep order: past the polynomial degree bound and deep
    enough that pole growth dominates.  Recorded as a heuristic; there is
    no effective bound for where positivity must set in."""
    bound = (sum(spec.alphas) + max(-spec.k, 0) * spec.m) // 2
    return max(bound, 4 * spec.m * (max(spec.k, 0) + 1) + 40)


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
    over the parts below m, divided by p_m^k (times p_m^(-k) for k <= 0);
    it depends on n only through k.  So the product is built once, and
    one chain of divisions by p_m, advanced through the grid's k in
    ascending order and never restarted, gives every G_k with k > 0.
    Larger k means larger n and a smaller index, so each G_k is carried
    only as far as its own rows read it.  Each row is then a short
    convolution with p_{m-mu0-1}.

    >>> multiplicities(Partition([2, 2, 1, 1, 1, 1]), 3, range(-1, 9))
    [0, 2, 0, 2, 0, 5, 0, 3, 0, 1]
    """
    if m < 1:
        raise ValueError("level m must be >= 1")
    if xi.length and xi.parts[0] > m:
        raise ValueError(f"part {xi.parts[0]} exceeds the level m={m}")
    ns = list(ns)
    t = sum(1 for p in xi if p == m)
    rows: dict[int, list[tuple[int, int, int]]] = {}  # k -> (slot, index, alpha0)
    for slot, n in enumerate(ns):
        gap = xi.size - n
        if n < 0 or gap < 0 or gap % 2:
            continue
        mu1, mu0 = divmod(n, m)
        rows.setdefault(mu1 + 1 - t, []).append((slot, gap // 2, m - mu0 - 1))
    out = [0] * len(ns)
    if not rows:
        return out
    # k grows with n and the index shrinks, so the rows at k read G_k no
    # further than their own largest index, and the first k reads furthest
    tops = {k: max(idx for _, idx, _ in group) for k, group in rows.items()}
    ks = sorted(rows)
    pm = p_poly(m)
    base = poly_prod([p_poly(p) for p in xi if p < m], tops[ks[0]])
    chain, layers = base, 0
    for k in ks:
        if k <= 0:
            cs = poly_prod([base] + [pm] * -k, tops[k]).coeffs
        else:
            while layers < k:
                chain = series_div_unit(chain, pm, tops[k])
                layers += 1
            cs = chain.coeffs
        for slot, idx, a0 in rows[k]:
            # [x^idx] p_a0 * G_k; cs may stop short of idx when G_k is a
            # polynomial of lower degree
            pa = p_poly(a0).coeffs
            lo = max(0, idx + 1 - len(cs))
            hi = min(len(pa), idx + 1)
            out[slot] = sum(pa[j] * cs[idx - j] for j in range(lo, hi))
    return out
