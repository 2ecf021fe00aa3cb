"""The Chebyshev-type sequence p_r and its numeric root data.

p_0 = p_1 = 1 and p_{r+1} = p_r - x * p_{r-1}, so deg p_r = floor(r/2)
and every constant term is 1.  Coefficients double as matching counts of
path graphs: [x^j] p_r = (-1)^j * C(r-j, j).

Roots of p_m come from the closed trigonometric form and are used for
diagnostics only; exact coefficient arithmetic never touches them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .series import IntPolynomial, ONE, X, poly_mul

__all__ = [
    "Partition",
    "RootData",
    "p_poly",
    "p_coeff_closed",
    "p_partition",
    "roots_of_pm",
    "p_at_rho1",
]


@dataclass(init=False, eq=True, frozen=True)
class Partition:
    """Nonincreasing tuple of positive integer parts; may be empty.

    >>> Partition([3, 2, 2]).size
    7
    >>> Partition([]).length
    0
    """

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int] = ()) -> None:
        ps = tuple(int(p) for p in parts)
        for p in ps:
            if p <= 0:
                raise ValueError(f"parts must be positive, got {p}")
        if any(ps[i] < ps[i + 1] for i in range(len(ps) - 1)):
            raise ValueError(f"parts must be nonincreasing, got {ps}")
        object.__setattr__(self, "parts", ps)

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)


_PS: list[IntPolynomial] = [ONE, ONE]


def p_poly(r: int) -> IntPolynomial:
    """p_r computed by the recurrence, cached.

    >>> p_poly(2).coeffs
    (1, -1)
    >>> p_poly(4).coeffs
    (1, -3, 1)
    """
    if r < 0:
        raise ValueError("index must be nonnegative")
    while len(_PS) <= r:
        _PS.append(_PS[-1] - X * _PS[-2])
    return _PS[r]


def p_coeff_closed(r: int, j: int) -> int:
    """[x^j] p_r by the closed form (-1)^j * C(r-j, j).

    The binomial C(A, B) is taken as 0 unless 0 <= B <= A, so this
    vanishes for j > floor(r/2).
    """
    if j < 0 or r - j < j:
        return 0
    return (-1) ** j * math.comb(r - j, j)


def p_partition(xi: Partition) -> IntPolynomial:
    """Product of p over the parts; the empty partition gives 1."""
    acc = ONE
    for part in xi:
        acc = poly_mul(acc, p_poly(part))
    return acc


@dataclass(frozen=True)
class RootData:
    """Roots of p_m, increasing, with the angle step theta = pi/(m+1)."""

    m: int
    roots: tuple[float, ...]
    theta: float

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError("root data needs m >= 2")
        if len(self.roots) != self.m // 2:
            raise ValueError(
                f"expected {self.m // 2} roots for m={self.m}, got {len(self.roots)}"
            )
        # imported here: fractions pulls in decimal, and only the float
        # diagnostics, never a CLI command, build root data
        from fractions import Fraction

        # p_m changes sign across each bracket rho(1 -+ 2^-40), evaluated
        # exactly, and the brackets are disjoint: p_m has floor(m/2)
        # roots, one in each
        pm, w = p_poly(self.m), Fraction(1, 2**40)
        prev = Fraction(0)
        for rho in self.roots:
            lo, hi = Fraction(rho) * (1 - w), Fraction(rho) * (1 + w)
            if not prev < lo:
                raise ValueError("roots must be positive and strictly increasing")
            if not pm(lo) * pm(hi) < 0:
                raise ValueError(f"no sign change of p_{self.m} around rho={rho!r}")
            prev = hi

    @property
    def rho1(self) -> float:
        return self.roots[0]


@lru_cache(maxsize=None)
def roots_of_pm(m: int) -> RootData:
    """All floor(m/2) roots 1/(4 cos^2(j pi/(m+1))), j = 1..floor(m/2).

    >>> abs(roots_of_pm(2).roots[0] - 1.0) < 1e-12
    True
    >>> abs(roots_of_pm(3).roots[0] - 0.5) < 1e-12
    True
    """
    if m < 2:
        raise ValueError("p_0 and p_1 are constant; roots need m >= 2")
    theta = math.pi / (m + 1)
    roots = tuple(1.0 / (4.0 * math.cos(j * theta) ** 2) for j in range(1, m // 2 + 1))
    return RootData(m, roots, theta)


def p_at_rho1(r: int, m: int) -> float:
    """p_r evaluated at the smallest root of p_m; positive for 0 <= r < m.

    With theta = pi/(m+1) the root is 1/(4 cos^2 theta), where p_r takes
    the value sin((r+1) theta) / (sin theta (2 cos theta)^r).  Every
    factor is positive for r < m, so the float is too, where Horner on
    the alternating coefficients of p_r cancels to <= 0 once m >= 46.
    """
    if not 0 <= r < m:
        raise ValueError(f"need 0 <= r < m, got r={r}, m={m}")
    if m < 2:
        raise ValueError("p_0 and p_1 are constant; roots need m >= 2")
    if r <= 1:
        return 1.0  # p_0 = p_1 = 1, exactly
    theta = math.pi / (m + 1)
    return math.sin((r + 1) * theta) / (math.sin(theta) * (2 * math.cos(theta)) ** r)
