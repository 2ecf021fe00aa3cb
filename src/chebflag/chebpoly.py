"""The Chebyshev-type sequence p_r and exact brackets of its roots.

p_0 = p_1 = 1 and p_{r+1} = p_r - x * p_{r-1}, so deg p_r = floor(r/2)
and every constant term is 1.  Coefficients double as matching counts of
path graphs: [x^j] p_r = (-1)^j * C(r-j, j).

Roots of p_m come as dyadic brackets from an integer Sturm count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .series import IntPolynomial, ONE, poly_add

__all__ = ["Partition", "p_poly", "p_coeff_closed", "root_brackets"]


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
        # -x * p_{r-1} is p_{r-1} shifted up one degree and negated
        shifted = IntPolynomial([0] + [-c for c in _PS[-2].coeffs])
        _PS.append(poly_add(_PS[-1], shifted))
    return _PS[r]


def p_coeff_closed(r: int, j: int) -> int:
    """[x^j] p_r by the closed form (-1)^j * C(r-j, j).

    The binomial C(A, B) is taken as 0 unless 0 <= B <= A, so this
    vanishes for j > floor(r/2).
    """
    if j < 0 or r - j < j:
        return 0
    return (-1) ** j * math.comb(r - j, j)


def _roots_below(m: int, n: int, bits: int) -> int:
    """Number of roots of p_m in (0, n / 2^bits): the sign changes, zeros
    skipped, of the Sturm chain p_0(x), ..., p_m(x) (p_r(x) is
    x^(r/2) U_r(1/(2 sqrt x)) for x > 0), each p_r(x) scaled to the integer
    P_r = 2^(bits*floor(r/2)) p_r(x) of the same sign."""
    a = b = 1  # P_{r-1} and P_r for odd r, from r = 1
    neg, changes = False, 0
    for r in range(1, m, 2):
        a = (b << bits) - n * a  # P_{r+1}
        if a and (a < 0) is not neg:
            neg, changes = not neg, changes + 1
        if r + 1 == m:
            break
        b = a - n * b  # P_{r+2}
        if b and (b < 0) is not neg:
            neg, changes = not neg, changes + 1
    return changes


def root_brackets(m: int, bits: int) -> list[int]:
    """The floor(m/2) roots of p_m, increasing, each as the integer n with
    n / 2^bits <= root < (n + 1) / 2^bits; a bracket holding two roots is
    listed twice.  Every root lies in (1/4, (m+1)^2/4], so bisecting
    [0, (m+1)^2 2^bits) into the halves that hold a root finds them all.

    >>> root_brackets(2, 3), root_brackets(3, 3), root_brackets(5, 2)
    ([8], [4], [1, 4])
    """
    if m < 0 or bits < 0:
        raise ValueError(f"need m >= 0 and bits >= 0, got m={m}, bits={bits}")
    out: list[int] = []
    top = (m + 1) ** 2 << bits
    # (lo, hi, roots below lo, roots below hi); the left half pops first
    stack = [(0, top, 0, _roots_below(m, top, bits))]
    while stack:
        lo, hi, below_lo, below_hi = stack.pop()
        if below_lo < below_hi and hi - lo == 1:
            out += [lo] * (below_hi - below_lo)
        elif below_lo < below_hi:
            mid = (lo + hi) // 2
            below_mid = _roots_below(m, mid, bits)
            stack += [(mid, hi, below_mid, below_hi), (lo, mid, below_lo, below_mid)]
    return out
