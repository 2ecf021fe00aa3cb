"""The Chebyshev-type sequence p_r and partitions.

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

__all__ = ["Partition", "p_poly", "p_coeff_closed"]


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
