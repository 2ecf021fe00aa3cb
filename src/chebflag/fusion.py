"""The level-m fusion fold: products of p_r over parts below m, rewritten
as sums of x^s * p_m^e * p_c with nonnegative integer counts.

Two identities hold for 0 <= a, b <= m-1.  Clebsch-Gordan gives
p_a * p_b = sum_{i=0}^{min(a,b)} x^i * p_{a+b-2i}, and level-m truncation
says that when j = a+b-m >= 0 the terms i = 0..j sum to p_m * p_j.  So
every index left is below m and every coefficient is 1.  This is the
graded sl_2 character recursion for the Demazure flags of a fusion product
(Chari & Venkatesh, CMP 2015; Biswal, Chari, Schneider & Viswanath, JCTA
2016).  Only integer index arithmetic runs here: no p_r, no division and
no walk count.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["fold"]


def fold(parts: Iterable[int], m: int) -> dict[int, int]:
    """The map n -> N_n with prod p_part = sum_n N_n * x^s * p_m^e * p_c,
    where n = e*m + c with 0 <= c < m and 2s + n is the sum of the parts.
    Every part must lie in 0..m-1.  For a partition xi with parts below m,
    N_n is the flag multiplicity multiplicity(xi, m, n).

    >>> fold([1, 1], 2)
    {2: 1, 0: 1}
    >>> sorted(fold([2, 2, 1, 1, 1, 1], 3).items())
    [(0, 2), (2, 2), (4, 5), (6, 3), (8, 1)]
    """
    counts = {0: 1}
    # the map holds at most one key per n of one parity up to the sum folded
    # so far; the product does not depend on the order of the parts, and
    # ascending order keeps every partial sum as small as it can be
    for g in sorted(parts):
        if not 0 <= g < m:
            raise ValueError(f"part {g} is not in 0..{m - 1}")
        out: dict[int, int] = {}
        for n, count in counts.items():
            c = n % m
            # i = 0 and, when c + g >= m, the terms i <= c + g - m: one
            # term p_m^(e+1) * p_(c+g-m) or p_m^e * p_(c+g), both at n + g
            out[n + g] = out.get(n + g, 0) + count
            for i in range(max(1, c + g - m + 1), min(c, g) + 1):
                out[n + g - 2 * i] = out.get(n + g - 2 * i, 0) + count
        counts = out
    return counts
