"""Exact polynomials and truncated power series over unbounded integers.

Coefficient vectors are little-endian: index equals degree.  Series
division is restricted to denominators with constant term 1, which keeps
every coefficient an exact integer (no rationals ever appear).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Iterable, Sequence

__all__ = ["IntPolynomial", "TruncatedSeries", "ZERO", "ONE", "poly_add",
           "poly_mul", "product_coeff", "poly_pow", "poly_prod", "series_div_unit"]


@dataclass(init=False, eq=True, frozen=True)
class IntPolynomial:
    """Polynomial with arbitrary-precision integer coefficients.

    Trailing zeros are trimmed on construction so equal polynomials
    compare equal.  The zero polynomial has an empty coefficient tuple
    and reports degree -1.

    >>> IntPolynomial([1, -1]).degree
    1
    >>> IntPolynomial([0, 0]) == IntPolynomial([])
    True
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, j: int) -> int:
        # coefficient of x^j, zero outside the stored range
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return 0


ZERO = IntPolynomial()
ONE = IntPolynomial((1,))


@dataclass(frozen=True)
class TruncatedSeries:
    """Formal power series known exactly up to x^order.

    Holds the order+1 integer coefficients a_0..a_order; the tail beyond
    ``order`` is unknown, not zero.
    """

    coeffs: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


def poly_add(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Coefficientwise sum.

    >>> poly_add(IntPolynomial([1, -1]), IntPolynomial([0, 1]))
    IntPolynomial(coeffs=(1,))
    """
    n = max(len(p.coeffs), len(q.coeffs))
    return IntPolynomial(p[i] + q[i] for i in range(n))


def poly_mul(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Convolution product.

    >>> poly_mul(IntPolynomial([1, -2]), IntPolynomial([1, -1])).coeffs
    (1, -3, 2)
    """
    if not p.coeffs or not q.coeffs:
        return ZERO
    out = [0] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return IntPolynomial(out)


def product_coeff(vectors: Iterable[Sequence[int]], r: int) -> int:
    """[x^r] of the product of the coefficient vectors, each read as zero
    past its end; the empty product is 1.

    Schoolbook: the product of all vectors but the last is carried
    through x^r, and the last meets it in one dot product.

    >>> product_coeff([(1, 1)] * 4, 2)  # C(4, 2)
    6
    >>> product_coeff([(1, 2), (3,)], 1), product_coeff([(1, 2)], 5)
    (6, 0)
    >>> product_coeff([], 0), product_coeff([], 1)
    (1, 0)
    """
    if r < 0:
        raise ValueError("coefficient index must be nonnegative")
    *head, last = list(vectors) or [(1,)]
    acc = head[0][: r + 1] if head else (1,)
    for v in head[1:]:
        # a is the shorter vector: entry n pairs a[n], ..., a[0] with the head
        # of b while n < len(a), then a reversed with b's window ending at n
        a, b = (acc, v) if len(acc) <= len(v) else (v, acc)
        la, ra, length = len(a), a[::-1], min(r + 1, len(a) + len(b) - 1)
        acc = [sum(map(mul, a[n::-1], b)) for n in range(min(la, length))]
        acc += [sum(map(mul, ra, b[n - la + 1 : n + 1])) for n in range(la, length)]
    # acc stops by x^r, so its reverse meets last's window ending at r
    return sum(map(mul, acc[::-1], last[r + 1 - len(acc) : r + 1]))


def poly_pow(p: IntPolynomial, e: int) -> IntPolynomial:
    if e < 0:
        raise ValueError("negative exponent")
    acc = ONE
    for _ in range(e):
        acc = poly_mul(acc, p)
    return acc


def poly_prod(
    factors: Iterable[IntPolynomial], order: int | None = None
) -> IntPolynomial:
    """Product of the factors, truncated after x^order when order is given.

    Kronecker substitution: each factor is evaluated at 2^b, the integers
    are multiplied (reduced mod 2^(b*(order+1)) after each factor), and
    the coefficients are read back as signed base-2^b digits.  b holds the
    product of the factors' L1 norms plus a sign bit, which bounds every
    coefficient, so the digits never overlap and the result is exact.

    >>> poly_prod([IntPolynomial([1, -1]), IntPolynomial([1, 1])]).coeffs
    (1, 0, -1)
    >>> poly_prod([IntPolynomial([1, -1])] * 3, order=1).coeffs
    (1, -3)
    >>> poly_prod([]) == ONE
    True
    """
    if order is not None and order < 0:
        raise ValueError("truncation order must be nonnegative")
    vecs = [f.coeffs for f in factors]
    if not all(vecs):
        return ZERO
    length = sum(len(cs) - 1 for cs in vecs) + 1
    if order is not None:
        length = min(length, order + 1)
        vecs = [cs[:length] for cs in vecs]
    bound = 1
    for cs in vecs:
        bound *= sum(map(abs, cs))
    if bound == 0:  # a factor vanishes through x^order
        return ZERO
    width = (bound.bit_length() + 8) // 8  # bytes per digit, sign bit included
    half = 1 << (8 * width - 1)
    # digits are stored as c + half, in [1, 2^b), so packing and unpacking
    # need no carries; the offset of n digits is subtracted or added back
    half_digit = half.to_bytes(width, "little")

    def offset(n: int) -> int:
        return int.from_bytes(half_digit * n, "little")

    mask = (1 << (8 * width * length)) - 1
    acc = 1
    for cs in vecs:
        packed = b"".join((c + half).to_bytes(width, "little") for c in cs)
        acc = (acc * (int.from_bytes(packed, "little") - offset(len(cs)))) & mask
    data = ((acc + offset(length)) & mask).to_bytes(width * length, "little")
    return IntPolynomial(
        int.from_bytes(data[i : i + width], "little") - half
        for i in range(0, width * length, width)
    )


def _div_coeffs(num: Sequence, den: Sequence, order: int) -> list:
    """Coefficients s[0..order] of num/den for den[0] = 1, num read as
    zero past its end, by the recurrence

        s[n] = num[n] - sum(den[i] * s[n-i] for i >= 1)

    It is exact for any number type whose + and * are: int, or
    decimal.Decimal under a context that traps rounding, as in
    quotient.expand_decimal.  series_div_unit is its int front.
    """
    d = len(den) - 1
    # out holds d leading zeros, then num's coefficients through x^order;
    # den[d], ..., den[1] against the window out[n-d:n] is the sum above
    rev = den[:0:-1]
    head = num[: order + 1]
    out = [0] * d + list(head) + [0] * (order + 1 - len(head))
    for n in range(d, d + order + 1):
        out[n] -= sum(map(mul, rev, out[n - d : n]))
    return out[d:]


def series_div_unit(
    num: IntPolynomial | TruncatedSeries, den: IntPolynomial, order: int
) -> TruncatedSeries:
    """Expand num/den as a power series through x^order.

    num may be a TruncatedSeries, so that one division can feed the next
    without a copy.  The denominator must have constant term exactly 1;
    that makes the quotient's coefficients integers and the recurrence of
    _div_coeffs exact.

    >>> series_div_unit(ONE, IntPolynomial([1, -1]), 4).coeffs
    (1, 1, 1, 1, 1)
    >>> series_div_unit(ONE, IntPolynomial([1, -2]), 3).coeffs
    (1, 2, 4, 8)
    """
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    if den[0] != 1:
        raise ValueError(
            f"denominator constant term must be 1, got {den[0]}"
        )
    if isinstance(num, TruncatedSeries) and num.order < order:
        raise ValueError(
            f"numerator known only through x^{num.order}, not x^{order}"
        )
    return TruncatedSeries(tuple(_div_coeffs(num.coeffs, den.coeffs, order)))
