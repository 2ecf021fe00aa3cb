"""Schoolbook references the tests compare chebflag against: plain
products of p over parts or pairs, built by the double-loop poly_mul,
Horner evaluation, the positivity threshold read from a full expansion, and
exact brackets of the roots of p_m from an integer Sturm count."""

from functools import reduce

from chebflag.chebpoly import Partition, p_poly
from chebflag.quotient import expand, make_spec
from chebflag.series import ONE, IntPolynomial, poly_mul


def p_partition(xi) -> IntPolynomial:
    """Product of p over the parts; the empty partition gives 1."""
    return reduce(poly_mul, map(p_poly, xi), ONE)


def pair_product(dec) -> IntPolynomial:
    """Product of p_a * p_b over the pairs of a decomposition."""
    return p_partition(i for pair in dec.pairs for i in pair)


def horner(p: IntPolynomial, x):
    """p(x) by Horner's rule; exact for int and Fraction x."""
    acc = 0 * x
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def spec_of(parts, m, mu):
    return make_spec(Partition(parts), m, mu)


def scan_threshold(spec, horizon):
    """Smallest r0 <= horizon with a_r > 0 for all r0 <= r <= horizon, or
    None: expand F through the horizon and scan down from the top."""
    cs = expand(spec, horizon).coeffs.coeffs
    r0 = horizon + 1
    for r in range(horizon, -1, -1):
        if cs[r] > 0:
            r0 = r
        else:
            break
    return r0 if r0 <= horizon else None


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
