"""Schoolbook references the tests compare chebflag against: plain
products of p over parts or pairs, built by the double-loop poly_mul, and
Horner evaluation."""

from functools import reduce

from chebflag.chebpoly import Partition, p_poly
from chebflag.quotient import make_spec
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
