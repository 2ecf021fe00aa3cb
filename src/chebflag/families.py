"""Unsigned product models: pair decompositions of the numerator, the
three explicit families (m^t, 1^s), (m^t, r, 1^s), (m^t, r_1..r_d, 1^s),
and their multiplicities with the edge cases.

A pair decomposition writes prod p_alpha as prod p_a * p_b over k pairs
with a + b <= m - 1.  When one exists, coefficient r of F counts k-tuples
of constrained Dyck paths with total excess r, so every coefficient is
visibly nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chebpoly import Partition
from .pathcomb import DyckConstraint, dyck_counts
from .quotient import QuotientSpec, expand, make_spec
from .series import product_coeff

__all__ = [
    "PairDecomposition",
    "FamilyQuery",
    "FamilyModel",
    "find_pair_decomposition",
    "product_model_vectors",
    "product_model_coeff",
    "family_quotient",
    "family_multiplicity",
    "VerificationError",
]


class VerificationError(RuntimeError):
    """Two independent routes disagree on a value they both compute."""


@dataclass(frozen=True)
class PairDecomposition:
    """k admissible pairs (a, b), each with a + b <= m - 1."""

    m: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("need m >= 1")
        for a, b in self.pairs:
            if not (0 <= a <= self.m - 1 and 0 <= b <= self.m - 1):
                raise ValueError(f"pair ({a}, {b}) outside [0, {self.m - 1}]")
            if a + b > self.m - 1:
                raise ValueError(f"pair ({a}, {b}) violates a + b <= m - 1")

    @property
    def k(self) -> int:
        return len(self.pairs)


def find_pair_decomposition(spec: QuotientSpec) -> PairDecomposition | None:
    """Search for a decomposition of the numerator indices into exactly
    spec.k admissible pairs.

    Works at the presentation level: pack uses up exactly the indices
    >= 2, each single or paired, and the remaining slots are padded with
    (0, 0).  Since p_0 = p_1 = 1, the pairs multiply to the numerator by
    construction.  None means no grouping of the given index multiset
    fits; it does not rule out decompositions through nontrivial
    polynomial identities.
    """
    if spec.k <= 0:
        raise ValueError("pair decompositions need k >= 1")
    big = sorted((a for a in spec.alphas if a >= 2), reverse=True)
    limit = spec.m - 1
    k = spec.k

    def pack(
        items: tuple[int, ...], slots: int
    ) -> tuple[tuple[int, int], ...] | None:
        # group indices into at most `slots` groups of size <= 2, paired
        # sums capped by limit; the first index is either single or paired
        if not items:
            return ()
        if slots <= 0 or len(items) > 2 * slots:
            return None
        first, rest = items[0], items[1:]
        sub = pack(rest, slots - 1)
        if sub is not None:
            return ((first, 0),) + sub
        tried: set[int] = set()
        for i, other in enumerate(rest):
            if other in tried:
                continue
            tried.add(other)
            if first + other <= limit:
                sub = pack(rest[:i] + rest[i + 1 :], slots - 1)
                if sub is not None:
                    return ((first, other),) + sub
        return None

    grouped = pack(tuple(big), k)
    if grouped is None:
        return None
    return PairDecomposition(spec.m, grouped + ((0, 0),) * (k - len(grouped)))


def product_model_vectors(dec: PairDecomposition, r: int) -> list[list[int]]:
    """The per-pair counts D_m(a, b; 0..r), one vector per pair, whose
    product's [x^i] counts the k-tuples with total excess i for every
    i <= r; each distinct pair is counted once."""
    if r < 0:
        raise ValueError("coefficient index must be nonnegative")
    counts = {p: dyck_counts(DyckConstraint(dec.m, *p, r)) for p in set(dec.pairs)}
    return [counts[p] for p in dec.pairs]


def product_model_coeff(dec: PairDecomposition, r: int) -> int:
    """Number of k-tuples of constrained Dyck paths with total excess r:
    [x^r] of the product of product_model_vectors(dec, r)."""
    return product_coeff(product_model_vectors(dec, r), r)


@dataclass(frozen=True)
class FamilyQuery:
    """A partition of the shape (m^t, middle, 1^s) plus an optional
    coefficient index N.

    kind "a" has no middle part, "b" has the single part r, "c" has parts
    rs.  Without N the weight is |xi| itself (generating-series mode);
    with N the weight is |xi| - 2N and the Euclidean division runs on
    base - 2N, where base = s, r + s, or sum(rs) + s.  q may then be
    negative, which forces the multiplicity to vanish.
    """

    kind: str
    m: int
    t: int
    s: int
    r: int | None = None
    rs: tuple[int, ...] = ()
    N: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("a", "b", "c"):
            raise ValueError("kind must be one of a, b, c")
        if self.m < 1:
            raise ValueError("need m >= 1")
        if self.t < 0 or self.s < 0:
            raise ValueError("t and s must be nonnegative")
        if self.kind == "a":
            if self.r is not None or self.rs:
                raise ValueError("kind a takes no middle parts")
        elif self.kind == "b":
            if self.r is None or self.rs:
                raise ValueError("kind b takes exactly the middle part r")
            if not 1 <= self.r <= self.m - 1:
                raise ValueError(f"need 1 <= r <= m-1, got r={self.r}")
        else:
            if self.r is not None or not self.rs:
                raise ValueError("kind c takes the middle parts rs")
            for ri in self.rs:
                if not 1 <= ri <= self.m - 1:
                    raise ValueError(f"need 1 <= r_i <= m-1, got {ri}")
        if self.N is not None and self.N < 0:
            raise ValueError("N must be nonnegative")

    @property
    def middles(self) -> tuple[int, ...]:
        if self.kind == "a":
            return ()
        if self.kind == "b":
            return (self.r,)
        return tuple(sorted(self.rs, reverse=True))

    @property
    def base(self) -> int:
        return sum(self.middles) + self.s

    @property
    def q_rho(self) -> tuple[int, int]:
        shift = 2 * self.N if self.N is not None else 0
        return divmod(self.base - shift, self.m)

    def partition(self) -> Partition:
        return Partition((self.m,) * self.t + self.middles + (1,) * self.s)


@dataclass(frozen=True)
class FamilyModel:
    """Reduced quotient data for a family query: the QuotientSpec, the
    canonical pair list when the family's applicability condition holds,
    and a note when it does not."""

    spec: QuotientSpec
    decomposition: PairDecomposition | None
    note: str = ""


def family_quotient(fq: FamilyQuery) -> FamilyModel:
    """The reduced quotient prod p_middle * p_{m-rho-1} / p_m^k, k = q+1
    for m >= 2, with the canonical pairs ((0, m-rho-1), (r_i, 0)...,
    (0,0)...) whenever q >= d, the number of middle parts.  Below that,
    one middle part r (kind b, or kind c with one part) at q = 0 has the
    single pair (r, m-rho-1) when it is admissible, and two or more have
    none.  At m = 1 kind a needs k >= 1."""
    q, rho = fq.q_rho
    if q < 0:
        raise ValueError("q < 0: the quotient degenerates; the multiplicity is 0")
    xi = fq.partition()
    spec = make_spec(xi, fq.m, xi.size - 2 * (fq.N or 0))
    m, middles = fq.m, fq.middles
    d = len(middles)
    if spec.k < 1:
        return FamilyModel(spec, None, f"no unsigned model: k = {spec.k} < 1")
    if q >= d:
        pairs = (((0, m - rho - 1),) + tuple((ri, 0) for ri in middles)
                 + ((0, 0),) * (spec.k - 1 - d))
        return FamilyModel(spec, PairDecomposition(m, pairs))
    if d >= 2:
        return FamilyModel(spec, None, f"no unsigned model: q = {q} < d = {d}")
    (r,) = middles
    if rho >= r:
        # q = 0: the single pair (r, m-rho-1) fits since r + (m-rho-1) <= m-1
        return FamilyModel(spec, PairDecomposition(m, ((r, m - rho - 1),)))
    return FamilyModel(
        spec, None, "no unsigned model: q = 0 and the single pair is inadmissible"
    )


def family_multiplicity(fq: FamilyQuery) -> int:
    """Multiplicity at coefficient index N: coefficient N of the family's
    reduced quotient, read from expand.

    q < 0 returns 0 outright.  Whenever the unsigned model applies the
    value is recounted through the Dyck product model and the two must
    agree.  One middle part with q = 0 and 2N > s, d >= 2 middle parts
    with q < d, and kind a at m = 1 with N >= 1 (k < 1) are the documented
    exceptions where the value stands without an unsigned model.
    """
    if fq.N is None:
        raise ValueError("family queries need the coefficient index N")
    if fq.q_rho[0] < 0:
        return 0
    model = family_quotient(fq)
    value = expand(model.spec, fq.N).coeffs.coeffs[fq.N]
    if model.decomposition is not None:
        recount = product_model_coeff(model.decomposition, fq.N)
        if recount != value:
            raise VerificationError(
                f"product model disagrees with expansion: {recount} != {value}"
            )
    return value


def family_kind_of(parts: tuple[int, ...], m: int) -> str:
    """Classify a partition with parts <= m by its middle parts: a, b, or
    c for zero, one, or more parts strictly between 1 and m."""
    mids = [p for p in parts if 1 < p < m]
    if not mids:
        return "a"
    return "b" if len(mids) == 1 else "c"
