"""Combinatorial counters and brute-force oracles: path-graph matchings,
height-bounded strip walks, full-height walk counts B_m(u), constrained
Dyck paths D_m(a,b;u), and the explicit bijection between walks and paths.

Enumerators carry hard size guards; an oracle that silently samples or
truncates is not an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .series import IntPolynomial, ONE, ZERO, poly_add, poly_mul

__all__ = [
    "StripWalk",
    "DyckPath",
    "DyckConstraint",
    "matching_count",
    "enumerate_matchings",
    "strip_walk_counts",
    "strip_walk_count",
    "strip_walk_count_dfs",
    "enumerate_strip_walks",
    "full_height_count",
    "dyck_count",
    "dyck_counts",
    "enumerate_dyck",
    "walk_to_dyck",
    "dyck_to_walk",
    "continuant_det",
]

_MAX_MATCHING_VERTICES = 20
_MAX_WALK_LENGTH = 24
_MAX_DYCK_SEMILENGTH = 12


@dataclass(frozen=True)
class StripWalk:
    """A +-1 step walk on the strip {0, ..., m-1}."""

    m: int
    heights: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("strip needs m >= 1")
        if not self.heights:
            raise ValueError("a walk has at least its starting vertex")
        for h in self.heights:
            if not 0 <= h <= self.m - 1:
                raise ValueError(f"height {h} outside strip of height {self.m - 1}")
        for u, v in zip(self.heights, self.heights[1:]):
            if abs(u - v) != 1:
                raise ValueError("consecutive heights must differ by exactly 1")

    @property
    def length(self) -> int:
        return len(self.heights) - 1

    @property
    def excess(self) -> int:
        # steps beyond the minimal |end - start| come in up/down pairs
        return (self.length - abs(self.heights[-1] - self.heights[0])) // 2


@dataclass(frozen=True)
class DyckPath:
    """Up/down steps from the axis back to the axis, never below it."""

    steps: tuple[str, ...]

    def __post_init__(self) -> None:
        h = 0
        for s in self.steps:
            if s == "U":
                h += 1
            elif s == "D":
                h -= 1
            else:
                raise ValueError(f"steps must be 'U' or 'D', got {s!r}")
            if h < 0:
                raise ValueError("path dips below the axis")
        if h != 0:
            raise ValueError("path must return to the axis")

    @property
    def semilength(self) -> int:
        return len(self.steps) // 2

    @property
    def height(self) -> int:
        h = peak = 0
        for s in self.steps:
            h += 1 if s == "U" else -1
            peak = max(peak, h)
        return peak

    @property
    def word(self) -> str:
        return "".join(self.steps)


@dataclass(frozen=True)
class DyckConstraint:
    """Selects Dyck paths of height <= m-1 and semilength m-1-b+u whose
    first a steps go up and last m-1-b steps go down."""

    m: int
    a: int
    b: int
    u: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("need m >= 1")
        if not (0 <= self.a <= self.m - 1 and 0 <= self.b <= self.m - 1):
            raise ValueError(f"need 0 <= a, b <= m-1, got a={self.a}, b={self.b}")
        if self.a + self.b > self.m - 1:
            raise ValueError(f"need a+b <= m-1, got a={self.a}, b={self.b}, m={self.m}")
        if self.u < 0:
            raise ValueError("excess u must be nonnegative")

    @property
    def semilength(self) -> int:
        return self.m - 1 - self.b + self.u

    @property
    def walk_length(self) -> int:
        # the bijection's walk from a to m-1-b: the m-1-a-b steps between
        # them plus an up/down pair per unit of excess
        return self.m - 1 - self.a - self.b + 2 * self.u


def matching_count(r: int, j: int) -> int:
    """Number of j-edge matchings in the path graph on r vertices."""
    if r < 0 or j < 0:
        raise ValueError("arguments must be nonnegative")
    if r - j < j:
        return 0
    return math.comb(r - j, j)


def enumerate_matchings(r: int, j: int) -> list[tuple[tuple[int, int], ...]]:
    """All j-edge matchings of the r-vertex path, edges as (i, i+1) pairs,
    in lexicographic order.  Guarded brute force: r <= 20."""
    if r < 0 or j < 0:
        raise ValueError("arguments must be nonnegative")
    if r > _MAX_MATCHING_VERTICES:
        raise ValueError(f"enumeration limited to r <= {_MAX_MATCHING_VERTICES}")
    edges = [(i, i + 1) for i in range(1, r)]
    out = []
    for combo in combinations(edges, j):
        # edges (i, i+1) and (i', i'+1) are disjoint iff |i - i'| >= 2
        if all(b[0] - a[0] >= 2 for a, b in zip(combo, combo[1:])):
            out.append(combo)
    return out


def strip_walk_counts(m: int, a: int, b: int, L: int) -> list[int]:
    """Walks from a to b on the strip of every length 0..L, by transfer
    matrix.

    One exact integer vector of length m is pushed through L steps and
    its entry at b is read after each, so all L+1 counts together cost
    O(L*m) and L in the hundreds is cheap.

    >>> strip_walk_counts(3, 0, 2, 6)
    [0, 0, 1, 0, 2, 0, 4]
    """
    _check_strip_args(m, a, b)
    if L < 0:
        raise ValueError("length must be nonnegative")
    v = [0] * m
    v[a] = 1
    out = [v[b]]
    for _ in range(L):
        nxt = [0] * m
        for h, c in enumerate(v):
            if c:
                if h > 0:
                    nxt[h - 1] += c
                if h < m - 1:
                    nxt[h + 1] += c
        v = nxt
        out.append(v[b])
    return out


def strip_walk_count(m: int, a: int, b: int, L: int) -> int:
    """Walks of length L from a to b on the strip: the last entry of
    strip_walk_counts."""
    return strip_walk_counts(m, a, b, L)[L]


def strip_walk_count_dfs(m: int, a: int, b: int, L: int) -> int:
    """Same count by brute force, meeting in the middle, no memoization.

    Every half-walk of floor(L/2) steps from a and every half-walk of
    ceil(L/2) steps from b is enumerated one by one by depth-first search
    and tallied by its end height; a walk from a to b is one half from
    each side sharing that middle height, the second read backwards, so
    the count is the sum of the products of the two tallies.  Counting
    only, nothing materialized, so it reaches lengths the enumeration
    guard refuses.  Still exponential work in L/2; caller bounds it.
    """
    _check_strip_args(m, a, b)
    if L < 0:
        raise ValueError("length must be nonnegative")
    if abs(a - b) > L or (L - abs(a - b)) % 2:
        return 0
    first = L // 2
    left = _half_walk_ends(m, a, first, b, L - first)
    right = _half_walk_ends(m, b, L - first, a, first)
    return sum(x * y for x, y in zip(left, right))


def _half_walk_ends(
    m: int, start: int, steps: int, other: int, rest: int
) -> list[int]:
    """Number of walks of the given steps from start on the strip, by end
    height, keeping only those whose end is within rest steps of other.

    Depth-first search over single walks; a prefix is cut as soon as
    other is out of reach, and every surviving leaf counts one walk.
    """
    top = m - 1
    ends = [0] * m
    stack = [(start, steps)]
    push = stack.append
    pop = stack.pop
    while stack:
        h, rem = pop()
        if rem == 0:
            ends[h] += 1
            continue
        # parity of the distance to other is fixed by the root check, so
        # only reachability needs testing
        rem1 = rem - 1
        reach = rem1 + rest
        d = h - 1
        if d >= 0 and (other - d if other > d else d - other) <= reach:
            push((d, rem1))
        u = h + 1
        if u <= top and (other - u if other > u else u - other) <= reach:
            push((u, rem1))
    return ends


def enumerate_strip_walks(m: int, a: int, b: int, L: int) -> list[StripWalk]:
    """All walks as height words, lexicographic.  Guarded: L <= 24."""
    _check_strip_args(m, a, b)
    if L < 0:
        raise ValueError("length must be nonnegative")
    if L > _MAX_WALK_LENGTH:
        raise ValueError(f"enumeration limited to L <= {_MAX_WALK_LENGTH}")
    out: list[StripWalk] = []
    path = [a]

    def go(h: int, rem: int) -> None:
        if rem == 0:
            if h == b:
                out.append(StripWalk(m, tuple(path)))
            return
        for nh in (h - 1, h + 1):
            if (
                0 <= nh <= m - 1
                and abs(nh - b) <= rem - 1
                and (rem - 1 - abs(nh - b)) % 2 == 0
            ):
                path.append(nh)
                go(nh, rem - 1)
                path.pop()

    go(a, L)
    return out


@lru_cache(maxsize=None)
def full_height_count(m: int, u: int) -> int:
    """B_m(u) = D_m(0,0;u): walks from 0 to m-1 of excess u."""
    return strip_walk_count(m, 0, m - 1, DyckConstraint(m, 0, 0, u).walk_length)


def dyck_count(c: DyckConstraint) -> int:
    """D_m(a,b;u), counted through the walk bijection."""
    return strip_walk_count(c.m, c.a, c.m - 1 - c.b, c.walk_length)


def dyck_counts(c: DyckConstraint) -> list[int]:
    """D_m(a,b;u) for every excess u = 0..c.u, read from one pass of the
    transfer matrix: each unit of excess less is two steps shorter.

    >>> dyck_counts(DyckConstraint(4, 1, 1, 3))
    [1, 3, 8, 21]
    """
    L = c.walk_length
    return strip_walk_counts(c.m, c.a, c.m - 1 - c.b, L)[L - 2 * c.u :: 2]


def enumerate_dyck(c: DyckConstraint) -> list[DyckPath]:
    """All paths selected by the constraint, lexicographic by step word
    (D before U).  Guarded brute force: semilength <= 12."""
    if c.semilength > _MAX_DYCK_SEMILENGTH:
        raise ValueError(
            f"enumeration limited to semilength <= {_MAX_DYCK_SEMILENGTH}"
        )
    total = 2 * c.semilength
    forced_down_from = total - (c.m - 1 - c.b)
    out: list[DyckPath] = []
    steps: list[str] = []

    def go(pos: int, h: int) -> None:
        if pos == total:
            if h == 0:
                out.append(DyckPath(tuple(steps)))
            return
        rem = total - pos
        if pos < c.a:
            choices = "U"
        elif pos >= forced_down_from:
            choices = "D"
        else:
            choices = "DU"
        for s in choices:
            nh = h + (1 if s == "U" else -1)
            if 0 <= nh <= c.m - 1 and nh <= rem - 1 and (rem - 1 - nh) % 2 == 0:
                steps.append(s)
                go(pos + 1, nh)
                steps.pop()

    go(0, 0)
    return out


def walk_to_dyck(walk: StripWalk, c: DyckConstraint) -> DyckPath:
    """U^a, then the walk's step word, then D^(m-1-b)."""
    if walk.m != c.m:
        raise ValueError("walk and constraint disagree on m")
    if walk.heights[0] != c.a or walk.heights[-1] != c.m - 1 - c.b:
        raise ValueError(
            f"walk must run from a={c.a} to m-1-b={c.m - 1 - c.b}, "
            f"got {walk.heights[0]} to {walk.heights[-1]}"
        )
    if walk.length != c.walk_length:
        raise ValueError(
            f"walk length {walk.length} does not match excess u={c.u}"
        )
    middle = tuple(
        "U" if v > u else "D" for u, v in zip(walk.heights, walk.heights[1:])
    )
    return DyckPath(("U",) * c.a + middle + ("D",) * (c.m - 1 - c.b))


def dyck_to_walk(path: DyckPath, c: DyckConstraint) -> StripWalk:
    """Strip the forced prefix and suffix; read the rest as heights."""
    tail = c.m - 1 - c.b
    if path.semilength != c.semilength:
        raise ValueError(
            f"path semilength {path.semilength} does not match constraint "
            f"{c.semilength}"
        )
    if path.height > c.m - 1:
        raise ValueError(f"path height {path.height} exceeds bound {c.m - 1}")
    if any(s != "U" for s in path.steps[: c.a]):
        raise ValueError(f"first {c.a} steps must be up-steps")
    if tail and any(s != "D" for s in path.steps[len(path.steps) - tail :]):
        raise ValueError(f"last {tail} steps must be down-steps")
    heights = [c.a]
    for s in path.steps[c.a : len(path.steps) - tail]:
        heights.append(heights[-1] + (1 if s == "U" else -1))
    return StripWalk(c.m, tuple(heights))


def continuant_det(m: int) -> IntPolynomial:
    """det(I - s*A_m) for the path-graph adjacency matrix A_m, expanded
    by generic minor expansion over exact polynomial entries.

    Kept deliberately independent of the p recurrence: the identity
    det(I - s*A_m) = p_m(s^2) is a cross-check, not a definition.
    """
    if m < 1:
        raise ValueError("need m >= 1")

    @lru_cache(maxsize=None)
    def minor(mask: int) -> IntPolynomial:
        if mask == 0:
            return ONE
        row = m - bin(mask).count("1")
        acc = ZERO
        sign = 1
        for j in range(m):
            bit = 1 << j
            if not mask & bit:
                continue
            # entry (row, j) times its cofactor sign: 1 on the diagonal, -s
            # beside it, 0 elsewhere
            if abs(row - j) <= 1:
                e = IntPolynomial((sign,) if row == j else (0, -sign))
                acc = poly_add(acc, poly_mul(e, minor(mask & ~bit)))
            sign = -sign
        return acc

    return minor((1 << m) - 1)


def _check_strip_args(m: int, a: int, b: int) -> None:
    if m < 1:
        raise ValueError("strip needs m >= 1")
    if not (0 <= a <= m - 1 and 0 <= b <= m - 1):
        raise ValueError(f"vertices must lie in [0, {m - 1}], got a={a}, b={b}")
