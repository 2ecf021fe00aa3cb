"""Seeded query streams for the three workloads.

Operation i takes the choices that set its cost (request kind, order,
size, level, format, how many parts equal m) from the i-th point of the
Halton sequence in bases 2, 3, 5, 7, 11, 13, 17, and every other detail (the
parts below m, mu0, verify seeds, family middle parts) from
random.Random(seed).  Every prefix of a Halton sequence covers the unit cube
evenly, so a run that stops at its time limit after an unknown number of
operations still holds the intended mix, and runs on different seeds hold
the same mix of costs while their inputs differ.  That is what keeps the
spread between seeds small.  A few hundred operations with costs from a
millisecond to a second cannot do that on their own: with the Halton points
shifted at random per seed, the dozen operations at the top of the cost
range change from seed to seed and move every metric by 10-25 %.

Streams are endless generators, so a faster program never runs out.

The generator parameters live in ``sheet.json`` next to this file, which is
also the reference sheet for the workloads and their metrics.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from pathlib import Path
from typing import Iterator, NamedTuple

SHEET = json.loads((Path(__file__).parent / "sheet.json").read_text())
_BASES = (2, 3, 5, 7, 11, 13, 17)


class Op(NamedTuple):
    """One request: ``cli`` ops carry an argv for ``chebflag.cli.main``;
    ``three_way`` and ``walks`` ops carry library call arguments."""

    kind: str
    args: tuple


def _radical_inverse(i: int, base: int) -> float:
    inv, f = 0.0, 1.0 / base
    while i:
        i, digit = divmod(i, base)
        inv += digit * f
        f /= base
    return inv


def _points():
    for i in itertools.count(1):
        yield [_radical_inverse(i, b) for b in _BASES]


def _pick(u: float, lo: int, hi: int) -> int:
    """Integer in [lo, hi] from u in [0, 1)."""
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


def _xi(parts) -> str:
    return ",".join(map(str, sorted(parts, reverse=True)))


@functools.lru_cache(maxsize=None)
def order_cap(k: int, m: int) -> int:
    """Largest order at most the ceiling whose predicted cost is within
    the budget.  The cost model was fitted to ``expand`` on a 2-CPU x86
    machine under CPython 3.11: decimal conversion grows like order^2.7 and
    stops at the first coefficient past 4300 digits (about order 7200);
    division grows like order^2 times (k * floor(m/2))^1.7.  It shapes the
    stream only; no timing feeds back into the inputs."""
    p = SHEET["workloads"]["expand_deep"]["params"]
    c = p["cost_model"]
    d = k * (m // 2)

    def cost(n: int) -> float:
        conv = c["str_s_at_6000"] * (min(n, c["str_fail_order"]) / 6000) ** c["str_exp"]
        div = c["div_s_per_order2_at_d48"] * (d / 48) ** c["div_d_exp"] * n * n
        return conv + div

    lo, hi = p["order"]
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if cost(mid) <= c["budget_s"] else (lo, mid - 1)
    return lo


def _even_parts(rng: random.Random, top: int):
    """Endless parts in 1..top from a golden-ratio sequence started at a
    seeded point: they differ between seeds, yet every run of them spreads
    evenly over 1..top, so partitions of one size cost nearly the same."""
    v = rng.random()
    while True:
        yield 1 + int(v * top)
        v = (v + 0.6180339887498949) % 1.0


def _kind(u: float, mix: dict) -> str:
    """Request kind from u in [0, 1).  Each kind is drawn in proportion to
    its target share of operation time over its mean operation time, so at
    the commit where the means were measured the kinds take those shares."""
    weights = {k: share / mix["mean_ms"][k] for k, share in mix["time_share"].items()}
    total, acc = sum(weights.values()), 0.0
    for kind, weight in weights.items():
        acc += weight / total
        if u < acc:
            return kind
    return kind


def _format(u: float, p: dict) -> str:
    return p["formats"][_pick(u, 0, len(p["formats"]) - 1)]


def expand_deep(seed: int) -> Iterator[Op]:
    p = SHEET["workloads"]["expand_deep"]["params"]
    rng = random.Random(seed)
    for u_order, u_k, u_m, u_fmt, u_t, *_ in _points():
        k = _pick(u_k, *p["k"])
        m = _pick(u_m, *p["m"])
        t = _pick(u_t, 0, p["parts"][1])
        parts = [m] * t + [rng.randint(1, m - 1) for _ in range(rng.randint(0, p["parts"][1] - t))]
        mu = (k - 1 + t) * m + rng.randrange(m)
        lo, cap = p["order"][0], order_cap(k, m)
        order = round(lo * (cap / lo) ** u_order)
        yield Op("cli", ("expand", "--xi", _xi(parts), "--m", str(m), "--mu", str(mu),
                         "--order", str(order), "--format", _format(u_fmt, p)))


def mult_table(seed: int) -> Iterator[Op]:
    p = SHEET["workloads"]["mult_table"]["params"]
    rng = random.Random(seed)
    for u_kind, u_size, u_m, u_n, u_fmt, u_t, _ in _points():
        m = _pick(u_m, *p["m"])
        size = _pick(u_size, *p["size"])
        parts = [m] * min(_pick(u_t, *p["parts_equal_m"]), (size - 1) // m)
        fill = _even_parts(rng, m - 1)  # below m, so t is the drawn one
        while sum(parts) < size:
            parts.append(next(fill))
        parts[-1] -= sum(parts) - size
        xi = _xi(parts)
        kind = _kind(u_kind, p["mix"])
        if kind == "mult":
            n = size - 2 * _pick(u_n, 0, size // 2)
            argv = ("mult", "--xi", xi, "--m", str(m), "--n", str(n))
        elif kind == "classify":
            argv = ("classify", "--xi", xi, "--m", str(m), "--mu", str(_pick(u_n, 0, size)))
        else:
            stride = _pick(u_n, *p["table_stride"])
            grid = (f"0..{size}" if stride == 1
                    else ",".join(map(str, range(0, size + 1, stride))))
            argv = ("table", "--xi", xi, "--m", str(m), "--n", grid)
        yield Op("cli", argv + ("--format", _format(u_fmt, p)))


def _walk_length_cap(m: int, p: dict) -> int:
    # depth-first search visits about lambda^L nodes, lambda = 2cos(pi/(m+1))
    lam = 2 * math.cos(math.pi / (m + 1))
    lo, hi = p["walk_length"]
    if lam <= 1:
        return hi
    return max(lo, min(hi, int(math.log(p["walk_nodes"]) / math.log(lam))))


def crosscheck(seed: int) -> Iterator[Op]:
    p = SHEET["workloads"]["crosscheck"]["params"]
    rng = random.Random(seed)
    for u_kind, u_size, u_m, u_fmt, u_sub, u_six, u_seven in _points():
        fmt = _format(u_fmt, p)
        kind = _kind(u_kind, p["mix"])
        if kind == "verify":
            yield Op("cli", ("verify", "--seed", str(rng.randrange(10**6)), "--format", fmt))
        elif kind == "families":
            m = _pick(u_m, *p["family_m"])
            family = "abc"[_pick(u_sub, 0, 2)]
            # |middles| + s is drawn, not s, so that N and q, which set the
            # cost, do not depend on the seeded middle parts
            base = _pick(u_size, 2 * m, p["family_s_per_m"] * m)
            middles = {"a": [], "b": [rng.randint(1, m - 1)],
                       "c": [rng.randint(1, m - 1) for _ in range(_pick(u_seven, 2, 3))]}[family]
            mids = ("--r" if family == "b" else "--rs", ",".join(map(str, middles))) if middles else ()
            t, s = rng.randint(*p["family_t"]), base - sum(middles)
            N = _pick(u_six, 0, base // 2)
            yield Op("cli", ("families", "--kind", family, "--m", str(m), "--t", str(t),
                             "--s", str(s), *mids, "--N", str(N), "--format", fmt))
        elif kind == "three_way":
            m = _pick(u_m, *p["three_way_m"])
            k = _pick(u_sub, *p["three_way_k"])
            fill = _even_parts(rng, m)
            parts = [next(fill) for _ in range(_pick(u_six, *p["three_way_parts"]))]
            if k == 0 and m not in parts:
                parts[0] = m
            mu = (k - 1 + parts.count(m)) * m + _pick(u_seven, 0, m - 1)
            r = _pick(u_size, *p["three_way_r"])
            yield Op("three_way", (tuple(sorted(parts, reverse=True)), m, mu, r))
        else:
            m = _pick(u_m, *p["walk_m"])
            a, b = _pick(u_sub, 0, m - 1), _pick(u_six, 0, m - 1)
            L = _pick(u_size, p["walk_length"][0], _walk_length_cap(m, p))
            yield Op("walks", (m, a, b, L + (L - abs(a - b)) % 2))


GENERATORS = {"expand_deep": expand_deep, "mult_table": mult_table,
              "crosscheck": crosscheck}
