"""The benchmark's own route to every value chebflag reports.

Series arithmetic is done modulo M = (2^61 - 1)(2^31 - 1), a product of two
fixed primes, so a residue mod M is the pair of residues mod each prime.
The same functions with ``mod=None`` work in exact integers; the classify
check uses them, because a positivity threshold depends on signs.
The Chebyshev-type polynomials come from the closed form
[x^j] p_r = (-1)^j C(r-j, j); the quotient is the plain power series of
p_{m-mu0-1} * prod p_part / p_m^(mu1+1), divided one factor p_m at a time.
Nothing here imports chebflag, and no cancellation bookkeeping is shared
with it: parts equal to m stay in the numerator and cancel in the series.

The ``check_*`` functions take an operation's arguments and its captured
output and return None when the output agrees, or a one-line reason.
"""

from __future__ import annotations

import csv
import io
import json
import math
from operator import mul

M = (2**61 - 1) * (2**31 - 1)


def _reduce(values, mod: int | None) -> list[int]:
    return list(values) if mod is None else [c % mod for c in values]


def p_mod(r: int, mod: int | None = M) -> list[int]:
    """Coefficients of p_r mod ``mod``, little-endian, from the closed form."""
    return _reduce(((-1) ** j * math.comb(r - j, j) for j in range(r // 2 + 1)), mod)


def mul_mod(a: list[int], b: list[int], length: int, mod: int | None = M) -> list[int]:
    """Product of two series mod ``mod``, truncated to ``length`` coefficients."""
    out = [0] * min(length, len(a) + len(b) - 1)
    for i, x in enumerate(a[:length]):
        if x:
            for j, y in enumerate(b[: length - i]):
                out[i + j] += x * y
    return _reduce(out, mod)


def div_pm(s: list[int], m: int, mod: int | None = M) -> list[int]:
    """s / p_m as a series mod ``mod``, same length as s (p_m has constant 1)."""
    tail = p_mod(m, mod)[1:]
    d = len(tail)
    rev = tail[::-1]
    out = []
    for n, c in enumerate(s):
        if n >= d:
            c -= sum(map(mul, rev, out[n - d : n]))
        else:
            c -= sum(map(mul, tail[:n], reversed(out)))
        out.append(c if mod is None else c % mod)
    return out


def numerator_mod(parts, length: int, mod: int | None = M) -> list[int]:
    acc = [1]
    for part in parts:
        acc = mul_mod(acc, p_mod(part, mod), length, mod)
    return acc + [0] * (length - len(acc))


def quotient_mod(parts, m: int, mu: int, order: int, mod: int | None = M) -> list[int]:
    """a_0..a_order of p_{m-mu0-1} p_xi / p_m^(mu1+1), mod ``mod``."""
    mu1, mu0 = divmod(mu, m)
    s = numerator_mod((m - mu0 - 1, *parts), order + 1, mod)
    for _ in range(mu1 + 1):
        s = div_pm(s, m, mod)
    return s


class Multiplicities:
    """Multiplicities of one partition at many n, sharing the layers
    p_xi / p_m^(j+1) between all n with the same mu1 = n // m."""

    def __init__(self, parts, m: int) -> None:
        self.parts, self.m = tuple(parts), m
        self.size = sum(parts)
        self.layers = [numerator_mod(self.parts, self.size // 2 + 1)]

    def at(self, n: int) -> int:
        gap = self.size - n
        if n < 0 or gap < 0 or gap % 2:
            return 0
        idx = gap // 2
        mu1, mu0 = divmod(n, self.m)
        while len(self.layers) <= mu1 + 1:
            self.layers.append(div_pm(self.layers[-1], self.m))
        layer = self.layers[mu1 + 1]
        head = p_mod(self.m - mu0 - 1)
        return sum(c * layer[idx - j] for j, c in enumerate(head[: idx + 1])) % M


class Oracle:
    """Holds the multiplicity layers of the most recent partition only, so
    memory stays flat over a long stream."""

    def __init__(self) -> None:
        self._mult: Multiplicities | None = None

    def multiplicity(self, parts, m: int, n: int) -> int:
        parts = tuple(sorted(parts, reverse=True))
        if self._mult is None or (self._mult.parts, self._mult.m) != (parts, m):
            self._mult = Multiplicities(parts, m)
        return self._mult.at(n)


def strip_walks_mod(m: int, a: int, b: int, L: int) -> int:
    """Walks of length L from a to b on {0..m-1}, mod M, read off
    p_a p_{m-1-b} / p_m at index (L - (b - a)) / 2 for a <= b."""
    a, b = min(a, b), max(a, b)
    if L < b - a or (L - (b - a)) % 2:
        return 0
    r = (L - (b - a)) // 2
    s = numerator_mod((a, m - 1 - b), r + 1)
    return div_pm(s, m)[r]


def classify_kind(parts, m: int, mu: int) -> tuple[str, int | None]:
    """The positivity class and degree bound straight from (xi, m, mu):
    m = 1 is the constant 1; when the parts equal to m cancel every power
    of p_m the quotient is a polynomial; otherwise the pole at the
    smallest root of p_m makes it eventually positive."""
    if m == 1:
        return "constant_one", None
    mu1, mu0 = divmod(mu, m)
    t = sum(1 for p in parts if p == m)
    if t >= mu1 + 1:
        alphas = (m - mu0 - 1,) + tuple(p for p in parts if p < m)
        return "polynomial", (sum(alphas) + (t - mu1 - 1) * m) // 2
    return "eventually_positive", None


def default_horizon(parts, m: int, mu: int) -> int:
    """The sweep order classify uses when no --horizon is given: past the
    polynomial degree bound, and 4m(k+1) + 40 deep for k = mu1 + 1 - t."""
    mu1, mu0 = divmod(mu, m)
    t = sum(1 for p in parts if p == m)
    k = mu1 + 1 - t
    alphas = (m - mu0 - 1,) + tuple(p for p in parts if p < m)
    return max((sum(alphas) + max(-k, 0) * m) // 2, 4 * m * (max(k, 0) + 1) + 40)


def threshold_reason(parts, m: int, mu: int, horizon: int, r0: int | None) -> str | None:
    """None when r0 is the smallest index with a_r > 0 for every r from r0
    through the horizon (None when a_horizon itself is not positive),
    checked on the exact coefficients; else a one-line reason."""
    a = quotient_mod(parts, m, mu, horizon, mod=None)
    if r0 is None:
        return None if a[horizon] <= 0 else f"threshold missing, a_{horizon} > 0"
    if not 0 <= r0 <= horizon:
        return f"threshold {r0} outside 0..{horizon}"
    if r0 > 0 and a[r0 - 1] > 0:
        return f"threshold {r0} not the smallest: a_{r0 - 1} > 0"
    bad = next((r for r in range(r0, horizon + 1) if a[r] <= 0), None)
    return None if bad is None else f"threshold {r0}, but a_{bad} <= 0"


def family_kind(parts, m: int) -> str:
    mids = sum(1 for p in parts if 1 < p < m)
    return "a" if mids == 0 else ("b" if mids == 1 else "c")


# -- argv and output parsing -------------------------------------------------


def parse_argv(argv) -> tuple[str, dict[str, str]]:
    opts = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        opts[flag.lstrip("-")] = value
    return argv[0], opts


def _parts(text: str) -> tuple[int, ...]:
    return tuple(sorted((int(p) for p in text.split(",") if p), reverse=True))


def _grid(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(p) for p in text.split(",")]


def _tokens(out: io.BufferedIOBase, sep: bytes):
    """Split a captured output, from its current position on, into tokens
    without copying it whole."""
    carry = b""
    while chunk := out.read(1 << 16):
        pieces = (carry + chunk).split(sep)
        carry = pieces.pop()
        yield from pieces
    yield carry


def expansion_tokens(out, fmt: str):
    """The coefficient strings of an ``expand`` output, in index order."""
    out.seek(0)
    if fmt == "json":
        inside = False
        for line in _tokens(out, b"\n"):
            line = line.strip()
            if line.startswith(b'"coefficients"'):
                inside = not line.endswith(b"[]")
            elif inside:
                if line.startswith(b"]"):
                    inside = False
                else:
                    yield line.rstrip(b",").strip(b'"')
    elif fmt == "csv":
        lines = _tokens(out, b"\n")
        if next(lines) != b"r,coefficient":
            raise ValueError("csv header")
        for want, line in enumerate(lines):
            if line:
                r, c = line.split(b",")
                if int(r) != want:
                    raise ValueError(f"csv row {int(r)} at position {want}")
                yield c
    else:
        out.readline()  # the spec header, whose lists hold commas too
        for tok in _tokens(out, b","):
            if tok.strip():
                yield tok


def check_expand(opts, out, fmt) -> str | None:
    order = int(opts["order"])
    want = quotient_mod(_parts(opts["xi"]), int(opts["m"]), int(opts["mu"]), order)
    n = 0
    for n, tok in enumerate(expansion_tokens(out, fmt), 1):
        if n > order + 1:
            return f"more than order+1 = {order + 1} coefficients"
        if int(tok) % M != want[n - 1]:
            return f"coefficient {n - 1} disagrees with the modular route"
    if n != order + 1:
        return f"{n} coefficients, expected {order + 1}"
    return None


def _text(out) -> str:
    out.seek(0)
    return out.read().decode("utf-8")


def _records(out, fmt: str) -> list[dict]:
    text = _text(out)
    if fmt == "json":
        obj = json.loads(text)
        return obj if isinstance(obj, list) else [obj]
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    return [{"line": line} for line in text.splitlines()]


def check_mult(opts, out, fmt, oracle: Oracle) -> str | None:
    parts, m, n = _parts(opts["xi"]), int(opts["m"]), int(opts["n"])
    rec = _records(out, fmt)
    if fmt == "text":
        got = rec[0]["line"].rsplit("= ", 1)[1]
    else:
        got = rec[0]["multiplicity"]
    if int(got) % M != oracle.multiplicity(parts, m, n):
        return f"multiplicity at n={n} disagrees with the modular route"
    return None


def check_table(opts, out, fmt, oracle: Oracle) -> str | None:
    parts, m = _parts(opts["xi"]), int(opts["m"])
    grid = _grid(opts["n"])
    rows = _records(out, fmt)
    if len(rows) != len(grid):
        return f"{len(rows)} rows for {len(grid)} grid points"
    fam = family_kind(parts, m)
    for n, row in zip(grid, rows):
        if fmt == "text":
            fields = dict(f.split("=", 1) for f in row["line"].split(" ")[1:])
            row = {"n": fields["n"], "multiplicity": fields["mult"],
                   "positivity": fields["class"], "family": fields["family"]}
        if int(row["n"]) != n:
            return f"row for n={row['n']} where n={n} was asked"
        if int(row["multiplicity"]) % M != oracle.multiplicity(parts, m, n):
            return f"table multiplicity at n={n} disagrees with the modular route"
        kind = classify_kind(parts, m, n)[0] if n >= 0 else ""
        if row["positivity"] != kind:
            return f"class {row['positivity']!r} at n={n}, expected {kind!r}"
        if row["family"] != fam:
            return f"family {row['family']!r}, expected {fam!r}"
    return None


def _optional_int(text: str) -> int | None:
    return None if text in ("", "unresolved") else int(text)


def check_classify(opts, out, fmt) -> str | None:
    """Class and degree bound from (xi, m, mu); for an eventually positive
    quotient also the horizon and the empirical threshold, the latter on
    exact coefficients."""
    parts, m, mu = _parts(opts["xi"]), int(opts["m"]), int(opts["mu"])
    kind, bound = classify_kind(parts, m, mu)
    if fmt == "json":
        got = json.loads(_text(out))
        got_kind, got_bound = got["class"], got["degree_bound"]
        horizon, r0 = got["horizon"], got["threshold"]
    elif fmt == "csv":
        got = _records(out, fmt)[0]
        got_kind = got["class"]
        got_bound = _optional_int(got["degree_bound"])
        horizon, r0 = int(got["horizon"]), _optional_int(got["threshold"])
    else:
        lines = _text(out).splitlines()
        got_kind = lines[0].rsplit("class=", 1)[1]
        got_bound = int(lines[1].split()[-1]) if got_kind == "polynomial" else None
        horizon = r0 = None
        if got_kind == "eventually_positive":
            head, tail = lines[1].split(" through horizon ")
            horizon = int(tail.split()[0])
            r0 = _optional_int(head.rsplit("r0=", 1)[1])
    if (got_kind, got_bound) != (kind, bound):
        return f"class {got_kind}/{got_bound}, expected {kind}/{bound}"
    want = int(opts["horizon"]) if "horizon" in opts else default_horizon(parts, m, mu)
    if horizon is not None and horizon != want:
        return f"horizon {horizon}, expected {want}"
    if kind != "eventually_positive":
        return None if r0 is None else f"threshold {r0} for class {kind}"
    return threshold_reason(parts, m, mu, want, r0)


def check_families(opts, out, fmt, oracle: Oracle) -> str | None:
    m, t, s, N = (int(opts[k]) for k in ("m", "t", "s", "N"))
    kind = opts["kind"]
    mids = {"a": (), "b": _parts(opts.get("r", "")), "c": _parts(opts.get("rs", ""))}[kind]
    parts = (m,) * t + mids + (1,) * s
    if fmt == "json":
        got = json.loads(_text(out))["multiplicity"]
    elif fmt == "csv":
        got = _records(out, fmt)[0]["multiplicity"]
    else:
        got = _text(out).rstrip("\n").rsplit("multiplicity: ", 1)[1]
    want = oracle.multiplicity(parts, m, sum(parts) - 2 * N)
    if int(got) % M != want:
        return f"family multiplicity at N={N} disagrees with the modular route"
    return None


_SUITES = ("matchings", "walk_counts", "walk_quotient", "bijection",
           "three_way", "families", "continuant", "golden")


def check_verify(opts, out, fmt) -> str | None:
    text = _text(out)
    if fmt == "json":
        obj = json.loads(text)
        suites = [(s["name"], s["checks"], s["failures"]) for s in obj["suites"]]
        ok = obj["ok"]
    else:
        lines = text.splitlines()
        suites = []
        for line in lines[:-1]:
            name, rest = line.split(": ", 1)
            fields = dict(f.split("=") for f in rest.split()[:2])
            suites.append((name, int(fields["checks"]), int(fields["failures"])))
        ok = lines[-1] == "PASS"
    if tuple(s[0] for s in suites) != _SUITES:
        return f"suites {[s[0] for s in suites]}"
    if not ok or any(s[2] for s in suites) or not all(s[1] for s in suites):
        return "verify reported a failing or empty suite"
    return None


DIGIT_LIMIT = 4300  # CPython's default limit on int <-> decimal str conversion


def check_digit_limit(argv, out) -> str | None:
    """None when an exit for CPython's digit limit is exactly the known
    defect: the command is ``expand``, some a_r through the order has more
    than 4300 digits on the exact coefficients, and the output holds only
    what the format writes before the first such a_r (nothing for json,
    the header line for text, the rows before it, each exact, for csv).
    Else a one-line reason."""
    command, opts = parse_argv(argv)
    if command != "expand":
        return f"digit-limit exit from {command!r}"
    order = int(opts["order"])
    a = quotient_mod(_parts(opts["xi"]), int(opts["m"]), int(opts["mu"]), order, mod=None)
    limit = 10**DIGIT_LIMIT
    first = next((r for r, c in enumerate(a) if abs(c) >= limit), None)
    if first is None:
        return f"digit-limit exit, yet no a_r through order {order} passes {DIGIT_LIMIT} digits"
    fmt = opts.get("format", "text")
    if fmt == "csv":
        n = 0
        for n, tok in enumerate(expansion_tokens(out, fmt), 1):
            if n > first or int(tok) != a[n - 1]:
                return f"partial csv row {n - 1} wrong or past the first long a_r ({first})"
        return None if n == first else f"partial csv has {n} rows, expected {first}"
    lines = _text(out).splitlines()
    if len(lines) != (fmt == "text"):
        return f"{len(lines)} lines of {fmt} output before the digit-limit exit"
    return None


def check_cli(argv, rc: int, out, oracle: Oracle) -> str | None:
    command, opts = parse_argv(argv)
    if rc != 0:
        return f"exit code {rc}"
    fmt = opts.get("format", "text")
    if command == "expand":
        return check_expand(opts, out, fmt)
    if command == "mult":
        return check_mult(opts, out, fmt, oracle)
    if command == "table":
        return check_table(opts, out, fmt, oracle)
    if command == "classify":
        return check_classify(opts, out, fmt)
    if command == "families":
        return check_families(opts, out, fmt, oracle)
    if command == "verify":
        return check_verify(opts, out, fmt)
    return f"no check for {command!r}"


def check_three_way(args, values) -> str | None:
    parts, m, mu, r = args
    division, signed, product = values
    if division != signed or (product is not None and product != division):
        return f"routes disagree: {division}, {signed}, {product}"
    if division % M != quotient_mod(parts, m, mu, r)[r]:
        return f"coefficient {r} disagrees with the modular route"
    return None


def check_walks(args, values) -> str | None:
    m, a, b, L = args
    transfer, dfs = values
    if transfer != dfs or transfer % M != strip_walks_mod(m, a, b, L):
        return f"walk counts {transfer}, {dfs} against the modular route"
    return None
