"""Command line surface.

Subcommands: expand, mult, classify, verify, families, table.
Formats: text (default), json, csv.  Big integers are serialized as
decimal strings in json and csv so downstream consumers never lose
precision.  Output is byte-deterministic for a fixed config and seed.
Each command returns an Output, and one writer prints the field of the
format asked for.  ``verify --format csv`` prints the text report.

``expand`` prints quotient.expand_decimal's strings: past a measured
crossover they come from a division chain run in exact decimal.Decimal,
whose str() is linear where an int's is quadratic, and decimal is
imported only then, so importing this module loads neither decimal nor
fractions.  The exit 3 at the first coefficient past CPython's digit limit
stays: the benchmark's check of expand output parses each coefficient
with int(), which has the same limit.

Exit status: 0 success, 2 usage or parse error, 3 domain error (for
example a part exceeding the level, or a malformed golden file),
4 resource ceiling exceeded, 5 verification mismatch (a failing suite,
or two routes disagreeing on one value), 141 stdout closed by its reader
(nothing is written to stderr).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import chain
from types import SimpleNamespace
from typing import Iterable, Iterator

from .chebpoly import Partition
from .families import (
    FamilyQuery,
    VerificationError,
    family_kind_of,
    family_multiplicity,
    family_quotient,
)
from .quotient import (
    classify,
    coefficient_index,
    default_order,
    expand_decimal,
    make_spec,
    multiplicities,
    multiplicity,
    positivity_threshold,
)
from . import verify as verify_mod

DEFAULT_CEILING = 10_000

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_CEILING = 4
EXIT_VERIFY = 5
EXIT_PIPE = 141  # 128 + SIGPIPE


class CeilingError(Exception):
    """order, horizon, coefficient index or list length beyond the
    configured resource ceiling."""


def _parse_partition(text: str) -> tuple[int, ...]:
    if text.strip() == "":
        return ()
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad partition {text!r}") from None
    ordered = tuple(sorted(parts, reverse=True))
    if ordered != parts:
        print(
            f"warning: partition {list(parts)} reordered to nonincreasing "
            f"{list(ordered)}",
            file=sys.stderr,
        )
    return ordered


def _parse_int_list(text: str) -> range | tuple[int, ...]:
    if text.strip() == "":
        return ()
    if ".." in text:
        # kept lazy, so its length is checked against the ceiling before
        # anything is built
        lo, hi = text.split("..", 1)
        return range(int(lo), int(hi) + 1)
    return tuple(int(p) for p in text.split(","))


def _ceiling() -> int:
    raw = os.environ.get("CHEBFLAG_CEILING")
    if raw is None:
        return DEFAULT_CEILING
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"CHEBFLAG_CEILING must be a positive integer, got {raw!r}"
        )
    return value


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # built once per process; parsing keeps no state in the parser, and
    # the ceiling is read from the environment on every call instead
    ap = argparse.ArgumentParser(
        prog="chebflag",
        description="exact Chebyshev-type quotient coefficients, positivity "
        "classification, and combinatorial cross-checks",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="exact coefficients a_0..a_order")
    p.add_argument("--xi", type=_parse_partition, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--order", type=int, default=10)

    p = sub.add_parser("mult", help="one flag multiplicity")
    p.add_argument("--xi", type=_parse_partition, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("classify", help="positivity class and evidence")
    p.add_argument("--xi", type=_parse_partition, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--horizon", type=int, default=None)

    p = sub.add_parser("verify", help="run the cross-validation suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--golden", type=str, default=None)

    p = sub.add_parser("families", help="family quotient, pairs, and value")
    p.add_argument("--kind", choices=("a", "b", "c"), required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=int, default=0)
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--rs", type=_parse_int_list, default=())
    p.add_argument("--N", type=int, default=None)

    p = sub.add_parser("table", help="multiplicity table over a grid of n")
    p.add_argument("--xi", type=_parse_partition, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=_parse_int_list, required=True)

    for p in sub.choices.values():
        p.add_argument(
            "--format", dest="fmt", choices=("text", "json", "csv"), default="text"
        )
    return ap


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    ns = _build_parser().parse_args(argv)
    ns.ceiling = _ceiling()
    return ns


@dataclass(frozen=True)
class Output:
    """What a command prints, once per format, and its exit code.

    Lines carry no terminator.  The writer reads only the field of the
    format asked for, so the others, and any lazy line, are never built."""

    json: object
    csv: Iterable[str] | None
    text: Iterable[str]
    code: int = EXIT_OK


def _csv_lines(rows: Iterable[Iterable]) -> Iterator[str]:
    # writerow returns what its file's write returns, and write=str hands
    # the line back; None is written as an empty cell
    return map(csv.writer(SimpleNamespace(write=str), lineterminator="").writerow,
               rows)


def _write(out: Output, fmt: str) -> None:
    """The one writer to stdout, one line at a time, so every line before
    a failing one (a decimal conversion past CPython's digit limit) is
    kept."""
    if fmt == "json":
        # default=list expands lazy sequences such as expand's strings
        lines = [json.dumps(out.json, indent=2, default=list)]
    elif fmt == "csv" and out.csv is not None:
        lines = out.csv
    else:
        lines = out.text
    write = sys.stdout.write
    for line in lines:
        # two writes: line + "\n" would copy a json document or an expand
        # text line of megabytes
        write(line)
        write("\n")


def _spec_header(sp) -> dict:
    return dict(xi=list(sp.xi.parts), m=sp.m, mu=sp.mu, mu1=sp.mu1, mu0=sp.mu0,
                t=sp.t, k=sp.k, alphas=list(sp.alphas))


def cmd_expand(ns: argparse.Namespace) -> Output:
    if ns.order > ns.ceiling:
        raise CeilingError(f"order {ns.order} exceeds ceiling {ns.ceiling}")
    sp = make_spec(Partition(ns.xi), ns.m, ns.mu)
    # one lazy iterator of decimal strings; the writer reads one field only
    cs = expand_decimal(sp, ns.order)
    head = (f"xi={list(sp.xi.parts)} m={sp.m} mu={sp.mu} -> mu1={sp.mu1} "
            f"mu0={sp.mu0} t={sp.t} k={sp.k} alphas={list(sp.alphas)}")
    return Output(
        json={"command": "expand", **_spec_header(sp), "order": ns.order,
              "coefficients": cs},
        # integer cells never need quoting; f-strings beat csv.writer here
        csv=chain(["r,coefficient"], (f"{r},{c}" for r, c in enumerate(cs))),
        # the coefficient line is joined only when it is written
        text=chain([head], map(",".join, [cs])),
    )


def _check_length(values, flag: str, ceiling: int) -> None:
    # slicing, unlike len(), works on a range longer than sys.maxsize
    if values[ceiling:]:
        raise CeilingError(f"{flag} lists more than {ceiling} values (ceiling)")


def _check_indices(xi: Partition, grid, ceiling: int) -> None:
    # refuse a coefficient index beyond the ceiling before any work
    for n in grid:
        idx = coefficient_index(xi, n)
        if idx is not None and idx > ceiling:
            raise CeilingError(
                f"coefficient index {idx} (n={n}) exceeds ceiling {ceiling}"
            )


def cmd_mult(ns: argparse.Namespace) -> Output:
    xi = Partition(ns.xi)
    _check_indices(xi, (ns.n,), ns.ceiling)
    value = str(multiplicity(xi, ns.m, ns.n))
    return Output(
        json={"command": "mult", "xi": list(xi.parts), "m": ns.m, "n": ns.n,
              "multiplicity": value},
        csv=_csv_lines([("xi", "m", "n", "multiplicity"),
                        (",".join(map(str, xi.parts)), ns.m, ns.n, value)]),
        text=[f"V(xi={list(xi.parts)}, m={ns.m}, n={ns.n}) = {value}"],
    )


def cmd_classify(ns: argparse.Namespace) -> Output:
    if ns.horizon is not None and ns.horizon < 0:
        raise ValueError("horizon must be nonnegative")
    sp = make_spec(Partition(ns.xi), ns.m, ns.mu)
    pc = classify(sp)
    horizon = ns.horizon if ns.horizon is not None else default_order(sp)
    if horizon > ns.ceiling:
        raise CeilingError(f"horizon {horizon} exceeds ceiling {ns.ceiling}")
    threshold = None
    if pc.kind == "eventually_positive":
        threshold = positivity_threshold(sp, horizon)
    text = [f"xi={list(sp.xi.parts)} m={sp.m} mu={sp.mu} -> class={pc.kind}"]
    if pc.kind == "polynomial":
        text.append(f"degree bound {pc.degree_bound}")
    elif pc.kind == "eventually_positive":
        shown = "unresolved" if threshold is None else threshold
        text.append(f"positive from r0={shown} through horizon {horizon} (evidence)")
    return Output(
        json={"command": "classify", **_spec_header(sp), "class": pc.kind,
              "degree_bound": pc.degree_bound, "horizon": horizon,
              "threshold": threshold,
              # older than positivity_bound's proof, kept byte for byte
              "note": "threshold is empirical evidence over the horizon, not a proof"},
        csv=_csv_lines([("class", "degree_bound", "horizon", "threshold"),
                        (pc.kind, pc.degree_bound, horizon, threshold)]),
        text=text,
    )


def cmd_verify(ns: argparse.Namespace) -> Output:
    results = verify_mod.run_all(ns.seed, ns.golden)
    ok = all(r.ok for r in results)
    text = [
        f"{r.name}: checks={r.checks} failures={r.failures}"
        + (f" first: {r.first_counterexample}" if r.first_counterexample else "")
        for r in results
    ]
    return Output(
        json={"command": "verify", "seed": ns.seed,
              "suites": [asdict(r) for r in results], "ok": ok},
        # --format csv prints the text report: the benchmark's check of
        # verify output parses it so
        csv=None,
        text=text + ["PASS" if ok else "FAIL"],
        code=EXIT_OK if ok else EXIT_VERIFY,
    )


def cmd_families(ns: argparse.Namespace) -> Output:
    _check_length(ns.rs, "--rs", ns.ceiling)
    fq = FamilyQuery(ns.kind, ns.m, ns.t, ns.s, r=ns.r, rs=tuple(ns.rs), N=ns.N)
    # N is the coefficient index, bounded as in mult and table; the part
    # count is bounded as the --rs length is
    if fq.N is not None and fq.N > ns.ceiling:
        raise CeilingError(f"coefficient index {fq.N} (--N) exceeds ceiling "
                           f"{ns.ceiling}")
    parts = fq.t + len(fq.middles) + fq.s
    if parts > ns.ceiling:
        raise CeilingError(f"partition has {parts} parts (ceiling {ns.ceiling})")
    q, rho = fq.q_rho
    fields = dict(kind=fq.kind, m=fq.m, t=fq.t, s=fq.s, r=fq.r, rs=list(fq.rs),
                  N=fq.N, q=q, rho=rho)
    if q < 0:
        fields.update(pairs=None, note="q < 0: multiplicity 0", multiplicity="0")
    else:
        model = family_quotient(fq)
        fields.update(
            alphas=list(model.spec.alphas),
            k=model.spec.k,
            pairs=None if model.decomposition is None
            else [list(p) for p in model.decomposition.pairs],
            note=model.note,
        )
        if fq.N is not None:
            fields["multiplicity"] = str(family_multiplicity(fq))
    return Output(
        json={"command": "families", **fields},
        csv=_csv_lines([fields.keys(), fields.values()]),
        text=[f"{key}: {val}" for key, val in fields.items()],
    )


_TABLE_KEYS = ("xi", "m", "n", "multiplicity", "positivity", "family")


def cmd_table(ns: argparse.Namespace) -> Output:
    _check_length(ns.n, "--n", ns.ceiling)
    xi = Partition(ns.xi)
    _check_indices(xi, ns.n, ns.ceiling)
    values = multiplicities(xi, ns.m, ns.n)
    family = family_kind_of(xi.parts, ns.m)
    cell = ",".join(map(str, xi.parts))
    rows = [
        dict(zip(_TABLE_KEYS, (
            cell, ns.m, n, str(value),
            classify(make_spec(xi, ns.m, n)).kind if n >= 0 else "", family,
        )))
        for n, value in zip(ns.n, values)
    ]
    return Output(
        json=rows,
        csv=_csv_lines(chain([_TABLE_KEYS], (row.values() for row in rows))),
        text=(
            f"xi=({row['xi']}) m={row['m']} n={row['n']} "
            f"mult={row['multiplicity']} class={row['positivity']} "
            f"family={row['family']}"
            for row in rows
        ),
    )


_COMMANDS = {
    "expand": cmd_expand,
    "mult": cmd_mult,
    "classify": cmd_classify,
    "verify": cmd_verify,
    "families": cmd_families,
    "table": cmd_table,
}


def main(argv: list[str] | None = None) -> int:
    try:
        ns = parse_args(argv)
    except argparse.ArgumentTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        out = _COMMANDS[ns.command](ns)
        _write(out, ns.fmt)
        sys.stdout.flush()
        return out.code
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so the flush at exit
        # cannot fail again, and end as SIGPIPE would end a pipeline stage
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except CeilingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CEILING
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, OSError, KeyError) as exc:
        # bad values, unreadable or malformed golden files, missing keys
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
