"""Command line surface.

Subcommands: expand, mult, classify, verify, families, table.
Formats: text (default), json, csv.  Big integers are serialized as
decimal strings in json and csv so downstream consumers never lose
precision.  Output is byte-deterministic for a fixed config and seed.

Exit status: 0 success, 2 usage or parse error, 3 domain error (for
example a part exceeding the level, or a malformed golden file),
4 resource ceiling exceeded, 5 verification mismatch (a failing suite,
or two routes disagreeing on one value).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from functools import lru_cache

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
    expand,
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

    def add_fmt(p):
        p.add_argument(
            "--format", dest="fmt", choices=("text", "json", "csv"), default="text"
        )

    p = sub.add_parser("expand", help="exact coefficients a_0..a_order")
    p.add_argument("--xi", type=_parse_partition, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--order", type=int, default=10)
    add_fmt(p)

    p = sub.add_parser("mult", help="one flag multiplicity")
    p.add_argument("--xi", type=_parse_partition, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    add_fmt(p)

    p = sub.add_parser("classify", help="positivity class and evidence")
    p.add_argument("--xi", type=_parse_partition, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--horizon", type=int, default=None)
    add_fmt(p)

    p = sub.add_parser("verify", help="run the cross-validation suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--golden", type=str, default=None)
    add_fmt(p)

    p = sub.add_parser("families", help="family quotient, pairs, and value")
    p.add_argument("--kind", choices=("a", "b", "c"), required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=int, default=0)
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--rs", type=_parse_int_list, default=())
    p.add_argument("--N", type=int, default=None)
    add_fmt(p)

    p = sub.add_parser("table", help="multiplicity table over a grid of n")
    p.add_argument("--xi", type=_parse_partition, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=_parse_int_list, required=True)
    add_fmt(p)

    return ap


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    ns = _build_parser().parse_args(argv)
    ns.ceiling = _ceiling()
    return ns


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _emit_json(obj) -> None:
    _emit(json.dumps(obj, indent=2))


def _spec_header(sp) -> dict:
    return {
        "xi": list(sp.xi.parts),
        "m": sp.m,
        "mu": sp.mu,
        "mu1": sp.mu1,
        "mu0": sp.mu0,
        "t": sp.t,
        "k": sp.k,
        "alphas": list(sp.alphas),
    }


def cmd_expand(ns: argparse.Namespace) -> int:
    if ns.order > ns.ceiling:
        raise CeilingError(f"order {ns.order} exceeds ceiling {ns.ceiling}")
    sp = make_spec(Partition(ns.xi), ns.m, ns.mu)
    report = expand(sp, ns.order)
    cs = report.coeffs.coeffs
    if ns.fmt == "json":
        obj = {"command": "expand", **_spec_header(sp), "order": ns.order,
               "coefficients": [str(c) for c in cs]}
        _emit_json(obj)
    elif ns.fmt == "csv":
        # integer fields never need quoting; one write per row keeps every
        # row before a failing decimal conversion in the output
        write = sys.stdout.write
        write("r,coefficient\n")
        for r, c in enumerate(cs):
            write(f"{r},{c}\n")
    else:
        _emit(
            f"xi={list(sp.xi.parts)} m={sp.m} mu={sp.mu} -> mu1={sp.mu1} "
            f"mu0={sp.mu0} t={sp.t} k={sp.k} alphas={list(sp.alphas)}"
        )
        _emit(",".join(str(c) for c in cs))
    return EXIT_OK


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


def cmd_mult(ns: argparse.Namespace) -> int:
    xi = Partition(ns.xi)
    _check_indices(xi, (ns.n,), ns.ceiling)
    value = multiplicity(xi, ns.m, ns.n)
    if ns.fmt == "json":
        _emit_json(
            {
                "command": "mult",
                "xi": list(xi.parts),
                "m": ns.m,
                "n": ns.n,
                "multiplicity": str(value),
            }
        )
    elif ns.fmt == "csv":
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(["xi", "m", "n", "multiplicity"])
        w.writerow([",".join(map(str, xi.parts)), ns.m, ns.n, str(value)])
    else:
        _emit(f"V(xi={list(xi.parts)}, m={ns.m}, n={ns.n}) = {value}")
    return EXIT_OK


def cmd_classify(ns: argparse.Namespace) -> int:
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
    obj = {
        "command": "classify",
        **_spec_header(sp),
        "class": pc.kind,
        "degree_bound": pc.degree_bound,
        "horizon": horizon,
        "threshold": threshold,
        "note": "threshold is empirical evidence over the horizon, not a proof",
    }
    if ns.fmt == "json":
        _emit_json(obj)
    elif ns.fmt == "csv":
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(["class", "degree_bound", "horizon", "threshold"])
        w.writerow(
            [
                pc.kind,
                "" if pc.degree_bound is None else pc.degree_bound,
                horizon,
                "" if threshold is None else threshold,
            ]
        )
    else:
        _emit(
            f"xi={list(sp.xi.parts)} m={sp.m} mu={sp.mu} -> class={pc.kind}"
        )
        if pc.kind == "polynomial":
            _emit(f"degree bound {pc.degree_bound}")
        elif pc.kind == "eventually_positive":
            shown = "unresolved" if threshold is None else threshold
            _emit(f"positive from r0={shown} through horizon {horizon} (evidence)")
    return EXIT_OK


def cmd_verify(ns: argparse.Namespace) -> int:
    results = verify_mod.run_all(ns.seed, ns.golden)
    ok = all(r.ok for r in results)
    if ns.fmt == "json":
        _emit_json(
            {
                "command": "verify",
                "seed": ns.seed,
                "suites": [
                    {
                        "name": r.name,
                        "checks": r.checks,
                        "failures": r.failures,
                        "first_counterexample": r.first_counterexample,
                    }
                    for r in results
                ],
                "ok": ok,
            }
        )
    else:
        for r in results:
            line = f"{r.name}: checks={r.checks} failures={r.failures}"
            if r.first_counterexample:
                line += f" first: {r.first_counterexample}"
            _emit(line)
        _emit("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_families(ns: argparse.Namespace) -> int:
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
    obj: dict = {
        "command": "families",
        "kind": fq.kind,
        "m": fq.m,
        "t": fq.t,
        "s": fq.s,
        "r": fq.r,
        "rs": list(fq.rs),
        "N": fq.N,
        "q": q,
        "rho": rho,
    }
    if q < 0:
        obj.update(pairs=None, note="q < 0: multiplicity 0", multiplicity="0")
    else:
        model = family_quotient(fq)
        obj.update(
            alphas=list(model.spec.alphas),
            k=model.spec.k,
            pairs=None
            if model.decomposition is None
            else [list(p) for p in model.decomposition.pairs],
            note=model.note,
        )
        if fq.N is not None:
            obj["multiplicity"] = str(family_multiplicity(fq))
    if ns.fmt == "json":
        _emit_json(obj)
    elif ns.fmt == "csv":
        w = csv.writer(sys.stdout, lineterminator="\n")
        keys = list(obj.keys())[1:]
        w.writerow(keys)
        w.writerow(["" if obj[k] is None else obj[k] for k in keys])
    else:
        for key, val in obj.items():
            if key != "command":
                _emit(f"{key}: {val}")
    return EXIT_OK


def cmd_table(ns: argparse.Namespace) -> int:
    _check_length(ns.n, "--n", ns.ceiling)
    xi = Partition(ns.xi)
    _check_indices(xi, ns.n, ns.ceiling)
    values = multiplicities(xi, ns.m, ns.n)
    family = family_kind_of(xi.parts, ns.m)
    rows = []
    for n, value in zip(ns.n, values):
        kind = classify(make_spec(xi, ns.m, n)).kind if n >= 0 else ""
        rows.append(
            {
                "xi": ",".join(map(str, xi.parts)),
                "m": ns.m,
                "n": n,
                "multiplicity": str(value),
                "positivity": kind,
                "family": family,
            }
        )
    if ns.fmt == "json":
        _emit_json(rows)
    elif ns.fmt == "csv":
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(["xi", "m", "n", "multiplicity", "positivity", "family"])
        for row in rows:
            w.writerow([row[k] for k in ("xi", "m", "n", "multiplicity",
                                         "positivity", "family")])
    else:
        for row in rows:
            _emit(
                f"xi=({row['xi']}) m={row['m']} n={row['n']} "
                f"mult={row['multiplicity']} class={row['positivity']} "
                f"family={row['family']}"
            )
    return EXIT_OK


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
        return _COMMANDS[ns.command](ns)
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
