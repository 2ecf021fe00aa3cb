"""Sweep small quotient specs, classify each one, and report where the
coefficients turn (and stay) positive up to a horizon.

Writes one line per spec: class, degree bound or observed onset r0, and
the first few coefficients.  Onsets are empirical evidence over the
horizon, not proofs.
"""

import argparse
import csv
import itertools
import sys

from chebflag.chebpoly import Partition
from chebflag.quotient import classify, expand, make_spec, positivity_threshold

PREVIEW = 8  # leading coefficients shown per spec


def iter_specs(ns: argparse.Namespace):
    seen = set()
    for m in range(1, ns.max_m + 1):
        for length in range(ns.max_len + 1):
            for parts in itertools.combinations_with_replacement(
                range(1, m + 1), length
            ):
                xi = tuple(sorted(parts, reverse=True))
                for mu in range(ns.max_mu + 1):
                    key = (xi, m, mu)
                    if key in seen:
                        continue
                    seen.add(key)
                    yield make_spec(Partition(xi), m, mu)


def run(ns: argparse.Namespace) -> list[dict]:
    rows = []
    for sp in iter_specs(ns):
        pc = classify(sp)
        onset = ""
        bound = ""
        if pc.kind == "polynomial":
            bound = pc.degree_bound
        elif pc.kind == "eventually_positive":
            r0 = positivity_threshold(sp, ns.horizon)
            onset = "unresolved" if r0 is None else r0
        head = expand(sp, PREVIEW).coeffs.coeffs
        rows.append(
            {
                "xi": ",".join(map(str, sp.xi.parts)),
                "m": sp.m,
                "mu": sp.mu,
                "k": sp.k,
                "class": pc.kind,
                "degree_bound": bound,
                "onset": onset,
                "head": " ".join(map(str, head)),
            }
        )
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-m", type=int, default=4)
    ap.add_argument("--max-len", type=int, default=3)
    ap.add_argument("--max-mu", type=int, default=8)
    ap.add_argument("--horizon", type=int, default=120)
    ap.add_argument("--csv", dest="csv_out", default=None)
    ns = ap.parse_args(argv)
    rows = run(ns)
    kinds = {}
    for row in rows:
        kinds[row["class"]] = kinds.get(row["class"], 0) + 1
        print(
            f"xi=({row['xi']}) m={row['m']} mu={row['mu']} k={row['k']} "
            f"{row['class']}"
            + (f" bound={row['degree_bound']}" if row["degree_bound"] != "" else "")
            + (f" r0={row['onset']}" if row["onset"] != "" else "")
            + f"  a: {row['head']}"
        )
    print(f"total {len(rows)} specs: " + ", ".join(f"{k}={v}" for k, v in sorted(kinds.items())))
    if ns.csv_out:
        with open(ns.csv_out, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(rows[0].keys()), lineterminator="\n")
            w.writeheader()
            w.writerows(rows)
        print(f"wrote {ns.csv_out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
