"""One workload process: import this checkout's chebflag, generate the
stream, replay it closed-loop with a single client, and check every output
by the benchmark's own route once its timing is taken.

    python3 perfbench/worker.py --workload W --seed S --seconds T
    python3 perfbench/worker.py --workload W --seed S --ops N [--trace]
    python3 perfbench/worker.py --workload W --seed S --setup-only

--seconds replays until T seconds of operation time at the reference speed
of yardstick.py have passed; --ops replays the first N operations.

It prints one JSON object: the CLOCK_MONOTONIC reading when the first
request was ready to send, each operation's wall-clock latency, outcome and
request kind, the yardstick readings taken just before and after each (see
yardstick.py), and ru_maxrss.  ``run.py`` turns that into metrics.  The
process never calls sys.set_int_max_str_digits, so CPython's 4300-digit
limit applies to chebflag exactly as it does for a user.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import chebflag  # noqa: E402
import chebflag.cli  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402
from tracing import Tracer  # noqa: E402

KNOWN_DEFECT = "integer string conversion"


def run_cli(argv):
    """One ``cli.main`` call with stdout and stderr held in memory."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = chebflag.cli.main(list(argv))
    buf = out.detach()  # flushes; the wrapper would close buf when collected
    return rc, buf, err.getvalue()


def run_three_way(args):
    parts, m, mu, r = args
    spec = chebflag.quotient.make_spec(chebflag.chebpoly.Partition(parts), m, mu)
    division = chebflag.quotient.expand(spec, r).coeffs.coeffs[r]
    signed = chebflag.quotient.signed_coefficient(spec, r)
    dec = chebflag.families.find_pair_decomposition(spec) if spec.k >= 1 else None
    product = None if dec is None else chebflag.families.product_model_coeff(dec, r)
    return division, signed, product


def run_walks(args):
    m, a, b, L = args
    transfer = chebflag.pathcomb.strip_walk_count(m, a, b, L)
    return transfer, chebflag.pathcomb.strip_walk_count_dfs(m, a, b, L)


def check(op, result, orc) -> tuple[str, str | None]:
    """Outcome and a reason.  "ok" is output the independent route agrees
    with; "defect" is an exit 3 that the route confirms is the known
    4300-digit defect (oracle.check_digit_limit), which is the program's
    present, expected answer to that request; "mismatch" is anything else."""
    if op.kind == "three_way":
        reason = oracle.check_three_way(op.args, result)
    elif op.kind == "walks":
        reason = oracle.check_walks(op.args, result)
    else:
        rc, out, err = result
        defect = rc == 3 and KNOWN_DEFECT in err
        try:
            if defect:
                reason = oracle.check_digit_limit(op.args, out)
            else:
                reason = oracle.check_cli(op.args, rc, out, orc)
        except (ValueError, KeyError, IndexError) as exc:
            reason = f"unreadable output: {exc!r}"
        if reason and err:
            reason += f"; stderr: {err.strip()[:200]}"
        if defect and not reason:
            return "defect", None
    return ("mismatch", reason) if reason else ("ok", None)


RUNNERS = {"cli": run_cli, "three_way": run_three_way, "walks": run_walks}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--ops", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    stream = workloads.GENERATORS[args.workload](args.seed)
    ops = itertools.chain([next(stream)], stream)
    ready = time.monotonic()
    module = str(Path(chebflag.__file__).resolve())
    if args.setup_only:
        print(json.dumps({"ready": ready, "module": module}))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    orc = oracle.Oracle()
    latencies, outcomes, kinds, problems, yard = [], [], [], [], []
    busy = at_reference = 0.0
    for i, op in enumerate(itertools.islice(ops, args.ops)):
        if args.seconds is not None and at_reference >= args.seconds:
            break
        if tracer is not None:
            tracer.current_request = i
        before = yardstick.measure()
        t0 = time.perf_counter()
        try:
            result = RUNNERS[op.kind](op.args)
        except Exception as exc:  # a traceback escaped: record it, keep going
            result, outcome, reason = None, "error", repr(exc)
        latency = time.perf_counter() - t0
        yard.append((before, yardstick.measure(latency / 8)))
        at_reference += yardstick.scaled(latency, *yard[-1])
        if result is not None:
            if tracer is not None and op.kind == "cli":
                tracer.out_bytes += result[1].tell()
            outcome, reason = check(op, result, orc)
            del result
        busy += latency
        latencies.append(latency)
        outcomes.append(outcome)
        kinds.append(op.args[0] if op.kind == "cli" else op.kind)
        if reason and len(problems) < 5:
            problems.append(f"op {i} {op.kind} {' '.join(map(str, op.args))[:200]}: {reason}")
    report = {
        "ready": ready,
        "module": module,
        "busy_s": busy,
        "latencies": latencies,
        "yardstick_s": yard,
        "outcomes": outcomes,
        "kinds": kinds,
        "problems": problems,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["layers"] = tracer.metrics()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
