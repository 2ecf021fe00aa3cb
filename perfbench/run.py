"""Benchmark for this checkout's chebflag: three seeded, closed-loop,
single-client query streams, every output checked by an independent route.

    python3 perfbench/run.py --workload expand_deep --seed 1 --seconds 15 --trace 0

or, for every workload and then its traced run:

    for w in expand_deep mult_table crosscheck; do
        for t in 0 1; do python3 perfbench/run.py --workload $w --seed 1 --seconds 15 --trace $t; done
    done

Paths are taken relative to this file, and the workload processes import
chebflag from ../src.  With --trace 0, seven set-up-only processes time
interpreter start, imports and stream generation, then one worker replays
the stream for --seconds of operation time.  Times are scaled to the
reference speed of yardstick.py, with the wall-clock figures printed beside
them.  With --trace 1 the first trace_ops operations run twice, untraced and
then traced, each in a fresh process: the traced run gives the per-layer
metrics and the pair gives trace_overhead.  Human-readable lines come first;
the last line is one JSON object with correct, attempted, failed and
metrics.  sheet.json describes the workloads and the metric map;
BENCHMARK.json names the metrics and their units.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
DEADLINE_S = 170
# glibc's initial mmap threshold, pinned: blocks of 128 KiB and up always
# come from mmap and go back to the system when freed.  Left dynamic, glibc
# raises the threshold after the first large free, and peak RSS then depends
# on the order of earlier allocations (87 or 103 MiB for the same stream).
# The timed runs use it too; sheet.json's "mmap_pin" gives its measured
# effect on the time metrics.
WORKER_ENV = {**os.environ, "MALLOC_MMAP_THRESHOLD_": "131072"}
COMPLETED = ("ok", "defect")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def worker(args: list[str], deadline: float) -> dict:
    """Run one worker process; add setup_s, the wall-clock time from its
    spawn until its first request was ready."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=WORKER_ENV, capture_output=True, text=True,
            timeout=max(deadline - spawned, 1.0),
        )
    except subprocess.TimeoutExpired:
        fail(f"worker {' '.join(args)} passed the {DEADLINE_S} s deadline")
    if proc.returncode != 0 or not proc.stdout.strip():
        fail(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - spawned
    return report


def setup_probe(base: list[str], deadline: float) -> tuple[float, float]:
    """Wall-clock set-up time of one fresh worker, and the same at the
    reference speed, from yardstick readings just before and after it."""
    before = yardstick.measure()
    raw = worker(base + ["--setup-only"], deadline)["setup_s"]
    return raw, yardstick.scaled(raw, before, yardstick.measure())


def percentile(values: list[float], p: float) -> tuple[float, int]:
    """Harrell-Davis estimate of the p-th percentile of ordered values, and
    the count ranked beyond it.  The estimate is a Beta-weighted mean of all
    order statistics; in a sparse tail it moves far less from run to run
    than the one or two order statistics next to the rank."""
    n = len(values)
    a, b = p / 100 * (n + 1), (1 - p / 100) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x: float) -> float:
        if not 0 < x < 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    # Simpson's rule for the Beta mass on each [i/n, (i+1)/n]
    weights = [density(i / n) + 4 * density((i + 0.5) / n) + density((i + 1) / n)
               for i in range(n)]
    estimate = sum(w * v for w, v in zip(weights, values)) / sum(weights)
    return estimate, n - 1 - math.floor(p / 100 * (n - 1))


def scaled_latencies(report: dict) -> list[float]:
    """Operation latencies at the reference speed, in stream order."""
    return [yardstick.scaled(lat, *y)
            for lat, y in zip(report["latencies"], report["yardstick_s"])]


def ranked(report: dict) -> list[float]:
    """Scaled latencies ordered with every failed operation after every
    completed one."""
    failed = (o not in COMPLETED for o in report["outcomes"])
    return [lat for _, lat in sorted(zip(failed, scaled_latencies(report)))]


def time_shares(report: dict) -> str:
    """Each request kind's share of operation time, and its count."""
    spent: dict[str, list] = {}
    for kind, lat in zip(report["kinds"], scaled_latencies(report)):
        spent.setdefault(kind, [0.0, 0])
        spent[kind][0] += lat
        spent[kind][1] += 1
    total = sum(s for s, _ in spent.values())
    return ", ".join(f"{kind} {s / total:.3f} ({n} ops)" for kind, (s, n) in spent.items())


def tally(report: dict) -> tuple[bool, int, int, dict]:
    """correct, attempted, failed and the count of each outcome.  An
    operation fails when it raises or its output is wrong; a confirmed
    known-defect exit (worker.check) completes and is counted apart."""
    outcomes = report["outcomes"]
    kinds = {k: outcomes.count(k) for k in ("ok", "defect", "mismatch", "error")}
    failed = kinds["mismatch"] + kinds["error"]
    return not (failed or report["problems"]), len(outcomes), failed, kinds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "chebflag" / "__init__.py").is_file():
        fail(f"no chebflag sources under {ROOT / 'src'}; run inside a checkout")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sheet = json.loads((HERE / "sheet.json").read_text())
    if args.workload not in sheet["workloads"]:
        fail(f"unknown workload {args.workload!r}; one of {sorted(sheet['workloads'])}")
    spec = sheet["workloads"][args.workload]
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    lines = []
    metrics: dict[str, float] = {}
    if args.trace == 0:
        setups = [setup_probe(base, deadline) for _ in range(SETUP_PROBES)]
        main_run = worker(base + ["--seconds", str(args.seconds)], deadline)
        correct, attempted, failed, kinds = tally(main_run)
        lat = ranked(main_run)
        p = spec["tail_percentile"]
        tail, beyond = percentile(lat, p)
        busy = sum(lat)
        done = attempted - failed
        metrics = {
            "setup_s": statistics.median(s for _, s in setups),
            "qps": done / busy,
            "latency_p50_s": percentile(lat, 50)[0],
            "latency_tail_s": tail,
            "peak_rss_mb": main_run["peak_rss_kib"] / 1024,
        }
        wall = main_run["busy_s"]
        notes = {
            "setup_s": f"median of {len(setups)} fresh processes; wall clock "
                       f"{statistics.median(r for r, _ in setups):.4f} s",
            "qps": f"{done} completed in {busy:.3f} s; wall clock "
                   f"{done / wall:.4g} 1/s over {wall:.3f} s",
            "latency_p50_s": f"p50 of {attempted} ops",
            "latency_tail_s": f"p{p} of {attempted} ops, {beyond} beyond",
        }
        report = main_run
        lines.append(f"# times at reference speed: yardstick median "
                     f"{statistics.median(y for pair in main_run['yardstick_s'] for y in pair) * 1e3:.3f} ms here, "
                     f"{yardstick.REFERENCE_S * 1e3:g} ms reference")
    else:
        n = str(spec["trace_ops"])
        plain = worker(base + ["--ops", n], deadline)
        report = worker(base + ["--ops", n, "--trace"], deadline)
        correct, attempted, failed, kinds = tally(report)
        correct = correct and tally(plain)[0]
        metrics = dict(report["layers"])
        plain_s, traced_s = sum(scaled_latencies(plain)), sum(scaled_latencies(report))
        metrics["trace_overhead"] = 1 - plain_s / traced_s
        notes = {"trace_overhead": f"{n} ops at reference speed: untraced "
                                   f"{plain_s:.3f} s, traced {traced_s:.3f} s"}

    key = "end_to_end" if args.trace == 0 else "per_layer"
    units = {m["name"]: m["unit"] for m in bench[key]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        fail(f"no value for {missing}")
    env = {
        "module": report["module"],
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    lines[:0] = [f"# perfbench {args.workload} seed={args.seed} "
                 f"seconds={args.seconds:g} trace={args.trace}",
                 "# env " + json.dumps(env)]
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"{name} = {metrics[name]:.6g} {unit}{note}")
    lines.append(f"fail_ratio = {failed / max(attempted, 1):.4f} 1  ({failed} of "
                 f"{attempted}: {kinds['mismatch']} wrong output, {kinds['error']} raised)")
    lines.append(f"known_defect_ratio = {kinds['defect'] / max(attempted, 1):.4f} 1  "
                 f"({kinds['defect']} of {attempted} exited 3 on a coefficient past "
                 f"4300 digits, confirmed on exact coefficients)")
    lines.append(f"# time share by request kind: {time_shares(report)}")
    lines.extend(f"# problem: {p}" for p in report["problems"])
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
