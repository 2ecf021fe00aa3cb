"""The benchmark's contract with the package: perfbench/worker.py replays
the first operations of each workload against this checkout and checks
every output by its own route, and its tracer wraps package functions by
name.  A renamed function, a changed verify report or a wrong answer shows
here as an error, a mismatch or a problem line."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


def _worker(*args):
    # the child inherits os.environ; the worker puts this checkout's src/
    # on its own path
    return subprocess.run(
        [sys.executable, str(WORKER), *args],
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("workload, ops", [
    ("crosscheck", 120), ("mult_table", 60), ("expand_deep", 12),
])
def test_worker_accepts_every_output(workload, ops):
    proc = _worker("--workload", workload, "--seed", "1", "--ops", str(ops))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert len(report["outcomes"]) == ops
    assert set(report["outcomes"]) <= {"ok", "defect"}, report["problems"]
    assert report["problems"] == []


def test_traced_run_resolves_every_name():
    proc = _worker("--workload", "crosscheck", "--seed", "1", "--ops", "30", "--trace")
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(proc.stdout)["layers"]
    assert layers["verify.run_all.calls"] > 0


def test_traced_wide_expand_keeps_ints_in_series_div_unit():
    # op 14 of seed 1 is the first expansion past the crossover into
    # Decimal; the tracer calls bit_length() on every series_div_unit
    # result, so a Decimal there would show as an error outcome
    proc = _worker("--workload", "expand_deep", "--seed", "1", "--ops", "15", "--trace")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert len(report["outcomes"]) == 15
    assert set(report["outcomes"]) <= {"ok", "defect"}, report["problems"]
    assert report["problems"] == []
