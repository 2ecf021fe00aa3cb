"""Smoke tests for the tooling in scripts/: each main() runs on small and
on default arguments and prints what it promises."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "argv, total",
    [
        # m <= 3, at most two parts, mu <= 4: (3 + 6 + 10) partitions x 5 weights
        (["--max-m", "3", "--max-len", "2", "--max-mu", "4", "--horizon", "30"], 95),
        ([], None),
    ],
)
def test_positivity_sweep(capsys, argv, total):
    assert _load("positivity_sweep").main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith(f"total {len(lines) - 1} specs: ")
    if total is not None:
        assert len(lines) - 1 == total
    assert all(" k=" in line and "  a: " in line for line in lines[:-1])

