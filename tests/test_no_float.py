"""src/ computes no float: every number chebflag reports is exact."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import chebflag

SOURCES = sorted(Path(chebflag.__file__).parent.glob("*.py"))


def _float_nodes(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node, f"constant {node.value!r}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node, "true division"
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            yield node, "float(...) call"
        elif (
            isinstance(node, ast.Attribute)
            and getattr(node.value, "id", None) == "math"
            and node.attr != "comb"
        ):
            yield node, f"math.{node.attr}"


def test_sources_compute_no_float():
    assert len(SOURCES) >= 8
    found = [
        f"{path.name}:{node.lineno}: {what}"
        for path in SOURCES
        for node, what in _float_nodes(ast.parse(path.read_text()))
    ]
    assert found == []


def test_scan_sees_floats():
    code = "x = 1.5\ny = a / b\nz = float(c)\nw = math.sqrt(2) + math.comb(4, 2)"
    found = [what for _, what in _float_nodes(ast.parse(code))]
    assert found == ["constant 1.5", "true division", "float(...) call", "math.sqrt"]


def test_cli_import_loads_no_fractions_or_decimal():
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, chebflag.cli; "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))",
        ],
        capture_output=True,
        text=True,
        # Inherit the parent's environment so the child can import
        # chebflag whether it is installed or found through PYTHONPATH.
        env=dict(os.environ),
        check=True,
    )
    assert proc.stdout == "[]\n"
