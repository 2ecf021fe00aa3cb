"""Tests for the benchmark's own output check and its traced counters.

    python3 perfbench/test_oracle.py
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import worker  # noqa: E402  (puts this checkout's src/ on sys.path)


def captured(argv):
    rc, buf, err = worker.run_cli(argv)
    return rc, buf.getvalue().decode("utf-8"), err


def check(argv, text, rc=0):
    return oracle.check_cli(argv, rc, io.BytesIO(text.encode("utf-8")), oracle.Oracle())


def bump_coefficient(text: str, fmt: str, j: int) -> str:
    """The same output with coefficient j increased by one."""
    if fmt == "json":
        obj = json.loads(text)
        obj["coefficients"][j] = str(int(obj["coefficients"][j]) + 1)
        return json.dumps(obj, indent=2) + "\n"
    if fmt == "csv":
        lines = text.splitlines()
        r, c = lines[j + 1].split(",")
        lines[j + 1] = f"{r},{int(c) + 1}"
        return "\n".join(lines) + "\n"
    header, body = text.split("\n", 1)
    values = body.strip().split(",")
    values[j] = str(int(values[j]) + 1)
    return header + "\n" + ",".join(values) + "\n"


class OutputCheck(unittest.TestCase):
    def test_expand_passes_then_fails_on_one_corrupt_coefficient(self):
        for fmt in ("json", "csv", "text"):
            with self.subTest(fmt=fmt):
                argv = ["expand", "--xi", "9,9,4", "--m", "9", "--mu", "30",
                        "--order", "80", "--format", fmt]
                rc, text, _ = captured(argv)
                self.assertEqual(rc, 0)
                self.assertIsNone(check(argv, text))
                reason = check(argv, bump_coefficient(text, fmt, 57))
                self.assertIn("coefficient 57", reason)

    def test_expand_fails_on_a_missing_coefficient(self):
        argv = ["expand", "--xi", "3,2", "--m", "4", "--mu", "1", "--order", "20",
                "--format", "csv"]
        _, text, _ = captured(argv)
        truncated = "\n".join(text.splitlines()[:-1]) + "\n"
        self.assertIn("expected 21", check(argv, truncated))

    def test_table_and_mult_fail_on_a_corrupt_value(self):
        xi = "7,7,5,3,3,1"
        for argv in (["table", "--xi", xi, "--m", "7", "--n", "0..26", "--format", "json"],
                     ["mult", "--xi", xi, "--m", "7", "--n", "4", "--format", "json"]):
            with self.subTest(command=argv[0]):
                rc, text, _ = captured(argv)
                self.assertEqual(rc, 0)
                self.assertIsNone(check(argv, text))
                obj = json.loads(text)
                row = obj[4] if isinstance(obj, list) else obj
                row["multiplicity"] = str(int(row["multiplicity"]) + 1)
                self.assertIn("disagrees", check(argv, json.dumps(obj)))

    def test_classify_fails_on_a_wrong_class(self):
        argv = ["classify", "--xi", "5,5,2", "--m", "5", "--mu", "3", "--format", "json"]
        rc, text, _ = captured(argv)
        self.assertIsNone(check(argv, text))
        self.assertIn("polynomial", text)
        wrong = text.replace('"polynomial"', '"eventually_positive"')
        self.assertIsNotNone(check(argv, wrong))

    def test_classify_fails_on_a_wrong_threshold_or_horizon(self):
        # a_5 <= 0 < a_6, ..., a_96: the threshold is 6 over the default horizon 96
        for fmt in ("json", "csv", "text"):
            argv = ["classify", "--xi", "6,5,1", "--m", "7", "--mu", "0", "--format", fmt]
            rc, text, _ = captured(argv)
            self.assertEqual(rc, 0)
            self.assertIsNone(check(argv, text))
            if fmt == "json":
                obj = json.loads(text)
                self.assertEqual((obj["horizon"], obj["threshold"]), (96, 6))
                wrongs = [json.dumps({**obj, **change}) for change in
                          ({"threshold": 5}, {"threshold": 7}, {"threshold": None},
                           {"threshold": 97}, {"horizon": 95})]
            elif fmt == "csv":
                wrongs = [text.replace(",96,6", new)
                          for new in (",96,5", ",96,7", ",96,", ",96,97", ",95,6")]
            else:
                wrongs = [text.replace("r0=6 through horizon 96", new)
                          for new in ("r0=5 through horizon 96", "r0=7 through horizon 96",
                                      "r0=unresolved through horizon 96",
                                      "r0=97 through horizon 96", "r0=6 through horizon 95")]
            for wrong in wrongs:
                with self.subTest(fmt=fmt, output=wrong[-60:]):
                    self.assertNotEqual(wrong, text)
                    self.assertIsNotNone(check(argv, wrong))

    def test_library_routes(self):
        args = ((4, 3, 1), 4, 9, 60)
        values = worker.run_three_way(args)
        self.assertIsNone(oracle.check_three_way(args, values))
        bad = (values[0] + 1, values[1] + 1, None)
        self.assertIsNotNone(oracle.check_three_way(args, bad))
        walk = (6, 1, 4, 17)
        counts = worker.run_walks(walk)
        self.assertIsNone(oracle.check_walks(walk, counts))
        self.assertIsNotNone(oracle.check_walks(walk, (counts[0] + 1,) * 2))

    def test_digit_limit_is_reported_as_the_known_defect(self):
        # a_7182 is the first coefficient past 4300 digits
        for fmt in ("json", "csv", "text"):
            with self.subTest(fmt=fmt):
                op = worker.workloads.Op("cli", ("expand", "--xi", "30,20", "--m", "50",
                                                 "--mu", "10", "--order", "10000",
                                                 "--format", fmt))
                rc, buf, err = worker.run_cli(op.args)
                self.assertEqual(rc, 3)
                self.assertEqual(worker.check(op, (rc, buf, err), oracle.Oracle())[0],
                                 "defect")
                if fmt == "csv":
                    rows = buf.getvalue().split(b"\n")
                    self.assertEqual(len(rows), 7182 + 2)  # header, rows, empty tail
                    rows[100] = b"99,1"
                    bad = io.BytesIO(b"\n".join(rows))
                    self.assertEqual(worker.check(op, (rc, bad, err), oracle.Oracle())[0],
                                     "mismatch")
                    short = io.BytesIO(b"\n".join(rows[:100]) + b"\n")
                    self.assertEqual(worker.check(op, (rc, short, err), oracle.Oracle())[0],
                                     "mismatch")

    def test_digit_limit_exit_on_short_coefficients_is_a_mismatch(self):
        argv = ("expand", "--xi", "3,2", "--m", "4", "--mu", "1", "--order", "20",
                "--format", "json")
        err = "error: Exceeds the limit (4300 digits) for integer string conversion"
        result = (3, io.BytesIO(b""), err)
        outcome, reason = worker.check(worker.workloads.Op("cli", argv), result,
                                       oracle.Oracle())
        self.assertEqual(outcome, "mismatch")
        self.assertIn("no a_r", reason)


class TracedCounts(unittest.TestCase):
    def test_counts_repeat_for_a_seed(self):
        def counts():
            out = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "--workload", "crosscheck",
                 "--seed", "3", "--ops", "12", "--trace"],
                capture_output=True, text=True, check=True).stdout
            layers = json.loads(out.splitlines()[-1])["layers"]
            return {k: v for k, v in layers.items() if not k.endswith("self_s")}

        first = counts()
        self.assertGreater(first["cli.main.calls"], 0)
        self.assertEqual(first, counts())


if __name__ == "__main__":
    unittest.main()
