import csv
import io
import itertools
import json
import os
import subprocess
import sys

import pytest

from chebflag.cli import main


def run_main(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestExpand:
    def test_text_geometric(self, capsys):
        code, out, _ = run_main(
            capsys, ["expand", "--xi", "1", "--m", "2", "--mu", "1", "--order", "4"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "1,1,1,1,1"
        assert "k=1" in lines[0]

    def test_text_polynomial(self, capsys):
        code, out, _ = run_main(
            capsys, ["expand", "--xi", "2,2", "--m", "2", "--mu", "0", "--order", "3"]
        )
        assert code == 0
        assert out.splitlines()[1] == "1,-1,0,0"

    def test_json_round_trip(self, capsys):
        code, out, _ = run_main(
            capsys,
            ["expand", "--xi", "3,2", "--m", "4", "--mu", "1", "--order", "6",
             "--format", "json"],
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["coefficients"] == ["1", "-1", "1", "2", "5", "13", "34"]
        assert obj["alphas"] == [2, 3, 2]
        assert json.dumps(obj, indent=2) == out.rstrip("\n")

    def test_csv_shape(self, capsys):
        code, out, _ = run_main(
            capsys,
            ["expand", "--xi", "1", "--m", "2", "--mu", "1", "--order", "2",
             "--format", "csv"],
        )
        assert code == 0
        assert "\r" not in out
        assert out.splitlines() == ["r,coefficient", "0,1", "1,1", "2,1"]

    def test_domain_error(self, capsys):
        code, _, err = run_main(capsys, ["expand", "--xi", "3", "--m", "2", "--mu", "0"])
        assert code == 3
        assert "error:" in err

    def test_usage_error_bad_partition(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["expand", "--xi", "1,x", "--m", "2", "--mu", "0"])
        assert info.value.code == 2

    def test_unsorted_partition_warns(self, capsys):
        code, out, err = run_main(
            capsys, ["expand", "--xi", "1,2", "--m", "2", "--mu", "0", "--order", "1"]
        )
        assert code == 0
        assert "reordered" in err
        assert "xi=[2, 1]" in out


class TestCeiling:
    def test_order_over_ceiling(self, capsys, monkeypatch):
        monkeypatch.setenv("CHEBFLAG_CEILING", "50")
        code, _, err = run_main(
            capsys, ["expand", "--xi", "1", "--m", "2", "--mu", "1", "--order", "100"]
        )
        assert code == 4
        assert "ceiling" in err

    def test_each_call_reads_its_own_ceiling(self, capsys, monkeypatch):
        # the parser is built once per process, the ceiling is not
        from chebflag.cli import _build_parser

        argv = ["expand", "--xi", "1", "--m", "2", "--mu", "1", "--order", "100"]
        monkeypatch.setenv("CHEBFLAG_CEILING", "50")
        code, out, err = run_main(capsys, argv)
        assert code == 4 and out == "" and "ceiling" in err
        monkeypatch.setenv("CHEBFLAG_CEILING", "100")
        code, out, _ = run_main(capsys, argv)
        assert code == 0 and out
        monkeypatch.setenv("CHEBFLAG_CEILING", "99")
        assert run_main(capsys, argv)[0] == 4
        assert _build_parser() is _build_parser()

    def test_invalid_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("CHEBFLAG_CEILING", "banana")
        code, _, err = run_main(
            capsys, ["expand", "--xi", "1", "--m", "2", "--mu", "1"]
        )
        assert code == 2
        assert "CHEBFLAG_CEILING" in err

    def test_default_allows_large_order(self, capsys, monkeypatch):
        monkeypatch.delenv("CHEBFLAG_CEILING", raising=False)
        code, out, _ = run_main(
            capsys, ["expand", "--xi", "", "--m", "2", "--mu", "0", "--order", "200"]
        )
        assert code == 0
        assert len(out.splitlines()[1].split(",")) == 201

    def test_classify_horizon_over_ceiling(self, capsys, monkeypatch):
        monkeypatch.setenv("CHEBFLAG_CEILING", "30")
        code, _, err = run_main(
            capsys, ["classify", "--xi", "1", "--m", "2", "--mu", "1",
                     "--horizon", "60"]
        )
        assert code == 4
        assert "horizon" in err


    def test_mult_index_over_ceiling(self, capsys, monkeypatch):
        # |xi| = 27, n = 1 reads coefficient 13
        monkeypatch.setenv("CHEBFLAG_CEILING", "12")
        code, out, err = run_main(
            capsys, ["mult", "--xi", "9,9,9", "--m", "9", "--n", "1"]
        )
        assert code == 4
        assert out == ""
        assert "index 13" in err and "ceiling" in err
        assert "Traceback" not in err
        monkeypatch.setenv("CHEBFLAG_CEILING", "13")
        code, _, _ = run_main(
            capsys, ["mult", "--xi", "9,9,9", "--m", "9", "--n", "1"]
        )
        assert code == 0

    def test_table_index_over_ceiling(self, capsys, monkeypatch):
        # only n = 1 reads an index past 12; the whole table is refused
        # before any row is written
        monkeypatch.setenv("CHEBFLAG_CEILING", "12")
        code, out, err = run_main(
            capsys, ["table", "--xi", "9,9,9", "--m", "9", "--n=-1,0,1,2,5",
                     "--format", "csv"]
        )
        assert code == 4
        assert out == ""
        assert "index 13" in err
        assert "Traceback" not in err
        code, _, _ = run_main(
            capsys, ["table", "--xi", "9,9,9", "--m", "9", "--n=-1,0,2,5"]
        )
        assert code == 0

    def test_table_grid_longer_than_ceiling(self, capsys, monkeypatch):
        # refused from its bounds alone; the grid is never built
        monkeypatch.delenv("CHEBFLAG_CEILING", raising=False)
        code, out, err = run_main(
            capsys, ["table", "--xi", "3", "--m", "3", "--n", "0..10000000000"]
        )
        assert code == 4
        assert out == ""
        assert "--n" in err and "ceiling" in err
        assert "Traceback" not in err
        monkeypatch.setenv("CHEBFLAG_CEILING", "40")
        code, out, _ = run_main(
            capsys, ["table", "--xi", "3", "--m", "3", "--n", "0..39",
                     "--format", "csv"]
        )
        assert code == 0
        assert len(out.splitlines()) == 41
        code, out, _ = run_main(
            capsys, ["table", "--xi", "3", "--m", "3", "--n", "0..40"]
        )
        assert (code, out) == (4, "")

    def test_families_rs_longer_than_ceiling(self, capsys, monkeypatch):
        monkeypatch.setenv("CHEBFLAG_CEILING", "3")
        code, out, err = run_main(
            capsys, ["families", "--kind", "c", "--m", "6", "--rs", "1..4"]
        )
        assert (code, out) == (4, "")
        assert "--rs" in err and "Traceback" not in err
        code, _, _ = run_main(
            capsys, ["families", "--kind", "c", "--m", "6", "--rs", "1..3"]
        )
        assert code == 0

    def test_families_index_over_ceiling(self, capsys, monkeypatch):
        # refused before any work; unbounded, the first query runs for seconds
        monkeypatch.setenv("CHEBFLAG_CEILING", "100")
        for argv in (["--m", "10", "--s", "3000", "--N", "1200"],
                     ["--m", "10", "--s", "30", "--N", "101"]):
            code, out, err = run_main(capsys, ["families", "--kind", "a", *argv])
            assert (code, out) == (4, "")
            assert "--N" in err and "ceiling" in err and "Traceback" not in err
        code, _, _ = run_main(
            capsys, ["families", "--kind", "a", "--m", "10", "--s", "30", "--N", "100"]
        )
        assert code == 0

    def test_families_parts_over_ceiling(self, capsys, monkeypatch):
        # t + len(rs) + s parts, counted like the --rs length
        monkeypatch.setenv("CHEBFLAG_CEILING", "100")
        argv = ["families", "--kind", "c", "--m", "6", "--t", "40", "--rs", "1,2,3"]
        code, out, err = run_main(capsys, argv + ["--s", "58"])
        assert (code, out) == (4, "")
        assert "101 parts" in err and "ceiling" in err and "Traceback" not in err
        code, out, err = run_main(
            capsys, ["families", "--kind", "b", "--m", "6", "--t", "40", "--r", "2",
                     "--s", "60"]
        )
        assert (code, out) == (4, "")
        assert "101 parts" in err and "Traceback" not in err
        assert run_main(capsys, argv + ["--s", "57"])[0] == 0

    def test_families_negative_counts_before_ceiling(self, capsys, monkeypatch):
        # N is above this ceiling, but a negative s is a domain error first
        monkeypatch.setenv("CHEBFLAG_CEILING", "3")
        code, out, err = run_main(
            capsys, ["families", "--kind", "c", "--m", "8", "--t", "1", "--s", "-1",
                     "--rs", "7,6,7", "--N", "6"]
        )
        assert (code, out) == (3, "")
        assert "t and s must be nonnegative" in err and "Traceback" not in err


class TestMult:
    def test_text(self, capsys):
        code, out, _ = run_main(capsys, ["mult", "--xi", "2", "--m", "2", "--n", "2"])
        assert code == 0
        assert out.strip().endswith("= 1")

    def test_negative_weight(self, capsys):
        code, out, _ = run_main(capsys, ["mult", "--xi", "2", "--m", "2", "--n", "-2"])
        assert code == 0
        assert out.strip().endswith("= 0")

    def test_json_value_is_string(self, capsys):
        code, out, _ = run_main(
            capsys, ["mult", "--xi", "1,1", "--m", "2", "--n", "0",
                     "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["multiplicity"] == "1"


class TestClassify:
    def test_eventually_positive_threshold(self, capsys):
        code, out, _ = run_main(capsys, ["classify", "--xi", "1", "--m", "2", "--mu", "1"])
        assert code == 0
        assert "class=eventually_positive" in out
        assert "r0=0" in out

    def test_polynomial_bound(self, capsys):
        code, out, _ = run_main(capsys, ["classify", "--xi", "2,2", "--m", "2", "--mu", "0"])
        assert code == 0
        assert "class=polynomial" in out
        assert "degree bound" in out

    def test_constant_one(self, capsys):
        code, out, _ = run_main(capsys, ["classify", "--xi", "1,1", "--m", "1", "--mu", "2"])
        assert code == 0
        assert "class=constant_one" in out

    def test_json_carries_note(self, capsys):
        code, out, _ = run_main(
            capsys, ["classify", "--xi", "3,2", "--m", "4", "--mu", "1",
                     "--horizon", "40", "--format", "json"]
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["threshold"] == 2
        assert "not a proof" in obj["note"]

    @pytest.mark.parametrize(
        "spec",
        [
            ["--xi", "2,2", "--m", "2", "--mu", "0"],  # polynomial
            ["--xi", "1,1", "--m", "1", "--mu", "2"],  # constant_one
            ["--xi", "1", "--m", "2", "--mu", "1"],  # eventually_positive
        ],
    )
    def test_negative_horizon_refused(self, capsys, spec):
        code, out, err = run_main(
            capsys, ["classify", *spec, "--horizon", "-5", "--format", "json"]
        )
        assert code == 3
        assert out == ""
        assert err == "error: horizon must be nonnegative\n"


class TestVerify:
    def test_pass_and_deterministic(self, capsys):
        code1, out1, _ = run_main(capsys, ["verify", "--seed", "7"])
        code2, out2, _ = run_main(capsys, ["verify", "--seed", "7"])
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.splitlines()[-1] == "PASS"

    def test_json_summary(self, capsys):
        code, out, _ = run_main(capsys, ["verify", "--seed", "3", "--format", "json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["ok"] is True
        assert len(obj["suites"]) == 8
        assert all(s["failures"] == 0 for s in obj["suites"])

    def test_corrupted_golden_fails(self, capsys, tmp_path):
        bad = {
            "matchings": [{"r": 5, "j": 2, "expect": [[[1, 2]]]}],
            "strip_walks": [],
            "dyck": [],
            "full_height": [],
            "expansions": [],
        }
        path = tmp_path / "golden.json"
        path.write_text(json.dumps(bad))
        code, out, _ = run_main(capsys, ["verify", "--golden", str(path)])
        assert code == 5
        assert out.splitlines()[-1] == "FAIL"

    def test_missing_golden_is_domain_error(self, capsys, tmp_path):
        code, _, err = run_main(
            capsys, ["verify", "--golden", str(tmp_path / "nope.json")]
        )
        assert code == 3
        assert "error:" in err

    def test_malformed_golden_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "golden.json"
        path.write_text('{"matchings": []}')
        code, _, err = run_main(capsys, ["verify", "--golden", str(path)])
        assert code == 3

    def test_wrong_shape_golden_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "golden.json"
        path.write_text('{"matchings": 5}')
        code, _, err = run_main(capsys, ["verify", "--golden", str(path)])
        assert code == 3
        assert "malformed golden fixture" in err
        assert "Traceback" not in err


class TestFamilies:
    def test_negative_q_short_circuits(self, capsys):
        code, out, _ = run_main(
            capsys, ["families", "--kind", "a", "--m", "2", "--t", "3",
                     "--s", "1", "--N", "2", "--format", "json"]
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["q"] == -2
        assert obj["multiplicity"] == "0"
        assert "q < 0" in obj["note"]

    def test_kind_b_pairs_listed(self, capsys):
        code, out, _ = run_main(
            capsys, ["families", "--kind", "b", "--m", "4", "--t", "1",
                     "--s", "3", "--r", "2", "--N", "1", "--format", "json"]
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["pairs"] == [[2, 0]]
        assert obj["multiplicity"] == "2"

    def test_text_mode_lists_fields(self, capsys):
        code, out, _ = run_main(
            capsys, ["families", "--kind", "a", "--m", "3", "--t", "0", "--s", "4"]
        )
        assert code == 0
        assert "q: 1" in out
        assert "pairs:" in out

    def test_route_disagreement_is_verify_exit(self, capsys, monkeypatch):
        import chebflag.families

        real = chebflag.families.product_model_coeff
        monkeypatch.setattr(
            chebflag.families, "product_model_coeff",
            lambda dec, r: real(dec, r) + 1,
        )
        code, out, err = run_main(
            capsys, ["families", "--kind", "b", "--m", "4", "--t", "1",
                     "--s", "3", "--r", "2", "--N", "1"]
        )
        assert code == 5
        assert out == ""
        assert "product model disagrees" in err
        assert "Traceback" not in err

    def test_invalid_query_is_domain_error(self, capsys):
        code, _, err = run_main(
            capsys, ["families", "--kind", "b", "--m", "3", "--r", "5"]
        )
        assert code == 3

    @pytest.mark.parametrize("t, s", [("1", "-1"), ("-1", "-1"), ("-1", "1")])
    def test_negative_counts_refused(self, capsys, t, s):
        code, out, err = run_main(
            capsys, ["families", "--kind", "c", "--m", "8", "--t", t, "--s", s,
                     "--rs", "7,6,7", "--N", "6"]
        )
        assert code == 3
        assert out == ""
        assert "t and s must be nonnegative" in err
        assert "Traceback" not in err

    def test_one_part_kind_c_matches_kind_b(self, capsys):
        # the same partition (m^t, r, 1^s) spelled as kind b and as kind c
        # with one part prints the same pairs, note and multiplicity
        def fields(argv):
            code, out, _ = run_main(capsys, argv + ["--format", "json"])
            obj = json.loads(out)
            return code, {k: v for k, v in obj.items() if k not in ("kind", "r", "rs")}

        pairs = 0
        for m in range(2, 8):
            for t, s, r in itertools.product(range(3), range(3 * m), range(1, m)):
                for N in [None, *range((r + s) // 2 + 1)]:
                    argv = ["families", "--m", str(m), "--t", str(t), "--s", str(s)]
                    argv += [] if N is None else ["--N", str(N)]
                    b = fields(argv + ["--kind", "b", "--r", str(r)])
                    c = fields(argv + ["--kind", "c", "--rs", str(r)])
                    assert b == c, argv + ["--r", str(r)]
                    pairs += b[1]["pairs"] is not None
        assert pairs > 3000

    def test_m1_pairs_match_k(self, capsys):
        code, out, _ = run_main(
            capsys, ["families", "--kind", "a", "--m", "1", "--t", "2",
                     "--s", "3", "--N", "1", "--format", "json"]
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["k"] == -1 and obj["pairs"] is None
        assert obj["note"] == "no unsigned model: k = -1 < 1"
        assert obj["multiplicity"] == "0"
        code, out, _ = run_main(
            capsys, ["families", "--kind", "a", "--m", "1", "--t", "2",
                     "--s", "3", "--format", "json"]
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["k"] == 1 and obj["pairs"] == [[0, 0]]


class TestTable:
    def test_csv_header_and_rows(self, capsys):
        code, out, _ = run_main(
            capsys, ["table", "--xi", "2", "--m", "2", "--n", "0..2",
                     "--format", "csv"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "xi,m,n,multiplicity,positivity,family"
        assert lines[1] == "2,2,0,0,polynomial,a"
        assert lines[2] == "2,2,1,0,polynomial,a"
        assert lines[3] == "2,2,2,1,eventually_positive,a"

    def test_empty_grid_header_only(self, capsys):
        code, out, _ = run_main(
            capsys, ["table", "--xi", "1", "--m", "2", "--n", "", "--format", "csv"]
        )
        assert code == 0
        assert out.splitlines() == ["xi,m,n,multiplicity,positivity,family"]

    def test_empty_grid_still_checks_parts(self, capsys):
        code, out, err = run_main(
            capsys, ["table", "--xi", "3", "--m", "2", "--n", "", "--format", "csv"]
        )
        assert code == 3
        assert out == ""
        assert "Traceback" not in err

    def test_negative_n_blank_class(self, capsys):
        code, out, _ = run_main(
            capsys, ["table", "--xi", "1", "--m", "2", "--n=-2,1",
                     "--format", "csv"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "1,2,-2,0,,a"
        assert lines[2] == "1,2,1,1,eventually_positive,a"

    def test_json_bare_array(self, capsys):
        code, out, _ = run_main(
            capsys, ["table", "--xi", "3,1", "--m", "3", "--n", "0,2,4",
                     "--format", "json"]
        )
        assert code == 0
        rows = json.loads(out)
        assert isinstance(rows, list) and len(rows) == 3
        assert rows[0]["family"] == "a"
        assert all(isinstance(r["multiplicity"], str) for r in rows)


class TestSubprocess:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "chebflag.cli", "mult", "--xi", "1,1",
             "--m", "2", "--n", "0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip().endswith("= 1")

    def test_env_ceiling_in_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "chebflag.cli", "expand", "--xi", "1",
             "--m", "2", "--mu", "1", "--order", "100"],
            capture_output=True, text=True,
            # Inherit the parent's environment so the child can import
            # chebflag whether it is installed or found through PYTHONPATH.
            env={**os.environ, "CHEBFLAG_CEILING": "10"},
        )
        assert proc.returncode == 4
        assert "ceiling" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_closed_stdout_exits_141_quietly(self):
        # the reader takes one line of megabytes of csv and closes the pipe;
        # the child inherits the environment, as in the tests above
        proc = subprocess.Popen(
            [sys.executable, "-m", "chebflag.cli", "expand", "--xi", "3,2", "--m",
             "4", "--mu", "1", "--order", "3000", "--format", "csv"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ},
        )
        assert proc.stdout.readline() == b"r,coefficient\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""
        proc.stderr.close()


GRID = [
    "expand --xi 3,2 --m 4 --mu 1 --order 6",
    "mult --xi 2,1,1 --m 2 --n 2",
    "classify --xi 3,2 --m 4 --mu 1 --horizon 20",
    "verify --seed 0",
    "families --kind b --m 4 --t 1 --s 3 --r 2 --N 1",
    "table --xi 3,1 --m 3 --n 0..4",
]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("line", GRID, ids=[g.split()[0] for g in GRID])
def test_every_command_in_every_format(capsys, line, fmt):
    code, out, _ = run_main(capsys, line.split() + ["--format", fmt])
    assert code == 0
    assert out.endswith("\n") and not out.endswith("\n\n")
    assert "\r" not in out
    if fmt == "json":
        json.loads(out)
    elif fmt == "csv" and line.startswith("verify"):
        # the documented exception: verify prints its text report for csv
        assert out == run_main(capsys, line.split())[1]
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) >= 2 and len({len(row) for row in rows}) == 1
