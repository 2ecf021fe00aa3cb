"""CLI transcript: a fixed corpus of invocations whose exit codes and stdout
bytes are pinned, so that refactors and speed-ups can be shown to change
no output.  The expand cases cover json, csv and text with the net pole
order k from -1 to 9; the table cases cover negative n, odd gaps, n above
|xi|, parts equal to m and k from -1 to 9.

Each digest is the sha256 of the invocation's stdout, encoded as UTF-8.
The first fourteen were recorded before the layered division and the
direct csv rows went in; the last three tables and the k <= 0 mult were
recorded before a table shared one numerator and one division chain
across its rows; the verify and families cases were recorded before the
acceptance gate and verify came to share one set of suites; the three
families cases with many repeated pairs and N in the tens were recorded
before the product model read all excesses of a pair from one
transfer-matrix pass; the mult and classify csv cases were recorded
before every command came to return its output to one writer.
"""

import hashlib
import json
import sys

import pytest

import chebflag.quotient
from chebflag.chebpoly import Partition
from chebflag.cli import main
from chebflag.quotient import expand, make_spec

CORPUS = [
    # (argv, exit code, sha256 of stdout); k noted for the expand cases
    ("expand --xi 2,2 --m 2 --mu 0 --order 12 --format json", 0,  # k=-1
     "3b10cfb465f610ba123d860434e8b2771348aac1acafa8c81d031fa29bb4e396"),
    ("expand --xi 4,4,1 --m 4 --mu 5 --order 30 --format csv", 0,  # k=0
     "180a78be1aa362c55eee7e6684b14b505657e69bb6fd893cc72ef6441e95ef2f"),
    ("expand --xi 3,2 --m 4 --mu 1 --order 60", 0,  # k=1
     "9d32af8cb065b8ce67d3368b8896452cbba1c8818d8057462903063475b480ed"),
    ("expand --xi 6,3 --m 8 --mu 9 --order 200 --format csv", 0,  # k=2
     "1ae17d94a0ac4e5a07faa56690fc94620fc41077551224fc519e6d822646e985"),
    ("expand --xi 5,5,5 --m 12 --mu 24 --order 300 --format json", 0,  # k=3
     "58caacb67ba272cb87d0bb9d440aa07ab46224c3b479475b6eb84671320311dc"),
    ("expand --xi 7,5 --m 12 --mu 60 --order 400", 0,  # k=6
     "5cbf568b972edd5bc51a4e3c2fe625ede6463aaa41f3c2274721b3fb9f33876e"),
    ("expand --xi 9,9,2 --m 9 --mu 80 --order 500 --format json", 0,  # k=7
     "3d9e8bab801196dab67e1db30e286d8913cef10cde26b00a0be1838dafd17eef"),
    ("expand --xi 40,30,20 --m 50 --mu 400 --order 800 --format csv", 0,  # k=9
     "93db982f3c84b4e6ea027a1ed9a4c8ff6cedd27de63b2f6b5b428c7c4da20475"),
    ("expand --xi 3 --m 2 --mu 0 --format csv", 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("mult --xi 2,1,1 --m 2 --n 2", 0,
     "53bb11b732fd667208da6d0669433a10f0580096b421198b51fb5d4d39d1f3fe"),
    ("mult --xi 20,20,20,20,9 --m 20 --n 39 --format json", 0,
     "3d71280c0707c08975204fac41191a371bb42bb9aee6ec45fb67cf17ffd893cb"),
    ("table --xi 2,2 --m 2 --n 0..8 --format csv", 0,
     "a7c83f772525a2b4b2b455b3abec117a7bec209a9e34df0aa3549bb7874c68c1"),
    # negative n, odd gaps, n above |xi|, parts equal to m, k from -1 to 5
    ("table --xi 6,6,5,4,3,3,2,1 --m 6 --n=-2..40 --format json", 0,
     "6a16f5d14420596a19f575165e308e744bd52ec03db9efa37456239398955414"),
    # a stride grid whose k climbs to 9
    ("table --xi 4,4,4,4,4,4,4,4,4,3,3 --m 5 --n 0,6,12,18,24,30,35,36,40,42,44"
     " --format csv", 0,
     "e166d93bfe6947ce6fdea979cb34fb9a35c7331e76848af99cbb878b3c077eb9"),
    ("table --xi 7,7,6,2 --m 7 --n 0..22", 0,  # k=-1..2
     "4cba9530a08cbc555713421e18d3a03dbf902297f2f8a4e337d643210baf6a4d"),
    ("mult --xi 3,3,3,1 --m 3 --n 4", 0,  # k=-1
     "4e94c0d83e1b0d4dde60f9b0d0e1cdbbe417cf297debd9c76ed8de3da466e7da"),
    ("classify --xi 3,2 --m 4 --mu 1 --horizon 60 --format json", 0,
     "ae8d16f980ec56b2868ff42c66cc69d0eb6004850f21e8592683ac9343c443a9"),
    ("classify --xi 5,3,1 --m 6 --mu 13", 0,
     "1dd0e4ec010ba118952645158aec5b173add333511dbe5f0fe80726dd514fea1"),
    ("verify --seed 0", 0,
     "0f7f5263d360f4a8b8f58f9d76cdaccd84f1b7d1554c9e1106de4bbc9098ef28"),
    ("verify --seed 3 --format json", 0,
     "b27654c3ebd19e2d94f67cdb1b8506858ef990c9a57d10c9ca130a7f7b50aac4"),
    ("verify --seed 7 --format csv", 0,
     "f70c15ca1b924fdf2be6f050612dd94ec782c48393b98fe0429f6718740a24aa"),
    # q < 0 in json, kind c in csv, a found pair decomposition, kind c
    # without N
    ("families --kind a --m 2 --t 3 --s 1 --N 2 --format json", 0,
     "6632e43297b4123c2eefd49a008d31d18bdb462800f315e11bd7544a776d3ae8"),
    ("families --kind c --m 4 --t 1 --s 2 --rs 3,2 --N 2 --format csv", 0,
     "d3482f93e2ca14927cf37ed9bd317180ba09b6d6b71ef210781dba1e922b145a"),
    ("families --kind b --m 5 --t 2 --s 4 --r 3 --N 2", 0,
     "bdecbd59510d0af1614294d98630b3ea1c44877cd485215e5f019f6e81eddb67"),
    ("families --kind c --m 5 --t 0 --s 1 --rs 4,3,2", 0,
     "1fab662aef51bb8b20fb5743864e00201a7e4c30acecdaf55cf819ec93613461"),
    # product models over many repeated pairs with N in the tens
    ("families --kind a --m 6 --t 1 --s 170 --N 60 --format json", 0,
     "2b13f172f64d98c6a85864da6b62dae571b4adc807e4a76ca990fb311f760313"),
    ("families --kind c --m 7 --t 2 --s 150 --rs 5,3,2 --N 50 --format csv", 0,
     "8f7cf7fc379d89c7541a6adbcab8337d2ef07272e0f0645f48b16b3cd9fb42f7"),
    ("families --kind b --m 8 --t 0 --s 200 --r 6 --N 80", 0,
     "aabd95cb96efb39fb26fccdf2fd970bb835372c38c5eaf77dde40f197bacebe5"),
    # mult csv with a quoted and an unquoted xi cell; classify csv for each
    # class, with empty cells for an absent degree bound or threshold
    ("mult --xi 4,4,3,3,2,2,1,1 --m 5 --n 4 --format csv", 0,
     "f53f047cbd4b632abfc97cadff46bf22d2776487611e3d9433985d8840640c61"),
    ("mult --xi 1 --m 3 --n 1 --format csv", 0,
     "644c7fcc1e655d87047250093621316a251294a3dd4c6f28fb3d78ca76aef33a"),
    ("classify --xi 1,1 --m 1 --mu 2 --format csv", 0,  # constant_one
     "61b1608ae40665fe36002fe5533e71bdb8f34d5568f9e6dc207af9fc26a0ed72"),
    ("classify --xi 2,2 --m 2 --mu 0 --format csv", 0,  # polynomial
     "f9de1d8115a7945c4fca5c380fc3769b7f001bf2537eda6d96491056d5a2147b"),
    ("classify --xi 3,2 --m 4 --mu 1 --horizon 60 --format csv", 0,
     "9b18ef8a991f6cc6d5fc6ed8a680e0d0f6f288d8e9a5a0f5a976d5d20701a1f7"),
]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("line, code, digest", CORPUS, ids=[c[0] for c in CORPUS])
def test_transcript(capsys, line, code, digest):
    got = main(line.split())
    out, err = capsys.readouterr()
    assert got == code
    assert _digest(out) == digest
    assert "Traceback" not in err


def test_csv_rows_before_digit_limit(capsys):
    # a_1082 is the first coefficient past 640 decimal digits, so expand
    # exits 3 after writing the header and rows 0..1081 exactly
    line = "expand --xi 7,5 --m 12 --mu 60 --order 1500 --format csv"
    cs = expand(make_spec(Partition((7, 5)), 12, 60), 1081).coeffs.coeffs
    want = "r,coefficient\n" + "".join(f"{r},{c}\n" for r, c in enumerate(cs))
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        got = main(line.split())
    finally:
        sys.set_int_max_str_digits(previous)
    out, err = capsys.readouterr()
    assert got == 3
    assert "640 digits" in err
    assert out == want
    assert _digest(out) == (
        "c90c1b13082c1099a26ba68419a19bf9f4931a56d1bd5bf89aad058bb72f0c19"
    )


@pytest.mark.parametrize("limit", [640, 0])
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_wide_expand_prints_what_ints_print(capsys, monkeypatch, fmt, limit):
    # order 2000 is past the crossover for k=6, m=12 (500 + 30*6*6 = 1580),
    # so the division chain runs in Decimal; forcing the int route must give
    # the same exit code, stdout and stderr, with and without a digit limit
    line = f"expand --xi 7,5 --m 12 --mu 60 --order 2000 --format {fmt}"
    runs = []
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        runs.append((main(line.split()), *capsys.readouterr()))
        monkeypatch.setattr(chebflag.quotient, "_wide", lambda sp, order: False)
        runs.append((main(line.split()), *capsys.readouterr()))
    finally:
        sys.set_int_max_str_digits(previous)
    assert runs[0] == runs[1]
    got, out, err = runs[0]
    if limit:
        # a_1082 is the first coefficient past 640 digits
        assert got == 3 and "640 digits" in err
        if fmt == "csv":
            cs = expand(make_spec(Partition((7, 5)), 12, 60), 1081).coeffs.coeffs
            assert out == "r,coefficient\n" + "".join(
                f"{r},{c}\n" for r, c in enumerate(cs))
        else:
            assert out.splitlines() == (
                ["xi=[7, 5] m=12 mu=60 -> mu1=5 mu0=0 t=0 k=6 alphas=[11, 7, 5]"]
                if fmt == "text" else [])
    else:
        assert (got, err) == (0, "")
        cs = expand(make_spec(Partition((7, 5)), 12, 60), 2000).coeffs.coeffs
        if fmt == "csv":
            assert out.splitlines()[-1] == f"2000,{cs[-1]}"
        elif fmt == "json":
            assert json.loads(out)["coefficients"] == list(map(str, cs))
        else:
            assert out.splitlines()[1] == ",".join(map(str, cs))
