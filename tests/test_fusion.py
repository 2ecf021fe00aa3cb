import random
import sys

import pytest

from _reference import spec_of
from chebflag.chebpoly import Partition
from chebflag.fusion import fold
from chebflag.quotient import multiplicities, positivity_bound


def _random_partitions(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(2, 9)
        parts = sorted((rng.randint(1, m - 1) for _ in range(rng.randint(0, 7))),
                       reverse=True)
        yield parts, m


class TestFold:
    def test_matches_multiplicities(self):
        # the division chain, an independent route, value by value
        cases = list(_random_partitions(20261019, 300)) + [([7] * 30, 9)]
        for parts, m in cases:
            counts = fold(parts, m)
            ns = range(-1, sum(parts) + 2)
            want = multiplicities(Partition(parts), m, ns)
            assert [counts.get(n, 0) for n in ns] == want, (parts, m)
            assert all(c > 0 for c in counts.values()), (parts, m)

    def test_empty_and_zero_parts(self):
        assert fold([], 3) == {0: 1}
        assert fold([0, 0], 3) == {0: 1}  # p_0 = 1

    def test_truncates_at_level(self):
        # p_2 * p_2 = p_4 + x p_2 + x^2 p_0, and at m = 3 the first two
        # terms sum to p_3 p_1: n = 4 is (e, c) = (1, 1), no term has n = 2
        assert fold([2, 2], 3) == {4: 1, 0: 1}

    def test_rejects_parts_outside_level(self):
        with pytest.raises(ValueError):
            fold([3], 3)
        with pytest.raises(ValueError):
            fold([-1], 3)

    def test_independent_of_the_other_routes(self, monkeypatch):
        # the fold reads indices only: no p_r, no product, no division and
        # no walk count may run while it or the bound it proves does
        cases = [([7] * 30, 9), ([3, 2, 2, 1], 5)]
        want = [fold(parts, m) for parts, m in cases]
        specs = [spec_of([3, 2], 4, 1), spec_of([5, 4, 4, 1], 6, 13)]
        bounds = [positivity_bound(sp) for sp in specs]

        def refuse(*args, **kwargs):
            raise AssertionError("the fold reached another route")

        for name, module in list(sys.modules.items()):
            if name == "chebflag" or name.startswith("chebflag."):
                for attr in ("p_poly", "poly_prod", "series_div_unit",
                             "strip_walk_counts", "dyck_counts"):
                    if hasattr(module, attr):
                        monkeypatch.setattr(module, attr, refuse)
        assert [fold(parts, m) for parts, m in cases] == want
        assert [positivity_bound(sp) for sp in specs] == bounds
