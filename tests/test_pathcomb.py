import math

import pytest
from hypothesis import given, settings, strategies as st

from chebflag.chebpoly import p_poly
from chebflag.pathcomb import (
    DyckConstraint,
    DyckPath,
    StripWalk,
    continuant_det,
    dyck_count,
    dyck_counts,
    dyck_to_walk,
    enumerate_dyck,
    enumerate_matchings,
    enumerate_strip_walks,
    full_height_count,
    matching_count,
    strip_walk_count,
    strip_walk_count_dfs,
    strip_walk_counts,
    walk_to_dyck,
)
from chebflag.series import poly_mul, series_div_unit


class TestStripWalk:
    def test_excess(self):
        w = StripWalk(3, (0, 1, 0, 1, 2))
        assert w.length == 4
        assert w.excess == 1

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            StripWalk(3, (0, 2))
        with pytest.raises(ValueError):
            StripWalk(2, (0, 1, 2))
        with pytest.raises(ValueError):
            StripWalk(3, ())


class TestDyckPath:
    def test_rejects_below_axis(self):
        with pytest.raises(ValueError):
            DyckPath(("D", "U"))

    def test_rejects_unbalanced(self):
        with pytest.raises(ValueError):
            DyckPath(("U", "U", "D"))

    def test_height_and_semilength(self):
        p = DyckPath(tuple("UUDUDD"))
        assert p.semilength == 3
        assert p.height == 2
        assert p.word == "UUDUDD"

    def test_empty_path(self):
        assert DyckPath(()).semilength == 0


class TestDyckConstraint:
    def test_rejects_a_plus_b_too_big(self):
        with pytest.raises(ValueError):
            DyckConstraint(3, 2, 1, 0)

    def test_rejects_negative_excess(self):
        with pytest.raises(ValueError):
            DyckConstraint(3, 0, 0, -1)

    def test_semilength(self):
        assert DyckConstraint(3, 0, 2, 0).semilength == 0

    def test_walk_length(self):
        # the walk from a to m-1-b: m-1-a-b forced steps, two per excess
        assert DyckConstraint(3, 0, 2, 0).walk_length == 0
        assert DyckConstraint(5, 1, 2, 3).walk_length == 7
        for m, a, b, u in [(4, 1, 1, 0), (4, 1, 1, 2), (5, 0, 0, 3), (5, 2, 2, 1)]:
            c = DyckConstraint(m, a, b, u)
            walks = enumerate_strip_walks(m, a, m - 1 - b, c.walk_length)
            assert walks and all(w.excess == u for w in walks), c


class TestMatchings:
    def test_empty_matching_always(self):
        for r in range(10):
            assert matching_count(r, 0) == 1

    def test_hand_count(self):
        assert matching_count(5, 2) == 3

    def test_too_many_edges(self):
        assert matching_count(4, 3) == 0

    def test_enumerate_p3(self):
        assert enumerate_matchings(3, 1) == [((1, 2),), ((2, 3),)]

    def test_enumerate_empty_graph(self):
        assert enumerate_matchings(0, 0) == [()]

    def test_enumerate_single_edge(self):
        assert enumerate_matchings(2, 1) == [((1, 2),)]

    def test_guard(self):
        with pytest.raises(ValueError):
            enumerate_matchings(21, 1)

    def test_counts_against_enumeration(self):
        for r in range(15):
            for j in range(8):
                got = len(enumerate_matchings(r, j))
                assert got == matching_count(r, j) == (
                    math.comb(r - j, j) if j <= r - j else 0
                )


class TestStripWalkCounts:
    def test_forced_alternation(self):
        assert strip_walk_count(2, 0, 1, 1) == 1

    def test_hand_dfs(self):
        assert strip_walk_count(3, 0, 2, 4) == 2

    def test_parity_zero(self):
        assert strip_walk_count(3, 0, 2, 3) == 0

    def test_rejects_bad_vertices(self):
        with pytest.raises(ValueError):
            strip_walk_count(3, 0, 3, 2)

    def test_enumeration_matches(self):
        assert [w.heights for w in enumerate_strip_walks(3, 0, 2, 4)] == [
            (0, 1, 0, 1, 2),
            (0, 1, 2, 1, 2),
        ]
        assert [w.heights for w in enumerate_strip_walks(2, 0, 1, 3)] == [(0, 1, 0, 1)]
        assert [w.heights for w in enumerate_strip_walks(3, 1, 1, 0)] == [(1,)]

    def test_enumeration_guard(self):
        with pytest.raises(ValueError):
            enumerate_strip_walks(2, 0, 1, 25)

    def test_transfer_vs_enumeration_vs_dfs(self):
        for m in range(1, 7):
            for a in range(m):
                for b in range(m):
                    for L in range(17):
                        tm = strip_walk_count(m, a, b, L)
                        assert tm == len(enumerate_strip_walks(m, a, b, L))
                        assert tm == strip_walk_count_dfs(m, a, b, L)

    def test_single_vertex_strip(self):
        assert strip_walk_count(1, 0, 0, 0) == 1
        assert strip_walk_count(1, 0, 0, 2) == 0

    def test_every_length_matches_dfs(self):
        for m in range(1, 7):
            for a in range(m):
                for b in range(m):
                    full = strip_walk_counts(m, a, b, 20)
                    assert full == [strip_walk_count_dfs(m, a, b, L) for L in range(21)]
                    for L in range(21):
                        assert strip_walk_counts(m, a, b, L) == full[: L + 1]
                        assert strip_walk_count(m, a, b, L) == full[L]

    def test_counts_reject_bad_arguments(self):
        with pytest.raises(ValueError):
            strip_walk_counts(3, 0, 3, 2)
        with pytest.raises(ValueError):
            strip_walk_counts(3, 0, 2, -1)


class TestFullHeight:
    def test_minimal_walk_unique(self):
        for m in range(1, 8):
            assert full_height_count(m, 0) == 1

    def test_m2_all_ones(self):
        assert [full_height_count(2, u) for u in range(11)] == [1] * 11

    def test_m3_powers_of_two(self):
        assert full_height_count(3, 2) == 4
        assert [full_height_count(3, u) for u in range(11)] == [2**u for u in range(11)]

    def test_series_specialization(self):
        # coefficient u of 1/p_m counts full-height walks of excess u
        for m in range(1, 9):
            s = series_div_unit(p_poly(0), p_poly(m), 10)
            for u in range(11):
                assert s.coeffs[u] == full_height_count(m, u), (m, u)


class TestWalkQuotient:
    def test_identity_grid(self):
        for m in range(1, 7):
            pm = p_poly(m)
            for a in range(m):
                for b in range(a, m):
                    s = series_div_unit(poly_mul(p_poly(a), p_poly(m - 1 - b)), pm, 10)
                    for r in range(11):
                        assert s.coeffs[r] == strip_walk_count(m, a, b, b - a + 2 * r)


class TestDyck:
    def test_u0_forced(self):
        for m in range(1, 6):
            for a in range(m):
                for b in range(m - a):
                    assert dyck_count(DyckConstraint(m, a, b, 0)) == 1

    def test_hand_enumeration(self):
        got = [p.word for p in enumerate_dyck(DyckConstraint(3, 0, 0, 1))]
        assert got == ["UDUUDD", "UUDUDD"]

    def test_m2_unique_path(self):
        for u in range(9):
            assert dyck_count(DyckConstraint(2, 0, 0, u)) == 1
        assert [p.word for p in enumerate_dyck(DyckConstraint(2, 0, 0, 1))] == ["UDUD"]

    def test_forced_prefix(self):
        assert [p.word for p in enumerate_dyck(DyckConstraint(3, 1, 0, 0))] == ["UUDD"]

    def test_empty_path_case(self):
        assert [p.word for p in enumerate_dyck(DyckConstraint(3, 0, 2, 0))] == [""]

    def test_guard(self):
        with pytest.raises(ValueError):
            enumerate_dyck(DyckConstraint(3, 0, 0, 11))

    def test_counts_match_enumeration(self):
        for m in range(1, 6):
            for a in range(m):
                for b in range(m - a):
                    for u in range(5):
                        c = DyckConstraint(m, a, b, u)
                        assert dyck_count(c) == len(enumerate_dyck(c))

    def test_every_excess_matches_enumeration(self):
        # every excess up to the enumeration guard, semilength 12, for
        # m <= 4; semilength 9 keeps m = 5..7 cheap
        for m in range(1, 8):
            limit = 12 if m <= 4 else 9
            for a in range(m):
                for b in range(m - a):
                    top = limit - (m - 1 - b)
                    want = [
                        len(enumerate_dyck(DyckConstraint(m, a, b, u)))
                        for u in range(top + 1)
                    ]
                    assert dyck_counts(DyckConstraint(m, a, b, top)) == want


class TestBijection:
    def test_empty_blocks(self):
        w = StripWalk(2, (0,))
        c = DyckConstraint(2, 0, 1, 0)
        assert walk_to_dyck(w, c).word == ""

    def test_single_up(self):
        w = StripWalk(2, (0, 1))
        c = DyckConstraint(2, 0, 0, 0)
        assert walk_to_dyck(w, c).word == "UD"

    def test_round_trip_exhaustive(self):
        for m in range(1, 6):
            for a in range(m):
                for b in range(m - a):
                    for u in range(5):
                        c = DyckConstraint(m, a, b, u)
                        walks = enumerate_strip_walks(
                            m, a, m - 1 - b, m - 1 - a - b + 2 * u
                        )
                        paths = enumerate_dyck(c)
                        images = [walk_to_dyck(w, c) for w in walks]
                        assert len(set(images)) == len(images)  # injective
                        assert set(images) == set(paths)  # onto
                        for w in walks:
                            assert dyck_to_walk(walk_to_dyck(w, c), c) == w

    def test_forward_rejects_wrong_endpoints(self):
        with pytest.raises(ValueError):
            walk_to_dyck(StripWalk(3, (0, 1)), DyckConstraint(3, 0, 0, 0))

    def test_inverse_rejects_wrong_membership(self):
        with pytest.raises(ValueError):
            dyck_to_walk(DyckPath(tuple("UD")), DyckConstraint(3, 1, 0, 0))
        # right semilength, wrong forced prefix
        with pytest.raises(ValueError):
            dyck_to_walk(DyckPath(tuple("UDUD")), DyckConstraint(3, 2, 0, 0))


class TestContinuant:
    def test_identity_through_8(self):
        # det(I - s A_m) must equal p_m evaluated at s^2
        for m in range(1, 9):
            det = continuant_det(m)
            pm = p_poly(m)
            want = [0] * (2 * pm.degree + 1)
            for i, c in enumerate(pm.coeffs):
                want[2 * i] = c
            assert list(det.coeffs) == want, m


@given(st.integers(1, 5), st.integers(0, 4), st.integers(0, 4), st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_transfer_matches_dfs(m, a, b, L):
    if a >= m or b >= m:
        return
    assert strip_walk_count(m, a, b, L) == strip_walk_count_dfs(m, a, b, L)
