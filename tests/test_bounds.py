"""Golden values and invariants for the exact bounds module."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachepir import (
    Params,
    asymptotic_gain,
    asymptotic_outer,
    binom,
    collinearity_check,
    corner_message_length,
    corner_point,
    corner_points,
    corner_ratio,
    exact_tradeoff_k3,
    gap,
    inner_bound,
    inner_corner,
    known_prefetch_cost,
    matching_region,
    outer_bound,
    retrieve,
    split_for_ratio,
    worst_case_gap,
)


def test_binom_convention():
    assert binom(4, 2) == 6
    assert binom(2, -1) == 0
    assert binom(0, 0) == 1
    assert binom(3, 5) == 0
    with pytest.raises(ValueError):
        binom(-1, 0)


@given(st.integers(0, 40), st.integers(-10, 50))
def test_binom_matches_pascal(n, k):
    if 0 < k <= n:
        assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)


def test_params_validation():
    with pytest.raises(ValueError):
        Params(1, 2)
    with pytest.raises(ValueError):
        Params(3, 1)


@pytest.mark.parametrize("k,n,field", [(3.0, 2, "k"), (True, 2, "k"), (3, 2.0, "n")])
def test_params_refuse_non_int(k, n, field):
    with pytest.raises(ValueError, match=f"{field} must be an int"):
        Params(k, n)


@pytest.mark.parametrize(
    "k,n,s,ratio",
    [
        (3, 2, 1, F(1, 7)),
        (4, 3, 2, F(2, 17)),
        (5, 2, 4, F(1, 3)),
        (4, 2, 0, F(0)),
        (4, 2, 1, F(1, 15)),
        (4, 3, 1, F(1, 40)),
    ],
)
def test_corner_ratio_golden(k, n, s, ratio):
    assert corner_ratio(Params(k, n), s) == ratio


@pytest.mark.parametrize(
    "k,n,s,length",
    [(3, 2, 1, 7), (4, 3, 1, 40), (3, 2, 2, 3), (4, 2, 1, 15), (4, 3, 3, 4)],
)
def test_corner_length_golden(k, n, s, length):
    assert corner_message_length(Params(k, n), s) == length


@pytest.mark.parametrize(
    "k,n,s,total",
    [(3, 2, 1, 8), (3, 2, 2, 2), (4, 3, 3, 3), (4, 2, 0, 30)],
)
def test_corner_download_golden(k, n, s, total):
    assert corner_point(Params(k, n), s).total_download == total


@pytest.mark.parametrize(
    "k,n,s,cost",
    [
        (3, 2, 1, F(8, 7)),
        (4, 2, 1, F(22, 15)),
        (4, 3, 1, F(27, 20)),
        (5, 2, 0, F(31, 16)),
        (4, 2, 2, F(1)),
        (4, 2, 3, F(2, 3)),
        (4, 3, 2, F(18, 17)),
        (4, 3, 3, F(3, 4)),
    ],
)
def test_corner_cost_golden(k, n, s, cost):
    assert corner_point(Params(k, n), s).cost == cost


def test_corner_cost_times_length_is_download():
    for k in range(2, 13):
        for n in range(2, 7):
            p = Params(k, n)
            for s in range(k):
                corner = corner_point(p, s)
                assert corner.cost * corner.msg_len == corner.total_download


def test_corner_ratio_strictly_increasing():
    for k in range(2, 9):
        for n in range(2, 6):
            ratios = [corner_ratio(Params(k, n), s) for s in range(k)]
            assert all(a < b for a, b in zip(ratios, ratios[1:]))


def test_corner_point_matches_per_term_sums():
    # corner_point sums running products; here each binomial is its own comb
    for k in range(2, 61):
        for n in range(2, 6):
            p = Params(k, n)
            for s in range(k):
                rounds = range(k - s)
                length = binom(k - 2, s - 1) + n * sum(
                    binom(k - 1, s + i) * (n - 1) ** i for i in rounds
                )
                total = n * sum(binom(k, s + 1 + i) * (n - 1) ** i for i in rounds)
                corner = corner_point(p, s)
                assert (corner.msg_len, corner.total_download) == (length, total)


def test_corner_point_and_sequence():
    p = Params(3, 2)
    pts = corner_points(p)
    assert [c.s for c in pts] == [0, 1, 2]
    assert pts[1] == corner_point(p, 1)
    assert pts[0].ratio == 0 and pts[2].ratio == F(1, 3)


def test_corner_s_range_errors():
    p = Params(4, 2)
    for fn in (corner_point, corner_ratio, corner_message_length):
        with pytest.raises(ValueError):
            fn(p, -1)
        with pytest.raises(ValueError):
            fn(p, 4)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_corner_index_must_be_an_int(warm):
    # True and 1.0 hash as 1: an untyped cache took them for corner 1, or
    # cached a corner whose s is a bool, which retrieve then refused.
    p = Params(3, 2)
    corner_point.cache_clear()
    if warm:
        corner_point(p, 1)
    for s in (True, 1.0):
        with pytest.raises(ValueError, match="corner index s must be an int"):
            corner_ratio(p, s)
    assert retrieve(p, 0, F(1, 7), 1).plan.blocks == ((1, 1),)


def test_no_cache_corner_is_classic_cost():
    for k in range(2, 11):
        for n in range(2, 6):
            p = Params(k, n)
            classic = sum(F(1, n**j) for j in range(k))
            assert corner_point(p, 0).cost == classic
            assert known_prefetch_cost(p, 0) == classic


@pytest.mark.parametrize(
    "k,n,r,value",
    [
        (3, 2, F(1, 5), F(1)),
        (4, 2, F(1), F(0)),
        (4, 2, F(0), F(15, 8)),
    ],
)
def test_outer_bound_golden(k, n, r, value):
    assert outer_bound(Params(k, n), r) == value


def test_outer_bound_domain():
    with pytest.raises(ValueError):
        outer_bound(Params(3, 2), F(6, 5))
    with pytest.raises(ValueError):
        outer_bound(Params(3, 2), F(-1, 5))


@pytest.mark.parametrize(
    "k,n,i,value",
    [
        (4, 2, 1, F(1, 15)),
        (4, 2, 3, F(1, 3)),
        (3, 2, 2, F(1, 3)),
    ],
)
def test_inner_corner_golden(k, n, i, value):
    assert inner_corner(Params(k, n), i) == value


@pytest.mark.parametrize(
    "k,n,r,value",
    [
        (4, 2, F(1, 15), F(22, 15)),
        (2, 3, F(0), F(4, 3)),
        (5, 2, F(1), F(0)),
    ],
)
def test_inner_bound_golden(k, n, r, value):
    assert inner_bound(Params(k, n), r) == value


def segment(n, t, r):
    # the converse's line with t + 1 leading messages, summed term by term
    lead = sum(F(1, n**j) for j in range(t + 1))
    slope = sum(F(t - j, n**j) for j in range(t))
    return (1 - r) * lead - r * slope


def test_inner_segment_transitions():
    # The maximizing straight line changes exactly at the inner corners.
    for k, n in [(4, 2), (5, 3), (6, 2)]:
        p = Params(k, n)

        def argmax(r):
            values = [(segment(n, t, r), t) for t in range(k)]
            return max(values)[1]

        for i in range(1, k):
            corner = inner_corner(p, i)
            below = argmax(corner * F(99, 100))
            above = argmax(corner * F(101, 100))
            assert below == k - i
            assert above == k - i - 1
            # both adjacent segments meet the bound at the corner itself
            assert (
                segment(n, k - i, corner)
                == segment(n, k - i - 1, corner)
                == inner_bound(p, corner)
            )


@pytest.mark.parametrize("n", range(2, 7))
def test_one_segment_converse_is_the_k_line_maximum(n):
    # inner_bound evaluates only the active segment; the reference is the
    # maximum over all k lines, each line's value at r = 0 plus r times its slope
    rng = random.Random(28 + n)
    for k in range(2, 41):
        p = Params(k, n)
        lines = [(segment(n, t, 0), segment(n, t, 1) - segment(n, t, 0))
                 for t in range(k)]
        breaks = sorted(
            {F(0), F(1)}
            | {inner_corner(p, i) for i in range(1, k)}
            | {corner_ratio(p, s) for s in range(k)}
        )
        ratios = set(breaks)
        ratios.update((a + b) / 2 for a, b in zip(breaks, breaks[1:]))
        ratios.update(F(rng.randrange(10**6 + 1), 10**6) for _ in range(8))
        ratios.update(F(1, rng.randrange(1, 10**12 + 1)) for _ in range(8))
        for r in ratios:
            assert inner_bound(p, r) == max(a + r * b for a, b in lines), (k, n, r)


@pytest.mark.parametrize(
    "k,n,r,value",
    [(3, 2, F(1, 3), F(7, 6)), (5, 4, F(1), F(0)), (2, 2, F(0), F(3, 2))],
)
def test_known_prefetch_golden(k, n, r, value):
    assert known_prefetch_cost(Params(k, n), r) == value


def test_unawareness_gain_at_last_corner():
    for k in range(2, 11):
        for n in range(2, 6):
            p = Params(k, n)
            r = F(1, 1 + n)
            assert outer_bound(p, r) == F(n, 1 + n)
            assert outer_bound(p, r) < known_prefetch_cost(p, r)


@pytest.mark.parametrize(
    "k,n,r,value",
    [(3, 2, F(1, 9), F(0)), (4, 2, F(1, 5), F(0)), (4, 2, F(1, 7), F(2, 35))],
)
def test_gap_golden(k, n, r, value):
    assert gap(Params(k, n), r) == value


@given(
    st.integers(2, 6),
    st.integers(2, 5),
    st.fractions(min_value=0, max_value=1, max_denominator=200),
)
@settings(max_examples=150)
def test_bound_ordering(k, n, r):
    p = Params(k, n)
    assert inner_bound(p, r) <= outer_bound(p, r) <= known_prefetch_cost(p, r)


def test_bound_ordering_on_grid_and_corners():
    for k, n in [(3, 2), (4, 3), (5, 2), (6, 4)]:
        p = Params(k, n)
        points = {F(j, 100) for j in range(101)}
        points.update(corner_ratio(p, s) for s in range(k))
        points.update(inner_corner(p, i) for i in range(1, k))
        for r in sorted(points):
            assert inner_bound(p, r) <= outer_bound(p, r) <= known_prefetch_cost(p, r)


def test_boundary_agreement():
    for k in range(2, 9):
        for n in range(2, 6):
            p = Params(k, n)
            classic = sum(F(1, n**j) for j in range(k))
            assert outer_bound(p, 0) == inner_bound(p, 0) == classic
            assert outer_bound(p, 1) == inner_bound(p, 1) == 0


@pytest.mark.parametrize(
    "n,r,value",
    [(2, F(0), F(7, 4)), (2, F(1, 3), F(2, 3)), (2, F(1, 2), F(1, 2))],
)
def test_exact_tradeoff_k3_golden(n, r, value):
    assert exact_tradeoff_k3(n, r) == value


def test_k3_tradeoff_is_both_bounds():
    for n in range(2, 7):
        p = Params(3, n)
        for j in range(0, 201):
            r = F(j, 200)
            oracle = exact_tradeoff_k3(n, r)
            assert outer_bound(p, r) == oracle
            assert inner_bound(p, r) == oracle


@pytest.mark.parametrize(
    "k,n,low,high",
    [
        (4, 2, F(1, 15), F(1, 5)),
        (3, 2, F(1, 7), F(1, 7)),
        (3, 3, F(1, 13), F(1, 13)),
    ],
)
def test_matching_region_golden(k, n, low, high):
    assert matching_region(Params(k, n)) == (low, high)


def test_matching_region_k2_guarded():
    with pytest.raises(ValueError):
        matching_region(Params(2, 2))


def test_gap_zero_on_matching_regions():
    for k in range(3, 9):
        for n in range(2, 6):
            p = Params(k, n)
            low, high = matching_region(p)
            assert low == corner_ratio(p, 1) == inner_corner(p, 1)
            for j in range(11):
                assert gap(p, low * F(j, 10)) == 0
                assert gap(p, high + (1 - high) * F(j, 10)) == 0


def test_collinearity_examples():
    # the fresh corner at k+1 messages lands on the chord of the k-message curve
    assert corner_ratio(Params(5, 2), 1) == F(1, 31)
    assert corner_point(Params(5, 2), 1).cost == F(52, 31)
    assert collinearity_check(Params(4, 2), 1)
    assert collinearity_check(Params(3, 2), 2)
    assert collinearity_check(Params(5, 3), 3)


def test_collinearity_sweep():
    for k in range(2, 11):
        for n in range(2, 5):
            p = Params(k, n)
            for s in range(1, k):
                assert collinearity_check(p, s)


def test_outer_monotone_in_k():
    grid = [F(j, 40) for j in range(41)]
    for n in range(2, 5):
        for k in range(2, 9):
            lower, upper = Params(k, n), Params(k + 1, n)
            for r in grid:
                assert outer_bound(upper, r) >= outer_bound(lower, r)


@pytest.mark.parametrize(
    "n,r,value",
    [(2, F(1, 3), F(2, 3)), (2, F(0), F(2)), (3, F(1), F(0))],
)
def test_asymptotic_outer_golden(n, r, value):
    assert asymptotic_outer(n, r) == value


@pytest.mark.parametrize(
    "n,r,value",
    [(2, F(0), F(1)), (2, F(1, 3), F(1, 2)), (5, F(1, 2), F(4, 9))],
)
def test_asymptotic_gain_golden(n, r, value):
    assert asymptotic_gain(n, r) == value


@given(st.integers(2, 8), st.fractions(min_value=0, max_value=1, max_denominator=97))
def test_asymptotic_gain_at_most_one(n, r):
    assert asymptotic_gain(n, r) <= 1


def test_worst_case_gap_n2():
    assert worst_case_gap(2) == (F(1, 15), F(1, 6))


def test_worst_case_gap_in_closed_form():
    # from n = 3 on the worst case sits at the inner corner 1/(1 + n + n²),
    # and the gap there equals that ratio
    for n in range(3, 41):
        assert worst_case_gap(n) == (F(1, 1 + n + n * n),) * 2, n


@pytest.mark.parametrize("r", [F(0), F(1, 10**60), F(1, 10**6), F(1, 3), F(1, 2), F(1)])
def test_outer_bound_computes_two_corners_not_k(r):
    p = Params(256, 2)
    corner_point.cache_clear()
    outer_bound(p, r)
    assert corner_point.cache_info().misses <= 2 * p.k.bit_length() + 2


def test_gap_at_most_one_sixth_at_finite_k():
    # Outer and inner are both piece-wise linear, so their gap peaks at a
    # corner of one of them: the maximum over those corners is exact.
    worst = {}
    for k in range(2, 31):
        for n in range(2, 5):
            p = Params(k, n)
            corners = [corner_ratio(p, s) for s in range(k)]
            corners += [inner_corner(p, i) for i in range(1, k)]
            worst[k, n] = max(gap(p, r) for r in corners)
    assert max(worst.values()) <= F(1, 6)
    assert worst[10, 2] < worst[20, 2] < worst[30, 2]
    assert F(13999, 10**5) < worst[30, 2] < F(14, 100)


@pytest.mark.parametrize("n", range(2, 8))
def test_finite_k_gap_argmax_over_inner_corners(n):
    # The gap peaks at an inner corner (it is convex on each inner segment).
    # At n = 2 its one argmax settles at worst_case_gap's 1/15 from k = 11 on,
    # with k = 9 an early case (gap 442/4545); from n = 3 on it is
    # 1/(1 + n + n²) at every k >= 4.  At k = 3 the bounds match everywhere.
    for k in range(3, 61):
        p = Params(k, n)
        gaps = {inner_corner(p, i): gap(p, inner_corner(p, i)) for i in range(1, k)}
        worst = max(gaps.values())
        argmax = [r for r, value in gaps.items() if value == worst]
        if k == 3:
            assert worst == 0
        elif n == 2:
            assert argmax == [F(1, 15) if k == 9 or k >= 11 else F(1, 7)], k
        else:
            assert argmax == [F(1, 1 + n + n * n)], k
    if n == 2:
        assert gap(Params(9, 2), F(1, 15)) == F(442, 4545)


def test_worst_case_gap_decreasing_in_n():
    deltas = [worst_case_gap(n)[1] for n in range(2, 7)]
    assert all(a > b for a, b in zip(deltas, deltas[1:]))


def test_worst_case_gap_guards():
    with pytest.raises(ValueError):
        worst_case_gap(1)


def test_inner_bound_near_zero_corner_value():
    # converse at the 6th slope change for two databases, quoted to 4 decimals
    value = inner_bound(Params(100, 2), F(1, 127))
    assert value == F(240, 127)
    assert abs(float(value) - 1.8898) < 5e-5


def test_asymptotic_tightness_large_k():
    for n in (2, 3):
        for lam in (0.7, 0.9):
            s = int(lam * 500)
            p = Params(500, n)
            corner = corner_point(p, s)
            diff = abs(corner.cost - asymptotic_outer(n, corner.ratio))
            assert diff < F(1, 1000)


def test_last_corners_in_closed_form():
    # What the large-k shortcuts rest on: r_{k-1} = 1/(1 + n); L(s) strictly
    # decreases in s, with L(k-2) = (k-2) + n(k+n-2); so no split below
    # r_{k-1} is shorter than L(k-2).
    rng = random.Random(26)
    for k in range(2, 41):
        for n in range(2, 7):
            p = Params(k, n)
            lengths = [corner_message_length(p, s) for s in range(k)]
            assert corner_ratio(p, k - 1) == F(1, 1 + n)
            assert all(a > b for a, b in zip(lengths, lengths[1:]))
            assert lengths[k - 2] == k - 2 + n * (k + n - 2)
            ratios = [corner_ratio(p, s) for s in range(k)]
            below = ratios[:-1] + [(a + b) / 2 for a, b in zip(ratios, ratios[1:])]
            below += [F(rng.randrange(1, 10**6), 10**6 * (1 + n)) for _ in range(4)]
            for r in below:
                assert split_for_ratio(p, r).total_length >= lengths[k - 2]


@pytest.mark.parametrize("n", range(2, 7))
def test_inner_bound_is_asymptote_minus_worst_gap(n):
    # At the asymptotic worst case the converse does not depend on k.
    r_star, delta = worst_case_gap(n)
    for k in (4, 5, 10, 40, 300):
        assert inner_bound(Params(k, n), r_star) == asymptotic_outer(n, r_star) - delta


def test_finite_k_gap_approaches_one_sixth_from_below():
    # gap_k(1/15) = 1/6 - (asymptotic_outer - outer_bound)(1/15) at n = 2,
    # and the outer bound rises to its asymptote at about 1.2/k.
    assert worst_case_gap(2) == (F(1, 15), F(1, 6))
    for k in (200, 1000, 2000):
        deficit = F(1, 6) - gap(Params(k, 2), F(1, 15))
        assert 0 < deficit < F(2, k)


def test_outer_bound_has_k_segments():
    # Every interior corner, with the full cache (1, 0) appended, lies strictly
    # below the chord of its neighbours: k linear pieces, none merged.
    for k in range(2, 41):
        for n in range(2, 7):
            pts = [(c.ratio, c.cost) for c in corner_points(Params(k, n))] + [(F(1), F(0))]
            for (r0, c0), (r1, c1), (r2, c2) in zip(pts, pts[1:], pts[2:]):
                assert c1 < c0 + (c2 - c0) * (r1 - r0) / (r2 - r0)
