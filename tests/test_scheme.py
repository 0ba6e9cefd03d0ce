"""Query-plan structure: round profiles, censuses, reuse patterns, memory-sharing."""

import json
import tracemalloc
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachepir import (
    ContractViolation,
    Params,
    binom,
    build_corner_plan,
    compose_plans,
    corner_download_total,
    corner_equations,
    corner_message_length,
    corner_ratio,
    outer_bound,
    prefetch,
    random_store,
    relabel,
    retrieve,
    round_profile,
    split_for_ratio,
)
from cachepir.cli import transcript_from_dict, transcript_to_dict


def make_plan(k, n, s, theta=0, seed=0):
    p = Params(k, n)
    store = random_store(k, corner_message_length(p, s), seed)
    cache = prefetch(store, binom(k - 2, s - 1), seed)
    return build_corner_plan(p, s, theta, cache, seed)


def census(equations):
    return Counter((len(eq), frozenset(m for m, _ in eq)) for eq in equations)


def subsets(k, size):
    from itertools import combinations

    return [frozenset(c) for c in combinations(range(k), size)]


# ---------------------------------------------------------------------------
# round profiles


def test_round_profile_3_2_1():
    rp = round_profile(Params(3, 2), 1)
    assert [(r.index, r.desired_per_db, r.undesired_per_db) for r in rp.rounds] == [
        (2, 2, 1),
        (3, 1, 0),
    ]
    assert rp.total_downloads == 8


def test_round_profile_4_3_3():
    rp = round_profile(Params(4, 3), 3)
    assert [(r.index, r.desired_per_db, r.undesired_per_db) for r in rp.rounds] == [
        (4, 1, 0)
    ]
    assert rp.total_downloads == 3


def test_round_profile_4_2_0():
    rp = round_profile(Params(4, 2), 0)
    assert [r.index for r in rp.rounds] == [1, 2, 3, 4]
    assert rp.total_downloads == 30
    # every desired bit is downloaded exactly once: L(0) bits, none cached
    assert rp.desired_downloads == corner_message_length(Params(4, 2), 0)


def test_round_profile_totals_sweep():
    for k in range(2, 8):
        for n in range(2, 5):
            p = Params(k, n)
            for s in range(k):
                rp = round_profile(p, s)
                assert rp.total_downloads == corner_download_total(p, s)
                assert rp.desired_downloads == corner_message_length(p, s) - binom(
                    k - 2, s - 1
                )


def test_round_profile_range_error():
    with pytest.raises(ValueError):
        round_profile(Params(3, 2), 3)


# ---------------------------------------------------------------------------
# corner plans


TABLE_CENSUSES = {
    # per-database (size, message subset) -> count, desired index 0
    (3, 2, 1): {(2, (0, 1)): 1, (2, (0, 2)): 1, (2, (1, 2)): 1, (3, (0, 1, 2)): 1},
    (3, 2, 2): {(3, (0, 1, 2)): 1},
    (4, 2, 1): {
        **{(2, pair): 1 for pair in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]},
        **{(3, triple): 1 for triple in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]},
        (4, (0, 1, 2, 3)): 1,
    },
    (4, 2, 2): {
        **{(3, triple): 1 for triple in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]},
        (4, (0, 1, 2, 3)): 1,
    },
    (4, 2, 3): {(4, (0, 1, 2, 3)): 1},
    (4, 3, 1): {
        **{(2, pair): 1 for pair in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]},
        **{(3, triple): 2 for triple in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]},
        (4, (0, 1, 2, 3)): 4,
    },
    (4, 3, 2): {
        **{(3, triple): 1 for triple in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]},
        (4, (0, 1, 2, 3)): 2,
    },
    (4, 3, 3): {(4, (0, 1, 2, 3)): 1},
}


@pytest.mark.parametrize("key", sorted(TABLE_CENSUSES))
def test_corner_plan_census_matches_query_tables(key):
    k, n, s = key
    expected = {
        (size, frozenset(sub)): count
        for (size, sub), count in TABLE_CENSUSES[key].items()
    }
    plan = make_plan(k, n, s, theta=0, seed=7)
    for eqs in plan.per_db:
        assert census(eqs) == expected


def test_plan_counts_match_profile():
    for k in range(2, 7):
        for n in range(2, 5):
            p = Params(k, n)
            for s in range(k):
                rp = round_profile(p, s)
                for theta in (0, k - 1):
                    plan = make_plan(k, n, s, theta=theta, seed=3)
                    per_db = corner_download_total(p, s) // n
                    assert plan.downloads_per_db == (per_db,) * n
                    # per-size totals equal desired+undesired of the round with that size
                    for eqs in plan.per_db:
                        sizes = Counter(len(eq) for eq in eqs)
                        for rc in rp.rounds:
                            assert sizes.get(rc.index, 0) == (
                                rc.desired_per_db + rc.undesired_per_db
                            )


def test_census_constant_over_subsets_and_theta():
    for k, n, s in [(4, 2, 1), (4, 3, 2), (5, 2, 2), (5, 3, 0)]:
        reference = None
        for theta in range(k):
            plan = make_plan(k, n, s, theta=theta, seed=11)
            for eqs in plan.per_db:
                c = census(eqs)
                for size in {size for size, _ in c}:
                    counts = {c.get((size, sub), 0) for sub in subsets(k, size)}
                    assert len(counts) == 1
                if reference is None:
                    reference = c
                else:
                    assert c == reference  # census independent of theta


def test_mixtures_shared_across_databases():
    for k, n, s in [(3, 2, 1), (4, 3, 2), (5, 2, 3)]:
        plan = make_plan(k, n, s, theta=0, seed=9)
        per_db_mixtures = []
        for eqs in plan.per_db:
            mixtures = sorted(
                tuple(sorted(ref for ref in eq if ref[0] != 0))
                for eq in eqs
                if len(eq) == s + 1 and any(m == 0 for m, _ in eq)
            )
            per_db_mixtures.append(mixtures)
        assert all(m == per_db_mixtures[0] for m in per_db_mixtures)
        # every undesired message contributes its whole cached pool once per db
        pool = binom(k - 2, s - 1)
        flat = [ref for mix in per_db_mixtures[0] for ref in mix]
        per_message = Counter(m for m, _ in flat)
        assert all(per_message[m] == pool for m in range(1, k))
        assert len(set(flat)) == len(flat)  # each cached bit in exactly one mixture


def test_side_information_reuse():
    for k, n, s in [(3, 2, 1), (4, 3, 1), (4, 2, 0), (5, 2, 2)]:
        plan = make_plan(k, n, s, theta=0, seed=5)
        undesired = [
            {eq for eq in eqs if all(m != 0 for m, _ in eq)} for eqs in plan.per_db
        ]
        for db, eqs in enumerate(plan.per_db):
            for eq in eqs:
                own = [ref for ref in eq if ref[0] == 0]
                if not own or len(eq) == s + 1:
                    continue  # undesired, or opening round backed by the cache
                rest = tuple(ref for ref in eq if ref[0] != 0)
                assert any(
                    rest in undesired[other] for other in range(n) if other != db
                ), f"round-{len(eq)} desired equation lacks a foreign donor"


def test_desired_bits_distinct_and_uncached():
    for k, n, s in [(3, 2, 1), (4, 3, 2), (4, 2, 0)]:
        p = Params(k, n)
        store = random_store(k, corner_message_length(p, s), 1)
        cache = prefetch(store, binom(k - 2, s - 1), 1)
        plan = build_corner_plan(p, s, 0, cache, 1)
        cached = set(cache.indices[0])
        seen = []
        for eqs in plan.per_db:
            for eq in eqs:
                for m, b in eq:
                    if m == 0:
                        assert b not in cached
                        seen.append(b)
        assert len(seen) == len(set(seen))
        # cached bits of the desired message never appear anywhere
        refs = {ref for eqs in plan.per_db for eq in eqs for ref in eq}
        assert not any((0, b) in refs for b in cached)


def test_equation_terms_use_distinct_messages():
    for k, n, s in [(3, 2, 1), (4, 3, 1), (5, 2, 0)]:
        plan = make_plan(k, n, s, theta=0, seed=2)
        for eqs in plan.per_db:
            for eq in eqs:
                assert len({m for m, _ in eq}) == len(eq)
                assert 1 <= len(eq) <= k


def test_plan_determinism():
    a = make_plan(4, 3, 1, theta=2, seed=77)
    b = make_plan(4, 3, 1, theta=2, seed=77)
    c = make_plan(4, 3, 1, theta=2, seed=78)
    assert a.per_db == b.per_db
    assert a.per_db != c.per_db


def test_build_corner_plan_contract_errors():
    p = Params(3, 2)
    store = random_store(3, 7, 0)
    cache = prefetch(store, 1, 0)
    with pytest.raises(ValueError):
        build_corner_plan(p, 1, 3, cache, 0)
    with pytest.raises(ContractViolation):
        build_corner_plan(p, 2, 0, cache, 0)  # wrong length and quota
    short = prefetch(random_store(3, 7, 0), 0, 0)
    with pytest.raises(ContractViolation):
        build_corner_plan(p, 1, 0, short, 0)


# ---------------------------------------------------------------------------
# memory-sharing


def test_split_golden_one_fifth():
    split = split_for_ratio(Params(3, 2), F(1, 5))
    assert (split.s, split.alpha, split.total_length) == (1, F(7, 10), 10)
    assert (split.low_blocks, split.high_blocks) == (1, 1)


def test_split_corner_hit_degenerates():
    split = split_for_ratio(Params(3, 2), F(1, 7))
    assert (split.s, split.alpha, split.total_length) == (1, F(1), 7)
    assert (split.low_blocks, split.high_blocks) == (1, 0)


def test_split_golden_one_tenth():
    # alpha/L(1) = 1/20 and (1-alpha)/L(2) = 1/40, so 40 is the smallest
    # length making both block counts integral
    split = split_for_ratio(Params(4, 2), F(1, 10))
    assert split.s == 1
    assert split.alpha == F(3, 4)
    assert split.total_length == 40
    assert (split.low_blocks, split.high_blocks) == (2, 1)


def test_split_full_cache():
    split = split_for_ratio(Params(3, 2), 1)
    assert split.total_length == 1
    assert split.cached_per_message == 1
    assert split.blocks == ((None, 1),)


@given(
    st.integers(2, 5),
    st.integers(2, 4),
    st.fractions(min_value=0, max_value=1, max_denominator=40),
)
@settings(max_examples=120, deadline=None)
def test_split_invariants(k, n, r):
    p = Params(k, n)
    split = split_for_ratio(p, r)
    low_len = corner_message_length(p, split.s)
    high = split.high_corner
    high_len = corner_message_length(p, high) if high is not None else 1
    high_ratio = corner_ratio(p, high) if high is not None else F(1)
    assert split.alpha * split.total_length == split.low_blocks * low_len
    assert (1 - split.alpha) * split.total_length == split.high_blocks * high_len
    assert r == split.alpha * corner_ratio(p, split.s) + (1 - split.alpha) * high_ratio
    assert split.cached_per_message == r * split.total_length
    assert split.blocks == tuple(
        (corner, size)
        for corner, size in ((split.s, split.low_blocks), (high, split.high_blocks))
        if size
    )


def run_composed(k, n, r, theta=0, seed=0):
    p = Params(k, n)
    split = split_for_ratio(p, r)
    store = random_store(k, split.total_length, seed)
    cache = prefetch(store, split.cached_per_message, seed)
    return p, compose_plans(p, r, theta, cache, seed)


def test_compose_one_fifth_census():
    # concatenated corner plans over message length 10, five queries per database
    p, plan = run_composed(3, 2, F(1, 5))
    assert plan.length == 10
    assert plan.downloads_per_db == (5, 5)
    expected = {
        (2, frozenset({0, 1})): 1,
        (2, frozenset({0, 2})): 1,
        (2, frozenset({1, 2})): 1,
        (3, frozenset({0, 1, 2})): 2,
    }
    for eqs in plan.per_db:
        assert census(eqs) == expected
    assert F(plan.total_downloads, plan.length) == 1


def test_compose_full_cache_is_empty_plan():
    _, plan = run_composed(3, 2, F(1))
    assert plan.total_downloads == 0
    assert plan.blocks == ((None, 1),)


def test_compose_at_zero_equals_corner_plan():
    p = Params(3, 2)
    store = random_store(3, corner_message_length(p, 0), 4)
    cache = prefetch(store, 0, 4)
    assert compose_plans(p, F(0), 1, cache, 4) == build_corner_plan(p, 0, 1, cache, 4)


def test_compose_cost_identity():
    cases = [
        (3, 2, F(1, 5)),
        (3, 2, F(1, 10)),
        (4, 2, F(1, 10)),
        (4, 3, F(1, 2)),
        (2, 2, F(1, 6)),
        (3, 3, F(2, 5)),
    ]
    for k, n, r in cases:
        p, plan = run_composed(k, n, r, theta=k - 1, seed=13)
        assert F(plan.total_downloads, plan.length) == outer_bound(p, r)


def test_compose_cache_contract():
    p = Params(3, 2)
    store = random_store(3, 10, 0)
    with pytest.raises(ContractViolation):
        compose_plans(p, F(1, 5), 0, prefetch(store, 1, 0), 0)
    wrong_len = prefetch(random_store(3, 9, 0), 2, 0)
    with pytest.raises(ContractViolation):
        compose_plans(p, F(1, 5), 0, wrong_len, 0)


# ---------------------------------------------------------------------------
# equation representation


def assert_canonical(per_db):
    """Every equation is a tuple of (int, int) references, messages increasing."""
    for eqs in per_db:
        for eq in eqs:
            assert type(eq) is tuple and eq
            for ref in eq:
                assert type(ref) is tuple and len(ref) == 2
                assert all(type(x) is int for x in ref)
            assert all(a[0] < b[0] for a, b in zip(eq, eq[1:])), eq


@pytest.mark.parametrize(
    "k,n,r",
    [(3, 2, F(1, 7)), (4, 3, F(1, 4)), (3, 2, F(1, 5)), (4, 2, F(3, 50)), (3, 3, F(5, 6))],
    ids=["corner-3-2", "corner-4-3", "composed-3-2", "composed-4-2", "filler-3-3"],
)
def test_equations_are_sorted_tuples(k, n, r):
    p = Params(k, n)
    for theta in (0, k - 1):
        t = retrieve(p, theta, r, seed=11)
        assert t.plan.total_downloads > 0
        assert_canonical(t.plan.per_db)

        # the file lists each equation in canonical order, and the loader
        # takes it as listed: reversed, the same file is refused
        data = json.loads(json.dumps(transcript_to_dict(t)))
        loaded = transcript_from_dict(data)
        assert_canonical(loaded.plan.per_db)
        assert loaded == t
        for eqs in data["per_db"]:
            for eq in eqs:
                eq.reverse()
        with pytest.raises(ValueError, match="not canonical"):
            transcript_from_dict(data)

    s = split_for_ratio(p, r).s
    layout = corner_equations(p, s, 0)
    length = corner_message_length(p, s)
    perms = [list(reversed(range(length))) for _ in range(k)]
    assert_canonical(layout)
    assert_canonical(relabel(layout, perms))


def test_composed_plan_memory_stays_small():
    # frozenset equations held 9.7 MiB here; tuples of shared references 5.2
    p, r = Params(4, 2), F(1, 1000)
    split = split_for_ratio(p, r)
    assert split.total_length == 16000
    store = random_store(4, split.total_length, 1)
    cache = prefetch(store, split.cached_per_message, 1)
    tracemalloc.start()
    try:
        plan = compose_plans(p, r, 0, cache, 1)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert plan.total_downloads > 0
    assert held < 7 * 2**20
