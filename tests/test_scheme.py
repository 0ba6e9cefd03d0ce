"""Query-plan structure: round profiles, censuses, reuse patterns, memory-sharing."""

import hashlib
import inspect
import json
import tracemalloc
from collections import Counter
from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachepir import bounds, scheme
from cachepir import (
    ContractViolation,
    Params,
    binom,
    build_corner_plan,
    compose_plans,
    corner_equations,
    corner_message_length,
    corner_point,
    corner_ratio,
    draw_plan,
    first_non_canonical,
    outer_bound,
    prefetch,
    random_store,
    retrieve,
    round_profile,
    split_for_ratio,
)
from cachepir.audit import _relabel
from cachepir.cli import transcript_from_dict, transcript_to_dict


def make_plan(k, n, s, theta=0, seed=0):
    p = Params(k, n)
    store = random_store(k, corner_message_length(p, s), seed)
    cache = prefetch(store, binom(k - 2, s - 1), seed)
    return build_corner_plan(p, s, theta, cache, seed)


def census(equations, length):
    return Counter((len(eq), frozenset(x // length for x in eq)) for eq in equations)


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
                assert rp.total_downloads == corner_point(p, s).total_download
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
        assert census(eqs, plan.length) == expected


def test_plan_counts_match_profile():
    for k in range(2, 7):
        for n in range(2, 5):
            p = Params(k, n)
            for s in range(k):
                rp = round_profile(p, s)
                for theta in (0, k - 1):
                    plan = make_plan(k, n, s, theta=theta, seed=3)
                    per_db = corner_point(p, s).total_download // n
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
                c = census(eqs, plan.length)
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
        length = plan.length
        per_db_mixtures = []
        for eqs in plan.per_db:
            mixtures = sorted(
                tuple(x for x in eq if x >= length)
                for eq in eqs
                if len(eq) == s + 1 and eq[0] < length
            )
            per_db_mixtures.append(mixtures)
        assert all(m == per_db_mixtures[0] for m in per_db_mixtures)
        # every undesired message contributes its whole cached pool once per db
        pool = binom(k - 2, s - 1)
        flat = [x for mix in per_db_mixtures[0] for x in mix]
        per_message = Counter(x // length for x in flat)
        assert all(per_message[m] == pool for m in range(1, k))
        assert len(set(flat)) == len(flat)  # each cached bit in exactly one mixture


def test_side_information_reuse():
    for k, n, s in [(3, 2, 1), (4, 3, 1), (4, 2, 0), (5, 2, 2)]:
        plan = make_plan(k, n, s, theta=0, seed=5)
        length = plan.length  # message 0 is desired: its bits are the x < length
        undesired = [{eq for eq in eqs if eq[0] >= length} for eqs in plan.per_db]
        for db, eqs in enumerate(plan.per_db):
            for eq in eqs:
                if eq[0] >= length or len(eq) == s + 1:
                    continue  # undesired, or opening round backed by the cache
                rest = eq[1:]
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
                for x in eq:
                    m, b = divmod(x, plan.length)
                    if m == 0:
                        assert b not in cached
                        seen.append(b)
        assert len(seen) == len(set(seen))
        # cached bits of the desired message never appear anywhere
        refs = {x for eqs in plan.per_db for eq in eqs for x in eq}
        assert not any(b in refs for b in cached)


def test_equation_terms_use_distinct_messages():
    for k, n, s in [(3, 2, 1), (4, 3, 1), (5, 2, 0)]:
        plan = make_plan(k, n, s, theta=0, seed=2)
        for eqs in plan.per_db:
            for eq in eqs:
                assert len({x // plan.length for x in eq}) == len(eq)
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


def bits_per_part(split):
    """The message's bits each part's blocks hold: alpha·total, then the rest."""
    return [size * corner.msg_len for corner, size in split.parts]


def test_split_golden_one_fifth():
    # alpha = 7/10 of 10 bits run corner 1 (L = 7), the rest corner 2 (L = 3)
    p = Params(3, 2)
    split = split_for_ratio(p, F(1, 5))
    assert split.total_length == 10
    assert split.parts == ((corner_point(p, 1), 1), (corner_point(p, 2), 1))
    assert bits_per_part(split) == [7, 3]


def test_split_corner_hit_degenerates():
    # alpha = 1: the high corner gets no block, so it is no part
    p = Params(3, 2)
    split = split_for_ratio(p, F(1, 7))
    assert split.total_length == 7
    assert split.parts == ((corner_point(p, 1), 1),)
    assert split.blocks == ((1, 1),)


def test_split_golden_one_tenth():
    # alpha/L(1) = 1/20 and (1-alpha)/L(2) = 1/40, so 40 is the smallest
    # length making both block counts integral
    p = Params(4, 2)
    split = split_for_ratio(p, F(1, 10))
    assert split.total_length == 40
    assert split.parts == ((corner_point(p, 1), 2), (corner_point(p, 2), 1))
    assert bits_per_part(split) == [30, 10]  # alpha = 3/4


def test_split_full_cache():
    split = split_for_ratio(Params(3, 2), 1)
    assert split.total_length == 1
    ((corner, size),) = split.parts
    assert (corner.s, corner.msg_len, corner.cached, corner.total_download, size) == (
        None, 1, 1, 0, 1
    )
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
    low, high, alpha = bounds._enclosing_corner(p, r)
    weights = {low: alpha, high: 1 - alpha}
    # the parts are the enclosing corners with a share of the message, low first
    assert [corner for corner, _ in split.parts] == [c for c, w in weights.items() if w]
    for corner, size in split.parts:
        assert size > 0
        assert size * corner.msg_len == weights[corner] * split.total_length
    assert sum(bits_per_part(split)) == split.total_length
    cached = sum(size * corner.cached for corner, size in split.parts)
    assert cached == split.cached_per_message == r * split.total_length
    assert split.blocks == tuple((corner.s, size) for corner, size in split.parts)


def run_composed(k, n, r, theta=0, seed=0):
    p = Params(k, n)
    split = split_for_ratio(p, r)
    store = random_store(k, split.total_length, seed)
    cache = prefetch(store, split.cached_per_message, seed)
    return p, compose_plans(p, theta, draw_plan(p, split, cache, seed))


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
        assert census(eqs, plan.length) == expected
    assert F(plan.total_downloads, plan.length) == 1


def test_compose_full_cache_is_empty_plan():
    _, plan = run_composed(3, 2, F(1))
    assert plan.total_downloads == 0
    assert plan.blocks == ((None, 1),)


def test_compose_at_zero_equals_corner_plan():
    p = Params(3, 2)
    store = random_store(3, corner_message_length(p, 0), 4)
    cache = prefetch(store, 0, 4)
    drawn = draw_plan(p, split_for_ratio(p, F(0)), cache, 4)
    assert compose_plans(p, 1, drawn) == build_corner_plan(p, 0, 1, cache, 4)


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
    split = split_for_ratio(p, F(1, 5))
    store = random_store(3, 10, 0)
    with pytest.raises(ContractViolation, match="cached bits per message"):
        draw_plan(p, split, prefetch(store, 1, 0), 0)
    wrong_len = prefetch(random_store(3, 9, 0), 2, 0)
    with pytest.raises(ContractViolation, match="message length 10"):
        draw_plan(p, split, wrong_len, 0)


@pytest.mark.parametrize("k", [2, 3, 5, 64])
def test_split_finds_corner_by_bisection(k, monkeypatch):
    # split_for_ratio and outer_bound share one bisection over the corner
    # ratios, in bounds, so that is where the corners it evaluates are counted.
    p = Params(k, 2)
    ratios = [corner_ratio(p, s) for s in range(k)] + [F(1)]
    costs = [corner_point(p, s).cost for s in range(k)] + [F(0)]
    calls = []
    real = bounds.corner_point
    monkeypatch.setattr(
        bounds, "corner_point", lambda p, s: calls.append(s) or real(p, s)
    )
    for s in range(k):
        for r in (ratios[s], (ratios[s] + ratios[s + 1]) / 2, ratios[s + 1]):
            low = max(i for i in range(k) if ratios[i] <= r)
            alpha = (ratios[low + 1] - r) / (ratios[low + 1] - ratios[low])
            shares = ((low, alpha), (low + 1, 1 - alpha))
            for locate, expected in (
                (split_for_ratio, [ratios[i] for i, share in shares if share]),
                (outer_bound, alpha * costs[low] + (1 - alpha) * costs[low + 1]),
            ):
                calls.clear()
                found = locate(p, r)
                if locate is split_for_ratio:
                    found = [corner.ratio for corner, _ in found.parts]
                assert found == expected
                assert 0 < len(set(calls)) <= k.bit_length(), (locate.__name__, s, r)


@pytest.mark.parametrize(
    "r,blocks,length",
    [(F(1, 3), ((49_999, 1),), 3), (F(1, 2), ((49_999, 1), (None, 1)), 4),
     (F(1), ((None, 1),), 1)],
)
def test_split_past_last_corner_computes_one_corner(r, blocks, length):
    # From r_{k-1} = 1/(1 + n) on, the split is the last corner and the full
    # cache; the bisection would compute about log2(k) corners of about k terms.
    corner_point.cache_clear()
    split = split_for_ratio(Params(50_000, 2), r)
    assert corner_point.cache_info().misses == 1
    assert (split.blocks, split.total_length) == (blocks, length)


# ---------------------------------------------------------------------------
# the draw reads no desired index, the assembly draws nothing


def test_draw_plan_takes_no_desired_index():
    assert list(inspect.signature(draw_plan).parameters) == ["p", "split", "cache", "seed"]
    assert list(inspect.signature(compose_plans).parameters) == ["p", "theta", "drawn"]


@pytest.mark.parametrize(
    "k,n,r", [(3, 2, F(1, 5)), (4, 3, F(1, 4)), (4, 2, F(3, 50)), (3, 3, F(1))]
)
def test_one_draw_assembles_every_retrieved_plan(k, n, r, monkeypatch):
    p, seed = Params(k, n), 9
    split = split_for_ratio(p, r)
    store = random_store(k, split.total_length, seed)
    drawn = draw_plan(p, split, prefetch(store, split.cached_per_message, seed), seed)
    shipped = [retrieve(p, theta, r, seed).plan for theta in range(k)]

    def no_randomness(*_):
        raise AssertionError("compose_plans drew randomness")

    monkeypatch.setattr(scheme, "derive_rng", no_randomness)
    monkeypatch.setattr(scheme, "shuffle", no_randomness)
    for theta in range(k):
        assert compose_plans(p, theta, drawn) == shipped[theta]


def compose_block_by_block(p, theta, drawn):
    """Reference assembly: each block is the layout, compiled once by the
    audits' renamer `_relabel`, renamed by that block's own permutations.

    A block takes its corner's quota from the head of each message's cached
    run and its uncached bits from the head of the uncached run.
    """
    split = drawn.split
    cached = split.cached_per_message
    runs = [(iter(bits[:cached]), iter(bits[cached:])) for bits in drawn.dealt]
    built = [[] for _ in range(p.n)]
    for corner, size in split.blocks:
        if corner is None:
            break
        length = corner_message_length(p, corner)
        quota = binom(p.k - 2, corner - 1)
        rename = _relabel(corner_equations(p, corner, theta))
        for _ in range(size):
            perms = [
                [*islice(held, quota), *islice(rest, length - quota)] for held, rest in runs
            ]
            for db, eqs in enumerate(rename.equations(perms, split.total_length)):
                built[db].extend(eqs)
    return tuple(tuple(eqs[i] for i in order) for eqs, order in zip(built, drawn.order))


def compose_cases():
    for k, n in [(3, 2), (4, 2), (4, 3), (5, 2)]:
        p = Params(k, n)
        corners = [corner_ratio(p, s) for s in range(k)]
        for name, r in [
            ("corner", corners[1]),
            ("two-corners-low", (corners[0] + corners[1]) / 2),
            ("two-corners-high", (corners[-2] + corners[-1]) / 2),
            ("last-corner-and-filler", (corners[-1] + 1) / 2),
            ("zero", F(0)),
            ("one", F(1)),
        ]:
            yield pytest.param(k, n, r, id=f"{k}-{n}-{name}")


@pytest.mark.parametrize("k,n,r", compose_cases())
def test_compose_plans_equals_block_by_block_relabel(k, n, r):
    p, seed = Params(k, n), 17
    split = split_for_ratio(p, r)
    store = random_store(k, split.total_length, seed)
    drawn = draw_plan(p, split, prefetch(store, split.cached_per_message, seed), seed)
    for theta in range(k):
        assert compose_plans(p, theta, drawn).per_db == compose_block_by_block(p, theta, drawn)


@pytest.mark.parametrize(
    "k,n,r,theta,seed,digest",
    [
        # 99 blocks of the last corner, then 103 fully-cached filler bits
        (4, 2, F(101, 200), 3, 21,
         "942c1103d3aadf4f31e42896937c2f94c6eb528a3212d2d38fc273cd63c54da2"),
        # 7 blocks of corner 0, then 27 of corner 1
        (3, 3, F(1, 20), 1, 8,
         "aa8d451e86f492ef1d9b359341f332b02af3b6488faefdb78fa6cdb23d2c467c"),
    ],
    ids=["last-corner-and-filler", "two-corners-3-3"],
)
def test_composed_transcript_digest_is_pinned(k, n, r, theta, seed, digest):
    # taken over the format-2 file when each block was relabeled on its own
    data = transcript_to_dict(retrieve(Params(k, n), theta, r, seed))
    text = json.dumps(data, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# equation representation


def assert_canonical(per_db, k, length):
    """Every equation is a tuple of int references below k·length, messages increasing."""
    for eqs in per_db:
        for eq in eqs:
            assert type(eq) is tuple and eq
            assert all(type(x) is int and 0 <= x < k * length for x in eq)
            messages = [x // length for x in eq]
            assert all(a < b for a, b in zip(messages, messages[1:])), eq


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
        assert_canonical(t.plan.per_db, k, t.length)

        # the file lists each equation in canonical order, and the loader
        # takes it as listed: reversed, the same file is refused
        data = json.loads(json.dumps(transcript_to_dict(t)))
        loaded = transcript_from_dict(data)
        assert_canonical(loaded.plan.per_db, k, t.length)
        assert loaded == t
        for eqs in data["per_db"]:
            for eq in eqs:
                eq.reverse()
        with pytest.raises(ValueError, match="not canonical"):
            transcript_from_dict(data)

    corner = split_for_ratio(p, r).parts[0][0]
    layout = corner_equations(p, corner.s, 0)
    length = corner.msg_len
    perms = [list(reversed(range(length))) for _ in range(k)]
    assert_canonical(layout, k, length)
    rename = _relabel(layout)
    assert_canonical(rename.equations(perms, length), k, length)
    # onto a longer message, as a block of a composed plan is
    assert_canonical(rename.equations(perms, 3 * length), k, 3 * length)


# Flat references that are not canonical over k=3 messages of 7 bits; answer
# and the transcript loader are tested on the same list.
NON_CANONICAL = {
    "one-message-twice": (7 + 1, 7 + 5),  # increasing ints, both in message 1
    "past-the-end": (3 * 7,),
    "negative": (-1, 8),
    "bool": (True, 8),
    "float": (1.0, 8),
    "decreasing": (8, 1),
    "repeated": (8, 8),
}


def test_is_canonical_flat_references():
    # One equation is canonical when the list of it is.
    def canonical(eq, k, length):
        return first_non_canonical((eq,), k, length) is None

    k, length = 3, 7
    for eq in [(), (0,), (6, 7, 20), (3 * 7 - 1,)]:
        assert canonical(eq, k, length), eq
    for name, eq in NON_CANONICAL.items():
        assert not canonical(eq, k, length), name
    assert not canonical([6, 7, 20], k, length)  # a list in place of a tuple
    assert not canonical(frozenset({6, 7}), k, length)
    assert not canonical((0,), k, 0)


def test_first_non_canonical_names_the_first_offender():
    k, length = 3, 7
    good = [(), (0,), (6, 7, 20), (3 * 7 - 1,)]
    assert first_non_canonical(good, k, length) is None
    assert first_non_canonical([], k, length) is None
    for name, eq in NON_CANONICAL.items():
        equations = [*good, eq, *good, eq]
        assert first_non_canonical(equations, k, length) == len(good), name
    assert first_non_canonical([(), (0,)], k, 0) == 1
    assert first_non_canonical([(0,), [1]], k, length) == 1


def test_composed_plan_memory_stays_small():
    # frozenset equations held 9.7 MiB here, tuples of shared (m, j)
    # references 5.2, and tuples of int references m·L + j hold 3.05.
    # Assembly names only the dealt bits that equations read and copies no
    # run, so its peak stays below 5 MiB.
    p, r = Params(4, 2), F(1, 1000)
    split = split_for_ratio(p, r)
    assert split.total_length == 16000
    store = random_store(4, split.total_length, 1)
    drawn = draw_plan(p, split, prefetch(store, split.cached_per_message, 1), 1)
    tracemalloc.start()
    try:
        plan = compose_plans(p, 0, drawn)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plan.total_downloads > 0
    assert held < 4 * 2**20
    assert peak < 5 * 2**20
