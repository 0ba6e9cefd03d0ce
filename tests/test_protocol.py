"""Simulation pipeline: prefetching, answering, decoding, full retrievals."""

import dataclasses
import gc
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cachepir import (
    CacheState,
    ContractViolation,
    DecodeError,
    MessageStore,
    Params,
    QueryPlan,
    Transcript,
    answer,
    corner_message_length,
    corner_ratio,
    decode,
    prefetch,
    random_store,
    retrieve,
    split_for_ratio,
)
from cachepir.protocol import MAX_SIMULATED_BITS, pack_bits, unpack_bits


def test_store_validation():
    with pytest.raises(ValueError):
        MessageStore(count=2, length=3, bits=(1,))
    with pytest.raises(ValueError):
        MessageStore(count=1, length=2, bits=(9,))


def test_prefetch_edges():
    store = random_store(3, 7, 0)
    empty = prefetch(store, 0, 0)
    assert empty.bits_per_message == 0
    full = prefetch(store, 7, 0)
    assert all(idx == tuple(range(7)) for idx in full.indices)
    assert all(
        vals == tuple((store.bits[m] >> j) & 1 for j in range(7))
        for m, vals in enumerate(full.values)
    )
    with pytest.raises(ValueError):
        prefetch(store, 8, 0)


def test_prefetch_counts_and_determinism():
    store = random_store(3, 7, 5)
    cache = prefetch(store, 1, 5)
    assert cache.bits_per_message == 1
    assert cache == prefetch(store, 1, 5)
    assert cache != prefetch(store, 1, 6)
    for m in range(3):
        (idx,) = cache.indices[m]
        assert cache.values[m][0] == store.bit(m, idx)


def test_cache_state_validation():
    with pytest.raises(ValueError):
        CacheState(length=4, indices=((0,), (0, 1)), values=((1,), (0, 1)))
    with pytest.raises(ValueError):
        CacheState(length=4, indices=((5,),), values=((1,),))
    with pytest.raises(ValueError):
        CacheState(length=4, indices=((1, 1),), values=((0, 0),))
    with pytest.raises(ValueError, match="misaligned"):
        CacheState(length=4, indices=((1,), (2,)), values=((0,),))


def flat(refs, length):
    """(m, j) pairs as the sorted int references m·length + j of one equation."""
    return tuple(sorted(m * length + j for m, j in refs))


def test_answer_golden():
    store = MessageStore(count=2, length=2, bits=(0b01, 0b01))
    assert answer(store, [(0,)]) == [1]  # a0
    assert answer(store, [(0, 2)]) == [0]  # a0 + b0
    assert answer(store, [(1, 2)]) == [1]  # a1 + b0


def non_canonical_copies(eq):
    """A frozenset copy, a reversed copy and a copy naming one message twice."""
    copies = [frozenset(eq), eq + eq[-1:]]
    if len(eq) > 1:
        copies.append(eq[::-1])
    return copies


def test_answer_is_pure_and_range_checked():
    store = random_store(3, 7, 1)
    eqs = [(1, 7), (20,)]  # a1 + b0, c6
    assert answer(store, eqs) == answer(store, eqs)
    refused = [
        (21,),  # past the last bit of the last message
        (-1,),
        (1, 2),  # two bits of one message
        (7 + 1, 7 + 5),  # the same, increasing ints in message 1
        (True,),
        (1.0,),
        [1, 7],  # a list in place of a tuple
        *(odd for eq in eqs for odd in non_canonical_copies(eq)),
    ]
    for odd in refused:
        with pytest.raises(ContractViolation, match="not canonical"):
            answer(store, [eqs[0], odd])


def reference_bits(word, length):
    return [(word >> j) & 1 for j in range(length)]


words = st.integers(1, 200).flatmap(
    lambda length: st.tuples(st.just(length), st.integers(0, (1 << length) - 1))
)


@given(words)
@example((1, 0))
@example((1, 1))
@example((9, 0b000000011))
@settings(max_examples=200, deadline=None)
def test_pack_unpack_roundtrip(case):
    length, word = case
    bits = unpack_bits(word, length)
    assert list(bits) == reference_bits(word, length)
    assert pack_bits(bits) == word
    assert pack_bits(list(bits)) == word


@given(
    st.integers(1, 4),
    st.integers(1, 150),
    st.integers(0, 10**6),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_data_path_matches_per_bit_reference(k, length, seed, data):
    store = random_store(k, length, seed)
    messages = [reference_bits(w, length) for w in store.bits]
    # a sorted subset of the messages, one bit of each
    equation = st.sets(st.integers(0, k - 1), min_size=1).flatmap(
        lambda ms: st.tuples(
            *(st.tuples(st.just(m), st.integers(0, length - 1)) for m in sorted(ms))
        )
    )
    eqs = [flat(eq, length) for eq in data.draw(st.lists(equation))]
    expected = [sum(messages[x // length][x % length] for x in eq) % 2 for eq in eqs]
    assert answer(store, eqs) == expected
    for eq in eqs:
        for odd in non_canonical_copies(eq):
            with pytest.raises(ContractViolation):
                answer(store, [odd])

    cache = prefetch(store, data.draw(st.integers(0, length)), seed)
    for m, (idx, vals) in enumerate(zip(cache.indices, cache.values)):
        assert list(vals) == [messages[m][j] for j in idx]

    # every uncached desired bit downloaded raw, alternating between the
    # two databases, so decode assembles the word from cache and answers
    theta = data.draw(st.integers(0, k - 1))
    raw = [(theta * length + j,) for j in range(length) if j not in cache.indices[theta]]
    plan = QueryPlan(
        k=k, n=2, length=length, theta=theta, r=F(0), seed=seed,
        blocks=((0, 1),), per_db=(tuple(raw[::2]), tuple(raw[1::2])),
    )
    answers = [answer(store, list(eqs)) for eqs in plan.per_db]
    decoded = decode(plan, answers, cache)
    assert decoded == store.bits[theta]
    t = Transcript(
        plan=plan, answers=tuple(map(tuple, answers)), decoded=decoded,
        store=store, cache=cache,
    )
    assert t.decoded_bits() == messages[theta]


def manual_two_db_plan(length, per_db, theta, r, s):
    return QueryPlan(
        k=3,
        n=2,
        length=length,
        theta=theta,
        r=r,
        seed=None,
        blocks=((s, 1),),
        per_db=tuple(tuple(flat(eq, length) for eq in eqs) for eqs in per_db),
    )


def single_mix_table():
    # message length 7, one cached bit per message (index 0), desired index 0:
    # db1: a2+b1, a3+c1, b2+c2, a6+b3+c3 / db2: a4+b1, a5+c1, b3+c3, a7+b2+c2
    store = random_store(3, 7, 99)
    cache = CacheState(
        length=7,
        indices=((0,), (0,), (0,)),
        values=tuple((store.bit(m, 0),) for m in range(3)),
    )
    db1 = [
        {(0, 1), (1, 0)},
        {(0, 2), (2, 0)},
        {(1, 1), (2, 1)},
        {(0, 5), (1, 2), (2, 2)},
    ]
    db2 = [
        {(0, 3), (1, 0)},
        {(0, 4), (2, 0)},
        {(1, 2), (2, 2)},
        {(0, 6), (1, 1), (2, 1)},
    ]
    return store, cache, manual_two_db_plan(7, [db1, db2], theta=0, r=F(1, 7), s=1)


def test_decode_hand_built_single_mix_table():
    store, cache, plan = single_mix_table()
    answers = [answer(store, list(eqs)) for eqs in plan.per_db]
    assert decode(plan, answers, cache) == store.bits[0]


@pytest.mark.parametrize(
    "odd", [(2 * 7 + 1, 7 + 1), frozenset({7 + 1, 2 * 7 + 1})], ids=["unsorted", "frozenset"]
)
def test_answer_refuses_non_canonical_equation(odd):
    # b2+c2 at db 0 stored out of canonical form: decode would look it up by
    # its sorted tuple and miss it, so the database side refuses it first.
    store, _, plan = single_mix_table()
    first = list(plan.per_db[0])
    first[2] = odd
    with pytest.raises(ContractViolation, match="not canonical") as err:
        answer(store, first)
    assert repr(odd) in str(err.value)


def test_decode_hand_built_double_mix_table():
    # message length 3, cached bit 0 of each message, one 3-sum per database
    store = random_store(3, 3, 4)
    cache = CacheState(
        length=3,
        indices=((0,), (0,), (0,)),
        values=tuple((store.bit(m, 0),) for m in range(3)),
    )
    db1 = [{(0, 1), (1, 0), (2, 0)}]
    db2 = [{(0, 2), (1, 0), (2, 0)}]
    plan = manual_two_db_plan(3, [db1, db2], theta=0, r=F(1, 3), s=2)
    answers = [answer(store, list(eqs)) for eqs in plan.per_db]
    assert decode(plan, answers, cache) == store.bits[0]


def test_decode_refuses_cache_of_other_length():
    # A cache over longer messages would put its bit (m, 7) at the plan's
    # reference m·7 + 7, bit 0 of message m + 1.
    store, _, plan = single_mix_table()
    answers = [answer(store, list(eqs)) for eqs in plan.per_db]
    longer = prefetch(random_store(3, 8, 99), 1, 99)
    with pytest.raises(ContractViolation, match="cache holds messages of 8 bits"):
        decode(plan, answers, longer)


def test_decode_full_cache_copies():
    store = random_store(2, 4, 8)
    cache = prefetch(store, 4, 8)
    plan = QueryPlan(
        k=2, n=2, length=4, theta=1, r=F(1), seed=8, blocks=((None, 4),), per_db=((), ())
    )
    assert decode(plan, [[], []], cache) == store.bits[1]


def test_decode_missing_side_information_is_structured():
    store = random_store(3, 7, 2)
    cache = CacheState(length=7, indices=((), (), ()), values=((), (), ()))
    # round-3 style equation whose 2-sum was never downloaded and is not cached
    plan = manual_two_db_plan(
        7,
        [[{(0, 5), (1, 2), (2, 2)}], [{(0, 6), (1, 1), (2, 1)}]],
        theta=0,
        r=F(0),
        s=0,
    )
    answers = [answer(store, list(eqs)) for eqs in plan.per_db]
    with pytest.raises(DecodeError) as err:
        decode(plan, answers, cache)
    assert err.value.reason == "side information neither cached nor downloaded"
    assert err.value.db == 0
    assert err.value.equation is not None


def test_decode_unrecovered_bits_reported():
    t = retrieve(Params(3, 2), 0, F(1, 7), 21)
    pruned = [list(eqs) for eqs in t.plan.per_db]
    pruned_answers = [list(a) for a in t.answers]
    # drop one desired equation together with its answer bit
    drop = next(i for i, eq in enumerate(pruned[0]) if eq[0] < t.length)
    del pruned[0][drop]
    del pruned_answers[0][drop]
    plan = QueryPlan(
        k=3,
        n=2,
        length=7,
        theta=0,
        r=F(1, 7),
        seed=21,
        blocks=t.plan.blocks,
        per_db=tuple(tuple(eqs) for eqs in pruned),
    )
    with pytest.raises(DecodeError) as err:
        decode(plan, pruned_answers, t.cache)
    assert err.value.reason == "desired bits unrecovered"
    assert len(err.value.missing) == 1


def test_decode_refuses_out_of_range_desired_bit():
    # (0, 5) renamed (0, 7) in a length-7 table.  As an int that is bit 0 of
    # message 1: decode takes desired terms from θ·L <= x < (θ+1)·L only, so
    # the equation is side information and bit 5 is never recovered.
    store = random_store(3, 7, 99)
    cache = CacheState(
        length=7,
        indices=((0,), (0,), (0,)),
        values=tuple((store.bit(m, 0),) for m in range(3)),
    )
    db1 = [{(0, 1), (1, 0)}, {(0, 2), (2, 0)}, {(1, 1), (2, 1)}, {(0, 7), (1, 2), (2, 2)}]
    db2 = [{(0, 3), (1, 0)}, {(0, 4), (2, 0)}, {(1, 2), (2, 2)}, {(0, 6), (1, 1), (2, 1)}]
    plan = manual_two_db_plan(7, [db1, db2], theta=0, r=F(1, 7), s=1)
    answers = [[0] * 4, [0] * 4]
    with pytest.raises(DecodeError) as err:
        decode(plan, answers, cache)
    assert err.value.reason == "desired bits unrecovered"
    assert err.value.missing == (5,)


def test_plan_equations_leave_cyclic_gc():
    # A tuple of int-only tuples is untracked by the first collection that
    # sees it, so a live plan is not walked on every later one.
    t = retrieve(Params(4, 2), 0, F(1, 1000), 1)
    gc.collect()
    eqs = [eq for per_db in t.plan.per_db for eq in per_db]
    assert len(eqs) == 29902
    assert not any(gc.is_tracked(eq) for eq in eqs)


@pytest.mark.parametrize(
    "k,n,r,total,length",
    [
        (3, 2, F(1, 7), 8, 7),
        (4, 3, F(1, 4), 3, 4),
        (3, 2, F(1, 5), 10, 10),
    ],
)
def test_retrieve_golden(k, n, r, total, length):
    for theta in range(k):
        t = retrieve(Params(k, n), theta, r, seed=17)
        assert t.plan.total_downloads == total
        assert t.length == length
        assert t.cost == F(total, length)
        assert t.decoded == t.store.bits[theta]


def test_retrieve_full_cache():
    t = retrieve(Params(4, 2), 3, 1, seed=2)
    assert t.plan.total_downloads == 0
    assert t.cost == 0
    assert t.decoded == t.store.bits[3]


def test_retrieve_determinism():
    a = retrieve(Params(4, 3), 1, F(2, 17), 33)
    b = retrieve(Params(4, 3), 1, F(2, 17), 33)
    assert a == b
    c = retrieve(Params(4, 3), 1, F(2, 17), 34)
    assert a.plan.per_db != c.plan.per_db
    assert a.store != c.store


def test_retrieve_argument_errors():
    p = Params(3, 2)
    with pytest.raises(ValueError):
        retrieve(p, 3, F(1, 7), 0)
    with pytest.raises(ValueError):
        retrieve(p, 0, F(3, 2), 0)
    with pytest.raises(ValueError, match="simulation budget"):
        retrieve(p, 0, F(1, 10**7), 0)


def test_retrieve_budget():
    # refused before the store is drawn: the split alone is 109 545 375 bits
    with pytest.raises(ValueError, match="simulation budget"):
        retrieve(Params(8, 5), 0, F(1, 997), 0)
    # the largest ROADMAP grid point fits
    split = split_for_ratio(Params(4, 2), F(7, 99991))
    assert 4 * split.total_length <= MAX_SIMULATED_BITS


def test_transcript_answers_must_match_plan():
    t = retrieve(Params(3, 2), 0, F(1, 7), 1)
    short = (t.answers[0][:-1],) + t.answers[1:]
    with pytest.raises(ValueError, match="answer lengths"):
        dataclasses.replace(t, answers=short)


def test_retrieve_reliability_sweep():
    for k in range(2, 5):
        for n in range(2, 4):
            p = Params(k, n)
            for s in range(k):
                r = corner_ratio(p, s)
                for theta in range(k):
                    for seed in range(3):
                        t = retrieve(p, theta, r, seed)
                        assert t.decoded == t.store.bits[theta]
                        assert len(set(t.plan.downloads_per_db)) == 1


def test_cache_quota_matches_ratio():
    for k, n, r in [(3, 2, F(1, 5)), (4, 2, F(1, 10)), (5, 3, F(1, 2))]:
        t = retrieve(Params(k, n), 0, r, 1)
        assert t.cache.bits_per_message == r * t.length
        assert t.cache == prefetch(t.store, t.cache.bits_per_message, 1)


def test_answer_interface_is_cache_blind():
    # database unawareness is structural: answering sees only store + equations
    import inspect

    assert list(inspect.signature(answer).parameters) == ["store", "equations"]


def test_queries_independent_of_content():
    # same seed, same cache indices, different message values -> same plan
    p = Params(3, 2)
    length = corner_message_length(p, 1)
    idx = ((1,), (5,), (2,))
    a = CacheState(length=length, indices=idx, values=((0,), (0,), (0,)))
    b = CacheState(length=length, indices=idx, values=((1,), (1,), (0,)))
    from cachepir import build_corner_plan

    assert build_corner_plan(p, 1, 0, a, 9).per_db == build_corner_plan(p, 1, 0, b, 9).per_db
