"""Simulation pipeline: prefetching, answering, decoding, full retrievals."""

import dataclasses
import gc
import tracemalloc
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
    check_transcript,
    corner_message_length,
    corner_ratio,
    decode,
    prefetch,
    random_store,
    retrieve,
    split_for_ratio,
)
from cachepir import protocol
from cachepir.protocol import MAX_SIMULATED_BITS, pack_bits, unpack_bits
from cachepir.rng import derive_rng


def test_store_validation():
    MessageStore(count=1, length=3, bits=(b"\x01\x00\x01",))
    with pytest.raises(ValueError, match="message count"):
        MessageStore(count=2, length=3, bits=(b"\x01\x00\x01",))
    for odd in (
        b"\x01\x00",  # one byte short
        b"\x01\x00\x01\x00",  # one byte long
        b"\x01\x02\x01",  # a byte that is not a bit
        0b101,  # the packed int in place of the bytes
        bytearray(b"\x01\x00\x01"),
    ):
        with pytest.raises(ValueError, match="3 bytes, each 0 or 1"):
            MessageStore(count=1, length=3, bits=(odd,))


def test_prefetch_edges():
    store = random_store(3, 7, 0)
    empty = prefetch(store, 0, 0)
    assert empty.bits_per_message == 0
    full = prefetch(store, 7, 0)
    assert all(idx == tuple(range(7)) for idx in full.indices)
    assert all(
        vals == tuple(store.bits[m])
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
        assert cache.values[m][0] == store.bits[m][idx]


def test_cache_state_validation():
    with pytest.raises(ValueError):
        CacheState(length=4, indices=((0,), (0, 1)), values=((1,), (0, 1)))
    with pytest.raises(ValueError):
        CacheState(length=4, indices=((5,),), values=((1,),))
    for outside in (4, -1):
        with pytest.raises(ValueError, match="outside message length"):
            CacheState(length=4, indices=((0, outside),), values=((1, 1),))
    with pytest.raises(ValueError):
        CacheState(length=4, indices=((1, 1),), values=((0, 0),))
    with pytest.raises(ValueError, match="misaligned"):
        CacheState(length=4, indices=((1,), (2,)), values=((0,),))
    with pytest.raises(ValueError, match="must be bits"):
        CacheState(length=4, indices=((1,),), values=((True,),))


@pytest.mark.parametrize(
    "decoded",
    [5, bytes(6), b"\x00\x01\x02\x00\x01\x00\x00", list(bytes(7))],
    ids=["int", "wrong-length", "byte-of-2", "list"],
)
def test_transcript_refuses_decoded_that_is_not_its_bits(decoded):
    t = retrieve(Params(3, 2), 0, F(1, 7), 1)
    assert len(t.decoded) == 7
    dataclasses.replace(t, decoded=bytes(7))  # any 7 bytes of 0/1 construct
    with pytest.raises(ValueError, match="decoded must be 7 bytes, each 0 or 1"):
        dataclasses.replace(t, decoded=decoded)


def flat(refs, length):
    """(m, j) pairs as the sorted int references m·length + j of one equation."""
    return tuple(sorted(m * length + j for m, j in refs))


def test_answer_golden():
    store = MessageStore(count=2, length=2, bits=(b"\x01\x00", b"\x01\x00"))
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
    # bit j of message m straight from its content stream, not from the store
    messages = [
        reference_bits(derive_rng(seed, "content", m).getrandbits(length), length)
        for m in range(k)
    ]
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
    assert list(t.decoded) == messages[theta]


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
        values=tuple((store.bits[m][0],) for m in range(3)),
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
        values=tuple((store.bits[m][0],) for m in range(3)),
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


def test_decode_refuses_cache_of_other_message_count():
    store, _, plan = single_mix_table()
    answers = [answer(store, list(eqs)) for eqs in plan.per_db]
    for count in (2, 4):
        other = prefetch(random_store(count, 7, 99), 1, 99)
        with pytest.raises(ContractViolation, match=f"cache holds {count} messages"):
            decode(plan, answers, other)


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


def test_decode_conflicting_recoveries_reported():
    # the first desired equation downloaded again, its answer bit flipped
    t = retrieve(Params(3, 2), 0, F(1, 7), 21)
    eq = next(eq for eq in t.plan.per_db[0] if eq[0] < t.length)
    plan = dataclasses.replace(
        t.plan, per_db=(t.plan.per_db[0] + (eq,),) + t.plan.per_db[1:]
    )
    answers = [list(a) for a in t.answers]
    answers[0].append(answer(t.store, [eq])[0] ^ 1)
    with pytest.raises(DecodeError) as err:
        decode(plan, answers, t.cache)
    assert err.value.reason == "conflicting recoveries for desired bit"
    assert (err.value.db, err.value.equation) == (0, eq)


def test_decode_reports_missing_bits_in_order():
    t = retrieve(Params(3, 2), 0, F(1, 7), 21)
    desired = [eq for eq in t.plan.per_db[1] if eq[0] < t.length]
    kept = [i for i, eq in enumerate(t.plan.per_db[1]) if eq not in desired]
    plan = dataclasses.replace(
        t.plan,
        per_db=(t.plan.per_db[0], tuple(t.plan.per_db[1][i] for i in kept)),
    )
    answers = [list(t.answers[0]), [t.answers[1][i] for i in kept]]
    with pytest.raises(DecodeError) as err:
        decode(plan, answers, t.cache)
    assert err.value.reason == "desired bits unrecovered"
    assert err.value.missing == tuple(sorted(eq[0] for eq in desired))
    assert len(err.value.missing) > 1


def test_decode_refuses_out_of_range_desired_bit():
    # (0, 5) renamed (0, 7) in a length-7 table.  As an int that is bit 0 of
    # message 1: decode takes desired terms from θ·L <= x < (θ+1)·L only, so
    # the equation is side information and bit 5 is never recovered.
    store = random_store(3, 7, 99)
    cache = CacheState(
        length=7,
        indices=((0,), (0,), (0,)),
        values=tuple((store.bits[m][0],) for m in range(3)),
    )
    db1 = [{(0, 1), (1, 0)}, {(0, 2), (2, 0)}, {(1, 1), (2, 1)}, {(0, 7), (1, 2), (2, 2)}]
    db2 = [{(0, 3), (1, 0)}, {(0, 4), (2, 0)}, {(1, 2), (2, 2)}, {(0, 6), (1, 1), (2, 1)}]
    plan = manual_two_db_plan(7, [db1, db2], theta=0, r=F(1, 7), s=1)
    answers = [[0] * 4, [0] * 4]
    with pytest.raises(DecodeError) as err:
        decode(plan, answers, cache)
    assert err.value.reason == "desired bits unrecovered"
    assert err.value.missing == (5,)


NO_CACHE = CacheState(length=7, indices=((), (), ()), values=((), (), ()))


def test_decode_refuses_two_desired_terms():
    # (1, 5) is increasing but names bits 1 and 5 of message 0 at L = 7.
    plan = manual_two_db_plan(7, [[{(0, 1), (0, 5)}], []], theta=0, r=F(0), s=0)
    with pytest.raises(DecodeError) as err:
        decode(plan, [[0], []], NO_CACHE)
    assert err.value.reason == "equation carries multiple desired-message terms"
    assert (err.value.db, err.value.equation) == (0, (1, 5))


@pytest.mark.parametrize(
    "odd",
    [frozenset({1, 7}), frozenset({8, 14}), [1, 7], [8, 14]],
    ids=["frozenset-desired", "frozenset-side", "list-desired", "list-side"],
)
def test_decode_refuses_non_tuple_equation(odd):
    plan = manual_two_db_plan(7, [[{(0, 0)}], []], theta=0, r=F(0), s=0)
    plan = dataclasses.replace(plan, per_db=(plan.per_db[0] + (odd,), ()))
    with pytest.raises(ContractViolation, match="not a tuple"):
        decode(plan, [[0, 0], []], NO_CACHE)


@pytest.mark.parametrize(
    "mixture", [{(3, 0)}, {(1, 0), (3, 0)}, {(1, 0), (2, 6), (4, 2)}, {(-1, 6)}]
)
def test_decode_refuses_mixture_outside_the_messages(mixture):
    # Every bit is cached, so only a reference at or above k·L = 21, or
    # below 0, leaves the mixture unresolved.
    cache = prefetch(random_store(3, 7, 5), 7, 5)
    plan = manual_two_db_plan(7, [[{(0, 1), *mixture}], []], theta=0, r=F(0), s=0)
    with pytest.raises(DecodeError) as err:
        decode(plan, [[0], []], cache)
    assert err.value.reason == "side information neither cached nor downloaded"
    assert (err.value.db, err.value.equation) == (0, plan.per_db[0][0])


def test_decode_memory_stays_small_near_one_half():
    # One byte per bit of the k messages, 70 KiB here; one dict of cached
    # values per message peaked at about 1.8 MiB.
    t = retrieve(Params(4, 2), 1, F(4507, 9010), 1)
    answers = [list(a) for a in t.answers]
    tracemalloc.start()
    try:
        assert decode(t.plan, answers, t.cache) == t.store.bits[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * 2**20


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


def test_budgeted_corner_admits_the_last_corner_at_large_k(monkeypatch):
    # L(k - 1) = 1 + n, so the floor k·L(k - 2) does not apply to corner k - 1
    p = Params(30_000, 2)
    computed = []
    real = protocol.corner_point
    monkeypatch.setattr(protocol, "corner_point", lambda *a: computed.append(a) or real(*a))
    assert protocol._budgeted_corner(p, p.k - 1).msg_len == 3
    with pytest.raises(ValueError, match="simulation budget"):
        protocol._budgeted_corner(p, p.k - 2)
    # the index is checked before the budget
    for s in (-1, 1.0, p.k):
        with pytest.raises(ValueError, match="corner index s"):
            protocol._budgeted_corner(p, s)
    assert computed == [(p, p.k - 1)]


def test_transcript_answers_must_match_plan():
    t = retrieve(Params(3, 2), 0, F(1, 7), 1)
    short = (t.answers[0][:-1],) + t.answers[1:]
    with pytest.raises(ValueError, match="answer lengths"):
        dataclasses.replace(t, answers=short)


@pytest.mark.parametrize(
    "k,n,r",
    [(3, 2, F(1, 7)), (4, 2, F(1, 5)), (3, 2, F(1)), (4, 3, F(2, 17)), (3, 3, F(1, 9))],
    ids=["corner", "composed", "full-cache", "n3-corner", "n3-composed"],
)
def test_check_transcript_passes_fresh_retrieval(k, n, r):
    for theta in range(k):
        check_transcript(retrieve(Params(k, n), theta, r, 11))


def flip(bits, i):
    """`bits` (a tuple of ints or 0/1 bytes) with entry i flipped."""
    flipped = list(bits)
    flipped[i] ^= 1
    return type(bits)(flipped)


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda t: dataclasses.replace(
            t, answers=(flip(t.answers[0], 0),) + t.answers[1:]), "answers of db 0"),
        (lambda t: dataclasses.replace(t, cache=dataclasses.replace(
            t.cache, values=(flip(t.cache.values[0], 0),) + t.cache.values[1:])),
         "cache of message 0"),
        (lambda t: dataclasses.replace(t, decoded=flip(t.decoded, 3)), "decoded bits differ"),
        (lambda t: dataclasses.replace(
            t, plan=dataclasses.replace(t.plan, blocks=((2, 1),))), "blocks"),
        (lambda t: dataclasses.replace(t, cache=CacheState(
            length=t.length, indices=t.cache.indices[:-1], values=t.cache.values[:-1])),
         "cached messages"),
        (lambda t: dataclasses.replace(t, store=random_store(3, 14, 1)), "store holds"),
    ],
    ids=["answer-bit", "cached-value", "decoded-bit", "blocks", "cache-k-1", "store-length"],
)
def test_check_transcript_refuses_disagreeing_fields(edit, message):
    t = retrieve(Params(3, 2), 0, F(1, 7), 1)
    check_transcript(t)
    with pytest.raises(ValueError, match=message):
        check_transcript(edit(t))


def test_retrieve_does_not_check_its_own_transcript(monkeypatch):
    # consistent by construction: the check would recompute every answer
    def refuse(t):
        raise AssertionError("retrieve called check_transcript")

    monkeypatch.setattr(protocol, "check_transcript", refuse)
    assert retrieve(Params(3, 2), 1, F(1, 7), 2).plan.theta == 1


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
