"""Audit instruments: decodability, cost reconciliation, privacy certificates."""

import dataclasses
import gc
import random
import tracemalloc
from collections import Counter
from fractions import Fraction as F
from itertools import permutations, product

import pytest

from cachepir import (
    DecodeError,
    Params,
    answer,
    bias_mixture_assignment,
    binom,
    corner_equations,
    corner_message_length,
    corner_ratio,
    decode,
    drop_undesired_equation,
    enumerate_privacy,
    montecarlo_privacy,
    plan_signature,
    relabel,
    retrieve,
    skip_message_symmetry,
    sort_queries,
    structural_symmetry,
    verify_cost,
    verify_decodability,
)
from cachepir.audit import _corner_plan, _draw_distance
from cachepir.rng import derive_rng


def tampered(t, **changes):
    return dataclasses.replace(t, **changes)


def dense_rank_check(t):
    """Reference rank verdict over dense rows: one k·L-bit int per equation."""
    length = t.length
    rows = [sum(1 << x for x in eq) for eqs in t.plan.per_db for eq in eqs]
    rows.extend(
        1 << (m * length + j) for m in range(t.params.k) for j in t.cache.indices[m]
    )
    basis = {}
    for row in rows:
        while row and row.bit_length() - 1 in basis:
            row ^= basis[row.bit_length() - 1]
        if row:
            basis[row.bit_length() - 1] = row

    def in_span(vec):
        while vec and vec.bit_length() - 1 in basis:
            vec ^= basis[vec.bit_length() - 1]
        return not vec

    return all(in_span(1 << (t.plan.theta * length + j)) for j in range(length))


# ---------------------------------------------------------------------------
# decodability


def test_verify_decodability_fresh_transcripts():
    for k, n in [(2, 2), (3, 2), (4, 3), (5, 3)]:
        p = Params(k, n)
        for s in range(k):
            t = retrieve(p, s % k, corner_ratio(p, s), seed=s)
            assert verify_decodability(t)


def test_verify_decodability_spot_check_large():
    t = retrieve(Params(6, 4), 5, corner_ratio(Params(6, 4), 1), seed=0)
    assert verify_decodability(t)


def test_verify_decodability_composed():
    cases = [(3, 2, F(1, 5)), (3, 2, F(1, 10)), (4, 2, F(1, 10)), (4, 3, F(1, 3))]
    for k, n, r in cases:
        t = retrieve(Params(k, n), 1, r, seed=6)
        assert verify_decodability(t)
        assert verify_cost(t)


def composed_ratio(p, rng):
    """A seeded ratio strictly inside a segment, the filler region past the
    last corner included."""
    nodes = [corner_ratio(p, s) for s in range(p.k)] + [F(1)]
    seg = rng.randrange(len(nodes) - 1)
    alpha = F(rng.randint(1, 5), 6)
    return alpha * nodes[seg] + (1 - alpha) * nodes[seg + 1]


def test_verify_composed_random_ratios():
    # five seeded ratios per (k, n), spread over all segments
    rng = random.Random("composed-ratios")
    for k, n in [(2, 2), (3, 2), (3, 3), (4, 2)]:
        p = Params(k, n)
        for _ in range(5):
            r = composed_ratio(p, rng)
            t = retrieve(p, rng.randrange(k), r, seed=rng.randrange(1000))
            assert verify_decodability(t), (k, n, r)
            assert verify_cost(t), (k, n, r)


def flipped_answer():
    t = retrieve(Params(3, 2), 0, F(1, 7), 1)
    flipped = [list(a) for a in t.answers]
    flipped[0][0] ^= 1
    return tampered(t, answers=tuple(tuple(a) for a in flipped))


def deleted_equation():
    t = retrieve(Params(3, 2), 0, F(1, 7), 2)
    eqs = [list(e) for e in t.plan.per_db]
    answers = [list(a) for a in t.answers]
    drop = next(i for i, eq in enumerate(eqs[0]) if eq[0] < t.length)
    del eqs[0][drop]
    del answers[0][drop]
    plan = dataclasses.replace(t.plan, per_db=tuple(tuple(e) for e in eqs))
    return tampered(t, plan=plan, answers=tuple(tuple(a) for a in answers))


def swapped_reference():
    # swap one desired bit reference for an already-used one: every equation
    # still resolves, but one desired bit is never recovered and the span
    # loses its unit vector
    # (desired index 0, so desired references are the x < L, first in order)
    t = retrieve(Params(3, 2), 0, F(1, 7), 3)
    eqs = [list(e) for e in t.plan.per_db]
    source = next(eq for eq in eqs[0] if eq[0] < t.length)
    target_idx, target = next(
        (i, eq) for i, eq in enumerate(eqs[1]) if eq[0] < t.length and eq != source
    )
    eqs[1][target_idx] = (source[0], *target[1:])
    plan = dataclasses.replace(t.plan, per_db=tuple(tuple(e) for e in eqs))
    answers = tuple(tuple(answer(t.store, list(e))) for e in plan.per_db)
    return tampered(t, plan=plan, answers=answers)


def test_verify_decodability_catches_flipped_answer():
    assert not verify_decodability(flipped_answer())


def test_verify_decodability_catches_deleted_equation():
    assert not verify_decodability(deleted_equation())


def test_swapped_reference_fails_decoder_and_rank_check():
    # The decoder refuses this plan; the dense rank check agrees with it.
    t = swapped_reference()
    with pytest.raises(DecodeError, match="desired bits unrecovered"):
        decode(t.plan, [list(a) for a in t.answers], t.cache)
    assert not verify_decodability(t)
    assert not dense_rank_check(t)


@pytest.mark.parametrize(
    "make,decodable,spanned",
    [
        (lambda: retrieve(Params(3, 2), 0, F(1, 7), 1), True, True),
        (lambda: retrieve(Params(4, 3), 2, corner_ratio(Params(4, 3), 2), 4), True, True),
        (lambda: retrieve(Params(5, 2), 4, corner_ratio(Params(5, 2), 0), 5), True, True),
        (lambda: retrieve(Params(3, 2), 1, F(1, 5), 6), True, True),
        (lambda: retrieve(Params(4, 2), 3, F(3, 50), 7), True, True),
        (lambda: retrieve(Params(3, 3), 2, F(5, 6), 8), True, True),
        # the rank check cannot see answer bits, only the decoder can
        (flipped_answer, False, True),
        (deleted_equation, False, False),
        (swapped_reference, False, False),
    ],
    ids=["corner-3-2", "corner-4-3", "corner-5-2", "composed-3-2", "composed-4-2",
         "filler-3-3", "flipped-answer", "deleted-equation", "swapped-reference"],
)
def test_rank_check_agrees_with_dense_reference(make, decodable, spanned):
    t = make()
    assert dense_rank_check(t) == spanned
    assert verify_decodability(t) == decodable
    # the decoder's argument: an exact decode implies the span
    assert spanned or not decodable


def edited(t, rng):
    """`t` with 1-3 plan edits and the answers recomputed: drop, duplicate or
    re-point (within its message) one equation, or remove one reference from
    an equation that has more than one."""
    length = t.length
    per_db = [list(eqs) for eqs in t.plan.per_db]
    for _ in range(rng.randint(1, 3)):
        nonempty = [eqs for eqs in per_db if eqs]
        if not nonempty:
            break
        eqs = rng.choice(nonempty)
        i = rng.randrange(len(eqs))
        eq = eqs[i]
        edit = rng.choice(["drop", "duplicate", "repoint", "remove"])
        if edit == "drop":
            del eqs[i]
        elif edit == "duplicate":
            eqs.insert(rng.randrange(len(eqs) + 1), eq)
        elif edit == "repoint":
            at = rng.randrange(len(eq))
            x = eq[at] // length * length + rng.randrange(length)
            eqs[i] = eq[:at] + (x,) + eq[at + 1:]
        elif len(eq) > 1:
            at = rng.randrange(len(eq))
            eqs[i] = eq[:at] + eq[at + 1:]
    plan = dataclasses.replace(t.plan, per_db=tuple(tuple(eqs) for eqs in per_db))
    answers = tuple(tuple(answer(t.store, list(eqs))) for eqs in plan.per_db)
    return tampered(t, plan=plan, answers=answers)


def test_decode_implies_span_on_tampered_plans():
    # Whenever the decoder returns on an edited plan, every desired unit
    # vector is in the span, which is why verify_decodability needs no rank
    # check of its own.
    rng = random.Random("tampered-plans")
    decoded = 0
    for _ in range(300):
        p = Params(rng.randint(2, 4), rng.randint(2, 3))
        if rng.randrange(2):
            r = corner_ratio(p, rng.randrange(p.k))
        else:
            r = composed_ratio(p, rng)
        t = edited(retrieve(p, rng.randrange(p.k), r, rng.randrange(1000)), rng)
        try:
            message = decode(t.plan, [list(a) for a in t.answers], t.cache)
        except DecodeError:
            continue
        decoded += 1
        assert message == t.store.bits[t.plan.theta]
        assert dense_rank_check(t), (p, r, t.plan.theta)
    assert decoded >= 30


def test_verify_decodability_memory_stays_small():
    # The decoder alone: the sparse rank check it replaced peaked at 4.5 MiB
    # here, and decode's recovered bits are one bytearray of L bytes.
    t = retrieve(Params(4, 2), 0, F(1, 1000), 1)
    assert t.length == 16000
    tracemalloc.start()
    try:
        assert verify_decodability(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.4 * 2**20


# ---------------------------------------------------------------------------
# cost


def test_verify_cost_golden():
    t = retrieve(Params(3, 2), 0, F(1, 7), 1)
    assert t.plan.downloads_per_db == (4, 4)
    assert verify_cost(t)
    t = retrieve(Params(3, 2), 1, F(1, 5), 1)
    assert t.plan.downloads_per_db == (5, 5)
    assert verify_cost(t)
    t = retrieve(Params(4, 3), 2, F(2, 17), 1)
    assert t.plan.downloads_per_db == (6, 6, 6)
    assert verify_cost(t)


def test_verify_cost_catches_wrong_total():
    t = retrieve(Params(3, 2), 0, F(1, 7), 1)
    eqs = [list(e) for e in t.plan.per_db]
    answers = [list(a) for a in t.answers]
    del eqs[1][0]
    del answers[1][0]
    plan = dataclasses.replace(t.plan, per_db=tuple(tuple(e) for e in eqs))
    bad = tampered(t, plan=plan, answers=tuple(tuple(a) for a in answers))
    assert bad.plan.downloads_per_db == (4, 3)
    assert not verify_cost(bad)


# ---------------------------------------------------------------------------
# signatures and structural symmetry


def test_signature_invariances():
    t = retrieve(Params(4, 2), 0, F(1, 15), 5)
    eqs = [[divmod(x, t.length) for x in eq] for eq in t.plan.per_db[0]]
    sig = plan_signature(eqs)
    assert plan_signature(list(reversed(eqs))) == sig
    relabeled = [
        frozenset((m, b + 100) for m, b in eq) for eq in eqs
    ]  # per-message bit relabeling
    assert plan_signature(relabeled) == sig


def test_signature_sees_message_identity():
    assert plan_signature([frozenset({(0, 0), (1, 0)})]) != plan_signature(
        [frozenset({(0, 0), (2, 0)})]
    )


def test_signature_sees_reuse_structure():
    a = [frozenset({(0, 0), (1, 0)}), frozenset({(0, 1), (1, 1)})]
    b = [frozenset({(0, 0), (1, 0)}), frozenset({(0, 1), (1, 0)})]  # reuses (1,0)
    assert plan_signature(a) != plan_signature(b)


def test_structural_symmetry_passes_fresh_and_composed():
    for k, n, s in [(3, 2, 1), (4, 2, 0), (4, 3, 2), (5, 2, 4)]:
        p = Params(k, n)
        t = retrieve(p, 1 % k, corner_ratio(p, s), seed=9)
        report = structural_symmetry(t.plan)
        assert report.passed and report.distance == 0
    t = retrieve(Params(3, 2), 2, F(1, 5), 9)
    assert structural_symmetry(t.plan).passed


def doubled(plan):
    # Each database's view stays blind to θ, but it downloads twice what
    # round_profile predicts, so it is not the paper's scheme.
    return dataclasses.replace(plan, per_db=tuple(eqs + eqs for eqs in plan.per_db))


def reused_bit(plan):
    # The first database puts the first bit of its first equation into a
    # later equation on the same message: every support is unchanged.
    eqs = list(plan.per_db[0])
    x = eqs[0][0]
    m = x // plan.length
    i = next(i for i, eq in enumerate(eqs) if i and any(y // plan.length == m for y in eq))
    eqs[i] = tuple([x if y // plan.length == m else y for y in eqs[i]])
    return dataclasses.replace(plan, per_db=(tuple(eqs),) + plan.per_db[1:])


def dropped_full_sum(plan):
    # The first database loses one of its sums over all k messages, a subset
    # that takes several at n > 2: every support still occurs.
    eqs = list(plan.per_db[0])
    del eqs[next(i for i, eq in enumerate(eqs) if len(eq) == plan.k)]
    return dataclasses.replace(plan, per_db=(tuple(eqs),) + plan.per_db[1:])


def test_structural_symmetry_mutants():
    t = retrieve(Params(4, 3), 2, corner_ratio(Params(4, 3), 1), seed=1)
    report = structural_symmetry(dropped_full_sum(t.plan))
    assert report.detail == (
        "db 0: subset (0, 1, 2, 3) has 3 equations, round_profile predicts 4"
    )
    t = retrieve(Params(4, 2), 0, corner_ratio(Params(4, 2), 2), seed=1)
    assert not structural_symmetry(drop_undesired_equation(t.plan)).passed
    assert not structural_symmetry(bias_mixture_assignment(t.plan)).passed
    assert not structural_symmetry(skip_message_symmetry(t.plan)).passed
    assert structural_symmetry(doubled(t.plan)).distance == 1
    report = structural_symmetry(reused_bit(t.plan))
    assert not report.passed and report.per_db == (1, 0)
    # ordering is not part of the census: the unshuffled plan still passes
    assert structural_symmetry(sort_queries(t.plan)).passed


def test_failing_certificate_explains_itself():
    t = retrieve(Params(4, 2), 0, corner_ratio(Params(4, 2), 2), seed=1)
    report = structural_symmetry(skip_message_symmetry(t.plan))
    assert report.detail == (
        "db 0: subset (1, 2, 3) has 0 equations, round_profile predicts 1; "
        "db 1: subset (1, 2, 3) has 0 equations, round_profile predicts 1"
    )
    report = structural_symmetry(reused_bit(t.plan))
    bit = divmod(t.plan.per_db[0][0][0], t.length)
    assert report.detail == f"db 0: bit {bit} appears 2 times"
    report = montecarlo_privacy(
        Params(3, 2), 1, 1000, seed=7, mutation=skip_message_symmetry
    )
    assert report.detail == (
        "theta 0, draw 1: "
        "db 0: subset (1, 2) has 0 equations, round_profile predicts 1; "
        "db 1: subset (1, 2) has 0 equations, round_profile predicts 1"
    )
    assert structural_symmetry(t.plan).detail == ""


def test_structural_symmetry_memory_stays_small():
    # Check (i) holds a set of one database's bit references at a time:
    # about 3 MiB here, where the equal-count census alone took 0.5 MiB.
    t = retrieve(Params(4, 2), 0, F(1, 2249), 1)
    assert t.length == 17992
    tracemalloc.start()
    try:
        assert structural_symmetry(t.plan).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_signature_is_theta_blind_by_shape():
    import inspect

    from cachepir.audit import plan_signature as sig

    params = inspect.signature(sig).parameters
    assert list(params) == ["equations"]


# ---------------------------------------------------------------------------
# exact enumeration


def test_enumerate_privacy_tiny_instances():
    report = enumerate_privacy(Params(2, 2), 1)
    assert report.passed and report.distance == 0
    report = enumerate_privacy(Params(3, 2), 2)
    assert report.passed and report.distance == 0


def test_enumerate_privacy_refuses_large():
    with pytest.raises(ValueError, match="outcomes"):
        enumerate_privacy(Params(3, 2), 1)


def test_enumeration_catches_leak():
    p = Params(2, 2)
    length = corner_message_length(p, 0)
    per_db, _ = _draw_distance(
        p,
        0,
        range(p.k),
        lambda _: product(permutations(range(length)), repeat=p.k),
        skip_message_symmetry,
    )
    assert per_db == (1, 1)


@pytest.mark.parametrize(
    "k,n,s", [(2, 2, 1), (3, 2, 1), (4, 3, 1), (4, 2, 3), (5, 2, 2), (5, 3, 0)]
)
def test_layout_bit_budget(k, n, s):
    # Every block and every audit draw relabels this layout, so it must fit
    # the message exactly: bits in range, each desired bit from the uncached
    # range downloaded once, and cached bits used only as mixtures beside a
    # desired bit.
    p = Params(k, n)
    length = corner_message_length(p, s)
    cached = binom(k - 2, s - 1)
    for theta in range(k):
        eqs = [
            [divmod(x, length) for x in eq]
            for db_eqs in corner_equations(p, s, theta)
            for eq in db_eqs
        ]
        assert all(0 <= m < k for eq in eqs for m, _ in eq)
        desired = sorted(j for eq in eqs for m, j in eq if m == theta)
        assert desired == list(range(cached, length))
        for eq in eqs:
            if any(j < cached for _, j in eq):
                assert len(eq) == s + 1 and any(m == theta for m, _ in eq)


# ---------------------------------------------------------------------------
# Monte-Carlo


def test_montecarlo_privacy_smoke():
    report = montecarlo_privacy(Params(3, 2), 1, 1000, seed=42)
    assert report.passed
    assert report.distance == 0
    assert report.trials == 1000


@pytest.mark.parametrize("k,n,s", [(3, 2, 1), (4, 2, 2), (4, 3, 1), (5, 2, 2)])
def test_montecarlo_draw_matches_shipped_supports(k, n, s):
    # The Monte-Carlo audit never builds a plan: it certifies the corner
    # layout relabeled by one permutation per message.  Each database of such
    # a draw must see the supports of the plan retrieve actually ships at
    # that corner, and both must pass the certificate.
    p = Params(k, n)
    length = corner_message_length(p, s)
    seed = 31
    for theta in (0, k - 1):
        shipped = retrieve(p, theta, corner_ratio(p, s), seed).plan
        rng = derive_rng(seed, "mc", theta)
        perms = [rng.sample(range(length), length) for _ in range(k)]
        draw = _corner_plan(
            p, s, theta, relabel(corner_equations(p, s, theta), perms, length)
        )
        for got, want in zip(draw.per_db, shipped.per_db):
            assert Counter(tuple(x // length for x in eq) for eq in got) == Counter(
                tuple(x // length for x in eq) for eq in want
            )
        assert structural_symmetry(draw).passed
        assert structural_symmetry(shipped).passed


def test_montecarlo_memory_stays_small():
    # Each draw relabels the layout into short-lived equation tuples.  Tuples
    # built from generators would fill CPython's tuple free lists (emptied by
    # the full collection below) to about 0.25 MiB; this audit needs ~0.03.
    gc.collect()
    tracemalloc.start()
    try:
        assert montecarlo_privacy(Params(3, 2), 1, 1000, 5).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 2**20


def test_montecarlo_requires_enough_trials():
    with pytest.raises(ValueError):
        montecarlo_privacy(Params(3, 2), 1, 999, seed=0)


def test_montecarlo_mutant_fails():
    report = montecarlo_privacy(
        Params(3, 2), 1, 1000, seed=7, mutation=skip_message_symmetry
    )
    assert not report.passed
    assert report.distance > 0.5
    for k, n, s in [(3, 2, 1), (4, 2, 2), (4, 3, 1)]:
        report = montecarlo_privacy(Params(k, n), s, 1000, seed=7, mutation=doubled)
        assert report.distance == 1, (k, n, s)
    report = montecarlo_privacy(Params(3, 2), 1, 1000, seed=7, mutation=reused_bit)
    assert report.per_db == (1, 0)


def test_montecarlo_catches_rare_leak():
    # One draw in 33 leaks, so a tolerance of 0.05 would pass it.
    calls = 0

    def leak_every_33rd(plan):
        nonlocal calls
        calls += 1
        return drop_undesired_equation(plan) if calls % 33 == 0 else plan

    report = montecarlo_privacy(
        Params(3, 2), 1, 1000, seed=7, mutation=leak_every_33rd
    )
    assert not report.passed
    assert report.distance == F(3, 100)


def test_montecarlo_draws_every_desired_index():
    # A leak confined to the last desired index: only drawing every index sees it.
    def leak_at_theta_2(plan):
        return drop_undesired_equation(plan) if plan.theta == 2 else plan

    report = montecarlo_privacy(
        Params(3, 2), 1, 1000, seed=7, mutation=leak_at_theta_2
    )
    assert not report.passed
    assert report.distance == 1


def test_mutators_validate_input():
    p = Params(3, 2)
    t = retrieve(p, 0, corner_ratio(p, 0), 3)
    with pytest.raises(ValueError):
        bias_mixture_assignment(t.plan)  # no mixtures at the no-cache corner
    empty = retrieve(p, 0, F(1), 3)
    with pytest.raises(ValueError):
        drop_undesired_equation(empty.plan)
