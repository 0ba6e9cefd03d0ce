"""Verification instruments for transcripts and query plans.

Decodability is decided by re-running the decoder and comparing its output
with the stored message; no GF(2) rank check follows, because an exact
decode already proves the span.  `decode` recovers desired bit x only from
a downloaded equation (x, *rest) whose rest is empty, a downloaded sum, or
cached bits, so the unit vector of x is that equation plus a downloaded
equation or plus cached-bit unit vectors; cached desired bits are unit
vectors themselves.  `decode` raises unless every desired bit is recovered,
so whenever it returns, the span of {downloaded equations} ∪ {cached-bit
unit vectors} contains every unit vector of the desired message.  The tests
keep a dense GF(2) rank check as the reference for this argument.  Costs
are reconciled exactly against the bounds module.

Privacy is certified on each plan directly.  A database sees its query list
relabeled by one uniform permutation per message, then shuffled.  That
premise holds by construction and is not checked here: `prefetch` caches a
uniform subset of each message, and `compose_plans` deals the cached and the
uncached indices to the blocks in uniform order and shuffles each list.  The
*support* of an equation is the tuple of messages x // L it touches.  Two
query lists that each use every bit at most once are relabelings of each
other exactly when their support multisets agree.  So a plan is private when, for
each database,

  (i)  no bit reference appears twice, and
  (ii) the multiset of supports equals the census `round_profile` predicts
       for `plan.blocks`: a block of corner s gives every i-subset of the
       messages (n-1)^(i-s-1) equations for each i > s, and no subset with
       i <= s gets any.

The prediction reads neither the desired index nor the randomness, so (i)
and (ii) make every database's view distributed the same whatever the
desired index.  The check is sufficient for any plan, and exact for plans
that use each bit at most once per database, which is every plan `retrieve`
ships.  A failing database is named in the report's `detail` with its first
repeated bit, as (m, j), or its first subset with the count found and the
count predicted.  The distributional audits keep their draws of the corner
randomness, one permutation per message that relabels the corner layout,
and certify every draw: exhaustively over every draw (tiny instances only)
or over seeded samples.

Mutation operators provide negative controls: an audit that cannot fail is
worthless.  Note that `sort_queries` (the skipped-shuffle stand-in) does NOT
fail the certificate on purpose: query order is the one thing a single plan
cannot show, and the premise above, not the check, covers it.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, permutations, product, repeat

from .bounds import (
    Params,
    corner_download_total,
    corner_message_length,
    corner_ratio,
    outer_bound,
)
from .protocol import MAX_SIMULATED_BITS, DecodeError, Transcript, decode
from .rng import derive_rng, permutation
from .scheme import QueryPlan, corner_equations, relabel, round_profile

__all__ = [
    "PrivacyReport",
    "plan_signature",
    "verify_decodability",
    "verify_cost",
    "structural_symmetry",
    "enumerate_privacy",
    "montecarlo_privacy",
    "drop_undesired_equation",
    "bias_mixture_assignment",
    "skip_message_symmetry",
    "sort_queries",
]


def plan_signature(equations) -> tuple:
    """Canonical form of one database's query list.

    Bit identities are erased, message identities and the repetition
    structure of bit references are kept: each reference is colored by
    (message, multiplicity), each equation by the sorted multiset of its
    reference colors, then references are refined once by the sorted multiset
    of colors of the equations containing them.  The result is invariant
    under query reordering and per-message bit relabeling, and never reads a
    desired index.  References are (m, j) pairs, which a plan's equations
    give under `divmod(x, plan.length)`.  No audit calls it: the support
    census replaced it.  It stays because the benchmark's `--trace 1` wraps
    `audit.plan_signature` by name and raises `AttributeError` when it is
    missing.
    """
    eqs = list(equations)
    multiplicity = Counter(ref for eq in eqs for ref in eq)
    base = {ref: (ref[0], count) for ref, count in multiplicity.items()}
    eq_colors = [tuple(sorted(base[ref] for ref in eq)) for eq in eqs]
    containing = defaultdict(list)
    for color, eq in zip(eq_colors, eqs):
        for ref in eq:
            containing[ref].append(color)
    refined = {
        ref: (base[ref], tuple(sorted(containing[ref]))) for ref in multiplicity
    }
    return tuple(sorted(tuple(sorted(refined[ref] for ref in eq)) for eq in eqs))


@dataclass(frozen=True)
class PrivacyReport:
    """Outcome of one privacy audit; `distance` is the worst per-database value."""

    mode: str
    passed: bool
    distance: object
    per_db: tuple
    trials: int | None = None
    seed: object = None
    detail: str = ""


def verify_decodability(t: Transcript) -> bool:
    """True iff re-running the decoder reproduces the stored desired message.

    The decoder raises no DecodeError and returns a value equal to both the
    transcript's decoded message and the stored one.  By the argument in the
    module docstring, every desired unit vector is then in the span of the
    downloaded equations and the cached bits.
    """
    try:
        redecoded = decode(t.plan, t.answers, t.cache)
    except DecodeError:
        return False
    return redecoded == t.decoded == t.store.bits[t.plan.theta]


def verify_cost(t: Transcript) -> bool:
    """Equal per-database load and normalized cost exactly on the outer bound."""
    if len(set(t.plan.downloads_per_db)) > 1:
        return False
    return t.cost == outer_bound(t.params, t.plan.r)


def _predicted_supports(p: Params, blocks) -> Counter:
    """Per-database support census that `round_profile` predicts for `blocks`.

    Round i of corner s downloads C(k-1, i-1) desired and C(k-1, i)
    undesired sums per database, (n-1)^(i-s-1) for each of the C(k, i)
    i-subsets of the messages; filler blocks download nothing.
    """
    census = Counter()
    for s, count in blocks:
        if s is None:
            continue
        for rnd in round_profile(p, s).rounds:
            subsets = list(combinations(range(p.k), rnd.index))
            per_subset = (rnd.desired_per_db + rnd.undesired_per_db) // len(subsets)
            for subset in subsets:
                census[subset] += count * per_subset
    return census


def _violations(per_db, predicted: Counter, length: int) -> dict:
    """Why each failing database breaks (i) or (ii), keyed by database."""
    bad = {}
    for db, eqs in enumerate(per_db):
        if len(set(chain.from_iterable(eqs))) != sum(map(len, eqs)):
            uses = Counter(chain.from_iterable(eqs))
            x, times = next((x, n) for x, n in uses.items() if n > 1)
            bad[db] = f"bit {divmod(x, length)} appears {times} times"
            continue
        found = Counter([tuple([x // length for x in eq]) for eq in eqs])
        if found.items() != predicted.items():
            subset = min(
                (sub for sub in found.keys() | predicted.keys()
                 if found[sub] != predicted[sub]),
                key=lambda sub: (len(sub), sub),
            )
            bad[db] = (
                f"subset {subset} has {found[subset]} equations, "
                f"round_profile predicts {predicted[subset]}"
            )
    return bad


def _explain(bad: dict) -> str:
    return "; ".join(f"db {db}: {why}" for db, why in bad.items())


def structural_symmetry(plan: QueryPlan) -> PrivacyReport:
    """Privacy certificate of one plan: (i) and (ii) of the module docstring.

    A database's distance is 1 when it fails the certificate and 0 when it
    passes.  Query order is deliberately ignored.
    """
    predicted = _predicted_supports(Params(plan.k, plan.n), plan.blocks)
    bad = _violations(plan.per_db, predicted, plan.length)
    per_db = tuple(Fraction(int(db in bad)) for db in range(plan.n))
    return PrivacyReport(
        mode="structural",
        passed=not bad,
        distance=max(per_db),
        per_db=per_db,
        detail=_explain(bad),
    )


@cache
def _corner_shape(p: Params, s: int) -> tuple[int, Fraction]:
    """Message length and caching ratio of corner s, computed once per (p, s)."""
    return corner_message_length(p, s), corner_ratio(p, s)


def _corner_plan(p: Params, s: int, theta: int, per_db) -> QueryPlan:
    """One-block corner-s plan holding `per_db` as given, for the mutation hook."""
    length, r = _corner_shape(p, s)
    return QueryPlan(
        k=p.k,
        n=p.n,
        length=length,
        theta=theta,
        r=r,
        seed=None,
        blocks=((s, 1),),
        per_db=tuple(tuple(eqs) for eqs in per_db),
    )


def _draw_distance(p: Params, s: int, thetas, draws, mutation=None) -> tuple:
    """Per database, the worst share over `thetas` of draws failing the certificate.

    `draws(theta)` yields one permutation per message, which relabels that
    index's corner layout onto references m·L(s) + j; `mutation`, when
    given, first sees the draw wrapped in a one-block plan.  Each share is
    exact, so it is 0 on a private scheme.  Also returns the first failing
    draw, explained.
    """
    predicted = _predicted_supports(p, ((s, 1),))
    length = _corner_shape(p, s)[0]
    worst = [Fraction(0)] * p.n
    first = ""
    for theta in thetas:
        layout = corner_equations(p, s, theta)
        total = 0
        misses = [0] * p.n
        for perms in draws(theta):
            total += 1
            per_db = relabel(layout, perms, length)
            if mutation is not None:
                per_db = mutation(_corner_plan(p, s, theta, per_db)).per_db
            bad = _violations(per_db, predicted, length)
            for db in bad:
                misses[db] += 1
            if bad and not first:
                first = f"theta {theta}, draw {total}: {_explain(bad)}"
        worst = [max(w, Fraction(miss, total)) for w, miss in zip(worst, misses)]
    return tuple(worst), first


MAX_OUTCOMES = 10**7


def enumerate_privacy(p: Params, s: int) -> PrivacyReport:
    """Exhaustive privacy audit over the whole randomness space.

    Walks every per-message index permutation (cache placement plus both
    consumption orders) for every desired index and passes only when every
    draw passes the certificate.  A draw only relabels bits within each
    message, which the certificate cannot see, so that is the expected
    outcome; this walk is the brute-force evidence for the argument on tiny
    instances.  Query shuffles are counted in the size guard but not
    iterated: the certificate is order-invariant.  The guard multiplies
    the count L(s)!^k · (D/n)!^n up one factor at a time and refuses the
    instance, with ValueError, as soon as it passes MAX_OUTCOMES.
    """
    length = corner_message_length(p, s)
    per_db_eqs = corner_download_total(p, s) // p.n
    outcomes = 1
    for top, times in ((length, p.k), (per_db_eqs, p.n)):
        for factor in chain.from_iterable(repeat(range(2, top + 1), times)):
            outcomes *= factor
            if outcomes > MAX_OUTCOMES:
                raise ValueError(
                    f"instance too large for exact enumeration: more than the "
                    f"{MAX_OUTCOMES} outcomes its guard allows"
                )
    per_db, detail = _draw_distance(
        p, s, range(p.k), lambda _: product(permutations(range(length)), repeat=p.k)
    )
    distance = max(per_db)
    return PrivacyReport(
        mode="exact",
        passed=distance == 0,
        distance=distance,
        per_db=per_db,
        trials=outcomes,
        detail=detail,
    )


def montecarlo_privacy(
    p: Params, s: int, trials: int, seed, *, mutation=None
) -> PrivacyReport:
    """Sampled privacy audit over every desired index.

    Draws `trials` samples of the corner-s randomness for desired index 0
    and `trials // (k-1)` for each other index, each from its own stream, so
    at most 2·trials in all, and certifies each one.  It passes only when
    every sample passes; the distance is the worst exact share of one
    index's samples that fail.  A draw only relabels bits within each
    message, which the certificate cannot see, so one failure is a leak.
    The 1000-trial floor stays because a leak confined to a few percent of
    one index's draws would likely escape fewer: one on 3% of draws escapes
    100 samples about once in twenty.  At 1000 trials and k ≤ 5 every index
    gets at least 250 draws, which that leak escapes about once in two
    thousand, and index 0 gets 1000, which it almost never escapes.
    A sample is one uniform permutation per message, drawn by
    `rng.permutation` (bit for bit `random.Random.sample`); that is the space
    `enumerate_privacy` walks: its head is a uniform cache, and head and
    tail are in uniform consumption order, as `prefetch` and `compose_plans`
    draw them.  `mutation` hooks a plan transform in front of the
    certificate, which is how the negative controls are exercised.  A
    corner whose k·L(s) exceeds `protocol.MAX_SIMULATED_BITS` is refused,
    with ValueError, before its layout is built.
    """
    if trials < 1000:
        raise ValueError(f"need at least 1000 trials, got {trials}")
    length = corner_message_length(p, s)
    if p.k * length > MAX_SIMULATED_BITS:
        raise ValueError(
            f"corner {s} needs {p.k} messages of {length} bits, "
            f"over the simulation budget of {MAX_SIMULATED_BITS} bits"
        )

    def draws(theta):
        rng = derive_rng(seed, "mc", theta)
        for _ in range(trials if theta == 0 else trials // (p.k - 1)):
            yield [permutation(rng, length) for _ in range(p.k)]

    per_db, detail = _draw_distance(p, s, range(p.k), draws, mutation)
    distance = max(per_db)
    return PrivacyReport(
        mode="montecarlo",
        passed=distance == 0,
        distance=distance,
        per_db=per_db,
        trials=trials,
        seed=seed,
        detail=detail,
    )


def _is_desired(plan: QueryPlan):
    """Predicate on references: does x name a bit of the desired message?"""
    low = plan.theta * plan.length
    return range(low, low + plan.length).__contains__


def _single_corner(plan: QueryPlan) -> int:
    real = [(s, count) for s, count in plan.blocks if s is not None]
    if len(real) != 1 or real[0][1] != 1:
        raise ValueError("mutation operators expect a single-corner plan")
    return real[0][0]


def skip_message_symmetry(plan: QueryPlan) -> QueryPlan:
    """Negative control: strip every undesired equation.

    The remaining queries all touch the desired message, so every subset
    without it misses its predicted count and the support census tells the
    desired index apart completely.
    """
    desired = _is_desired(plan)
    per_db = tuple(
        tuple(eq for eq in eqs if any(map(desired, eq))) for eqs in plan.per_db
    )
    return replace(plan, per_db=per_db)


def drop_undesired_equation(plan: QueryPlan) -> QueryPlan:
    """Negative control: delete one undesired equation from the first database."""
    desired = _is_desired(plan)
    eqs = list(plan.per_db[0])
    for i, eq in enumerate(eqs):
        if not any(map(desired, eq)):
            del eqs[i]
            break
    else:
        raise ValueError("plan has no undesired equation to drop")
    return replace(plan, per_db=(tuple(eqs),) + plan.per_db[1:])


def bias_mixture_assignment(plan: QueryPlan) -> QueryPlan:
    """Negative control: collapse every cached-bit mixture onto one message subset.

    All opening-round desired equations are rewritten to reuse the
    lexicographically smallest mixture, skewing the per-subset census and
    reusing cached bits, which the certificate refuses.
    """
    s = _single_corner(plan)
    if s < 1:
        raise ValueError("corner s=0 has no cached-bit mixtures to bias")
    size = s + 1
    desired = _is_desired(plan)
    mixtures = []
    for eqs in plan.per_db:
        for eq in eqs:
            if len(eq) == size and any(map(desired, eq)):
                mixtures.append(tuple(x for x in eq if not desired(x)))
    pinned = min(mixtures)
    per_db = []
    for eqs in plan.per_db:
        rewritten = []
        for eq in eqs:
            own = [x for x in eq if desired(x)]
            if len(eq) == size and own:
                rewritten.append(tuple(sorted([*own, *pinned])))
            else:
                rewritten.append(eq)
        per_db.append(tuple(rewritten))
    return replace(plan, per_db=tuple(per_db))


def sort_queries(plan: QueryPlan) -> QueryPlan:
    """Order-normalized plan, standing in for a skipped final shuffle.

    Passes structural_symmetry by design (the certificate ignores order); it
    exists to document that boundary of a check on one plan.
    """
    return replace(plan, per_db=tuple(tuple(sorted(eqs)) for eqs in plan.per_db))
