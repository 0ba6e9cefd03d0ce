"""Verification instruments for transcripts and query plans.

Decodability is double-checked: the decoder is re-run, and independently the
GF(2) span of {downloaded equations} ∪ {cached-bit unit vectors} must contain
every unit vector of the desired message.  Costs are reconciled exactly
against the bounds module.  Privacy is audited on per-database *signatures*:
the canonical form of a query list with bit identities erased but message
identities and bit-reuse structure kept.  Under the uniform per-message index
permutation the raw indices are exchangeable, so the signature is the
permutation-invariant statistic a database could actually act on.  A draw of
the corner randomness is one permutation per message, whose head is the
cache and whose order is the consumption order, and it relabels the corner
layout; no plan is built and the query shuffle is skipped, since the
signature cannot see it.  Every draw is thus, by construction, a
per-message bit relabeling of one fixed layout, so a private scheme gives
each database one signature whatever the draw and the desired index.  Both
distributional audits therefore check each draw against one reference, the
layout itself at desired index 0, and pass only when no draw misses it:
exhaustively over every draw (tiny instances only) or over seeded samples.

Mutation operators provide negative controls: an audit that cannot fail is
worthless.  Note that `sort_queries` (the skipped-shuffle stand-in) does NOT
fail the structural census on purpose: query order is not part of the census,
only the distributional audits see it, and the signature quotients it out.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial

from .bounds import (
    Params,
    corner_download_total,
    corner_message_length,
    corner_ratio,
    outer_bound,
)
from .protocol import DecodeError, Transcript, decode
from .rng import derive_rng
from .scheme import QueryPlan, corner_equations, relabel

__all__ = [
    "Signature",
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

Signature = tuple


def plan_signature(equations) -> Signature:
    """Canonical form of one database's query list.

    Bit identities are erased, message identities and the repetition
    structure of bit references are kept: each reference is colored by
    (message, multiplicity), each equation by the sorted multiset of its
    reference colors, then references are refined once by the sorted multiset
    of colors of the equations containing them.  The result is invariant
    under query reordering and per-message bit relabeling, and never reads a
    desired index.
    """
    eqs = [tuple(sorted(eq)) for eq in equations]
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


def _span_basis(rows: list[int]) -> dict[int, int]:
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            pivot = row.bit_length() - 1
            if pivot in basis:
                row ^= basis[pivot]
            else:
                basis[pivot] = row
                break
    return basis


def _in_span(vec: int, basis: dict[int, int]) -> bool:
    while vec:
        pivot = vec.bit_length() - 1
        if pivot not in basis:
            return False
        vec ^= basis[pivot]
    return True


def verify_decodability(t: Transcript) -> bool:
    """Decode equality plus an algebra-independent GF(2) rank check.

    True iff re-running the decoder reproduces the stored desired message
    bit-for-bit AND the span of the downloaded equations together with all
    cached-bit unit vectors contains every unit vector of the desired
    message.
    """
    try:
        redecoded = decode(t.plan, [list(a) for a in t.answers], t.cache)
    except DecodeError:
        return False
    if redecoded != t.decoded or redecoded != t.store.bits[t.plan.theta]:
        return False

    length = t.length
    rows = [
        sum(1 << (m * length + j) for m, j in eq)
        for eqs in t.plan.per_db
        for eq in eqs
    ]
    rows.extend(
        1 << (m * length + j)
        for m in range(t.params.k)
        for j in t.cache.indices[m]
    )
    basis = _span_basis(rows)
    offset = t.plan.theta * length
    return all(_in_span(1 << (offset + j), basis) for j in range(length))


def verify_cost(t: Transcript) -> bool:
    """Equal per-database load and normalized cost exactly on the outer bound."""
    if len(set(t.plan.downloads_per_db)) > 1:
        return False
    return t.cost == outer_bound(t.params, t.plan.r)


def structural_symmetry(plan: QueryPlan) -> PrivacyReport:
    """Census check: equal equation counts over every message subset of each size.

    For each database and each equation size t, the number of equations
    touching each t-subset of the k messages must be the same for all
    binom(k, t) subsets; this is the structural face of message symmetry.
    Query order is deliberately ignored.
    """
    per_db = []
    violations = []
    for db, eqs in enumerate(plan.per_db):
        census = Counter(
            (len(eq), frozenset(m for m, _ in eq)) for eq in eqs
        )
        worst = Fraction(0)
        for size in sorted({size for size, _ in census}):
            counts = [
                census.get((size, frozenset(sub)), 0)
                for sub in combinations(range(plan.k), size)
            ]
            low, high = min(counts), max(counts)
            if low != high:
                worst = max(worst, 1 - Fraction(low, high))
                violations.append(
                    f"db {db}: size-{size} subset counts range {low}..{high}"
                )
        per_db.append(worst)
    distance = max(per_db, default=Fraction(0))
    return PrivacyReport(
        mode="structural",
        passed=distance == 0,
        distance=distance,
        per_db=tuple(per_db),
        detail="; ".join(violations),
    )


def _corner_signatures(p: Params, s: int, theta: int, per_db, mutation=None) -> list:
    """Per-database signatures of unshuffled corner-s equations.

    `mutation`, when given, first sees the equations wrapped in a one-block
    QueryPlan.
    """
    if mutation is not None:
        plan = QueryPlan(
            k=p.k,
            n=p.n,
            length=corner_message_length(p, s),
            theta=theta,
            r=corner_ratio(p, s),
            seed=None,
            blocks=((s, 1),),
            per_db=tuple(tuple(eqs) for eqs in per_db),
        )
        per_db = mutation(plan).per_db
    return [plan_signature(eqs) for eqs in per_db]


def _reference_distance(p: Params, s: int, thetas, draws, mutation=None) -> tuple:
    """Per database, the worst share over `thetas` of draws that miss the reference.

    The reference is the signature of the corner layout at desired index 0,
    passed through `mutation` like every draw.  `draws(theta)` yields one
    permutation per message, which relabels that index's layout.  Each share
    is the exact total-variation distance of that desired index's empirical
    signature distribution from the reference point mass, so it is 0 on a
    private scheme.
    """
    reference = _corner_signatures(p, s, 0, corner_equations(p, s, 0), mutation)
    worst = [Fraction(0)] * p.n
    for theta in thetas:
        layout = corner_equations(p, s, theta)
        total = 0
        misses = [0] * p.n
        for perms in draws(theta):
            total += 1
            for db, sig in enumerate(
                _corner_signatures(p, s, theta, relabel(layout, perms), mutation)
            ):
                misses[db] += sig != reference[db]
        worst = [max(w, Fraction(miss, total)) for w, miss in zip(worst, misses)]
    return tuple(worst)


MAX_OUTCOMES = 10**7


def enumerate_privacy(p: Params, s: int) -> PrivacyReport:
    """Exact privacy certificate over the whole randomness space.

    Walks every per-message index permutation (cache placement plus both
    consumption orders) for every desired index and passes only when every
    one gives each database the reference signature.  Since a draw only
    relabels bits within each message, which the signature cannot see, that
    is the expected outcome; this walk is the brute-force evidence for the
    argument on tiny instances.  Query shuffles are counted in the size
    guard but not iterated: the signature is order-invariant.
    """
    length = corner_message_length(p, s)
    per_db_eqs = corner_download_total(p, s) // p.n
    outcomes = factorial(length) ** p.k * factorial(per_db_eqs) ** p.n
    if outcomes > MAX_OUTCOMES:
        raise ValueError(
            f"instance too large for exact enumeration: {outcomes} outcomes "
            f"exceed the {MAX_OUTCOMES} guard"
        )
    per_db = _reference_distance(
        p, s, range(p.k), lambda _: product(permutations(range(length)), repeat=p.k)
    )
    distance = max(per_db)
    return PrivacyReport(
        mode="exact",
        passed=distance == 0,
        distance=distance,
        per_db=per_db,
        trials=outcomes,
    )


def montecarlo_privacy(
    p: Params, s: int, trials: int, seed, *, mutation=None
) -> PrivacyReport:
    """Sampled privacy certificate over every desired index.

    Draws `trials` samples of the corner-s randomness for desired index 0
    and `trials // (k-1)` for each other index, each from its own stream, so
    at most 2·trials in all.  It passes only when every sample gives each
    database the reference signature; the distance is the worst exact share
    of one index's samples that miss it.  A draw only relabels bits within
    each message, which the signature cannot see, so one miss is a leak.
    The 1000-trial floor stays because a leak confined to a few percent of
    one index's draws would likely escape fewer: one on 3% of draws escapes
    100 samples about once in twenty.  At 1000 trials and k ≤ 5 every index
    gets at least 250 draws, which that leak escapes about once in two
    thousand, and index 0 gets 1000, which it almost never escapes.
    A sample is one uniform permutation per message, the space
    `enumerate_privacy` walks: its head is a uniform cache, and head and
    tail are in uniform consumption order, as `prefetch` and `compose_plans`
    draw them.  `mutation` hooks a plan transform in front of the statistic,
    which is how the negative controls are exercised.
    """
    if trials < 1000:
        raise ValueError(f"need at least 1000 trials, got {trials}")
    length = corner_message_length(p, s)

    def draws(theta):
        rng = derive_rng(seed, "mc", theta)
        for _ in range(trials if theta == 0 else trials // (p.k - 1)):
            yield [rng.sample(range(length), length) for _ in range(p.k)]

    per_db = _reference_distance(p, s, range(p.k), draws, mutation)
    distance = max(per_db)
    return PrivacyReport(
        mode="montecarlo",
        passed=distance == 0,
        distance=distance,
        per_db=per_db,
        trials=trials,
        seed=seed,
    )


def _single_corner(plan: QueryPlan) -> int:
    real = [(s, count) for s, count in plan.blocks if s is not None]
    if len(real) != 1 or real[0][1] != 1:
        raise ValueError("mutation operators expect a single-corner plan")
    return real[0][0]


def skip_message_symmetry(plan: QueryPlan) -> QueryPlan:
    """Negative control: strip every undesired equation.

    The remaining queries all touch the desired message, so the census is
    lopsided and the signature distributions of different desired indices
    separate completely.
    """
    per_db = tuple(
        tuple(eq for eq in eqs if any(m == plan.theta for m, _ in eq))
        for eqs in plan.per_db
    )
    return replace(plan, per_db=per_db)


def drop_undesired_equation(plan: QueryPlan) -> QueryPlan:
    """Negative control: delete one undesired equation from the first database."""
    eqs = list(plan.per_db[0])
    for i, eq in enumerate(eqs):
        if all(m != plan.theta for m, _ in eq):
            del eqs[i]
            break
    else:
        raise ValueError("plan has no undesired equation to drop")
    return replace(plan, per_db=(tuple(eqs),) + plan.per_db[1:])


def bias_mixture_assignment(plan: QueryPlan) -> QueryPlan:
    """Negative control: collapse every cached-bit mixture onto one message subset.

    All opening-round desired equations are rewritten to reuse the
    lexicographically smallest mixture, skewing the per-subset census and
    introducing bit reuse the signature can see.
    """
    s = _single_corner(plan)
    if s < 1:
        raise ValueError("corner s=0 has no cached-bit mixtures to bias")
    size = s + 1
    mixtures = []
    for eqs in plan.per_db:
        for eq in eqs:
            if len(eq) == size and any(m == plan.theta for m, _ in eq):
                mixtures.append(frozenset(ref for ref in eq if ref[0] != plan.theta))
    pinned = min(mixtures, key=lambda mix: tuple(sorted(mix)))
    per_db = []
    for eqs in plan.per_db:
        rewritten = []
        for eq in eqs:
            own = [ref for ref in eq if ref[0] == plan.theta]
            if len(eq) == size and own:
                rewritten.append(frozenset(own) | pinned)
            else:
                rewritten.append(eq)
        per_db.append(tuple(rewritten))
    return replace(plan, per_db=tuple(per_db))


def sort_queries(plan: QueryPlan) -> QueryPlan:
    """Order-normalized plan, standing in for a skipped final shuffle.

    Passes structural_symmetry by design (the census ignores order); it
    exists to document that boundary of the structural check.
    """
    per_db = tuple(
        tuple(sorted(eqs, key=lambda eq: tuple(sorted(eq)))) for eqs in plan.per_db
    )
    return replace(plan, per_db=per_db)
