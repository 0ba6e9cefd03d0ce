"""Verification instruments for transcripts and query plans.

Decodability is decided by re-running the decoder and comparing its output
with the stored message; no GF(2) rank check follows, because an exact
decode already proves the span.  `decode` recovers desired bit x only from
a downloaded equation that holds x and whose other terms are none, a
downloaded sum, or cached bits.  So the unit vector of x is that equation
plus a downloaded equation or plus cached-bit unit vectors, whatever order
the terms are listed in; cached desired bits are unit vectors themselves.
`decode` raises unless every desired bit is recovered, so whenever it
returns, the span of {downloaded equations} ∪ {cached-bit unit vectors}
contains every unit vector of the desired message.  The tests
keep a dense GF(2) rank check as the reference for this argument.  Costs
are reconciled exactly against the bounds module.

Privacy is certified on each plan directly.  A database sees its query list
relabeled by one uniform permutation per message, then shuffled.  That
premise is the shape of the builder's interface: `prefetch` caches a
uniform subset of each message, and `scheme.draw_plan(p, split, cache,
seed)`, which takes no desired index, deals the cached and the uncached
indices to the blocks in uniform order and draws each list's shuffle;
`compose_plans(p, theta, drawn)` only assembles that draw.  The
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
ships.  One verdict core decides each database from its references in
order and each equation's slice of them: (ii) first, as the census of the
slices of the references' messages x // L, compared with the predicted
census; then (i), as the number of distinct references.  A reference
outside range(k·L) names a message outside range(k), so it fails (ii).
Only a failing database is explained, in the report's `detail`: by its
first reference outside range(k·L), else its first repeated bit, as
(m, j), else its first subset with the count found and the count
predicted.

The distributional audits, library-only and kept for the benchmark and
their tests, draw the corner randomness (one permutation per message that
relabels the corner layout) and certify every draw, over all draws (tiny
instances only) or seeded samples.  Each desired index's layout is
compiled once by `_relabel` into one gather per database, so a draw
is relabeled by k `map`s and one gather per database and goes to the same
core; its equations are built only for a mutation hook, and only the first
failing draw is explained, since a report shows that one alone.  A draw
renames bits within each message, which neither (i) nor (ii) can see, so
they reach the verdict of the certificate on one shipped plan, which is
what `cachepir audit` runs for every desired index.

Mutation operators provide negative controls: an audit that cannot fail is
worthless.  `sort_queries` is not one: a sorted list depends only on the
query multiset, so it leaks nothing and passes.  The leak of a skipped
shuffle is the built order, desired sums first, which no check on one plan
sees: the premise above covers it.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate, chain, combinations, permutations, product, repeat
from operator import add, floordiv, itemgetter

from .bounds import CornerPoint, Params, _check_range, outer_bound
from .protocol import DecodeError, Transcript, _budgeted_corner, decode
from .rng import derive_rng, sample
from .scheme import BitRef, Equation, QueryPlan, corner_equations, round_profile

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
    """Outcome of one privacy audit, one distance per database."""

    passed: bool
    per_db: tuple
    detail: str = ""

    @property
    def distance(self):
        """The worst per-database value."""
        return max(self.per_db)


def verify_decodability(t: Transcript) -> bool:
    """True iff re-running the decoder reproduces the stored desired message.

    The decoder raises no DecodeError and returns a value equal to both the
    transcript's decoded message and the stored one.  By the argument in the
    module docstring, every desired unit vector is then in the span of the
    downloaded equations and the cached bits.  It is for transcripts read
    from a file: `retrieve` decoded its own, so `simulate` compares that.
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
    i-subsets of the messages; the full cache's blocks download nothing.
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


def _flatten(eqs) -> tuple[list[BitRef], Iterator[slice]]:
    """One query list as its references in order and, lazily, each equation's
    slice of them.  `eqs` is read three times, so it must be a sequence."""
    return list(chain.from_iterable(eqs)), map(
        slice, accumulate(map(len, eqs), initial=0), accumulate(map(len, eqs))
    )


def _gather(refs: tuple[BitRef, ...]) -> Callable[[list], tuple]:
    """names -> the tuple of names[x] for x in refs, in one C call where it can.

    `itemgetter` returns a bare item for one index and takes no empty list.
    """
    if len(refs) > 1:
        return itemgetter(*refs)
    return lambda names: tuple(map(names.__getitem__, refs))


@dataclass(frozen=True, slots=True)
class _Relabeling:
    """A layout compiled once for renaming under many draws.

    Per database, one gather over the layout's flat references, and each
    equation's slice of them.  A draw, one permutation per message of the
    layout's common size, is applied by k `map`s that build its naming
    table and one gather per database; nothing is done per equation unless
    `equations` asks for the tuples.
    """

    gathers: tuple[Callable[[list], tuple], ...]
    spans: tuple[list[slice], ...]

    def refs(self, perms, length: int) -> list[tuple[BitRef, ...]]:
        """Per database, its renamed references in layout order.

        Bit j of message m becomes m·length + perms[m][j]: the layout's
        stride is the permutations' common size, so its bit x is bit
        x % size of message x // size.
        """
        names = []
        for m, perm in enumerate(perms):
            names += map(add, repeat(m * length), perm)
        return [gather(names) for gather in self.gathers]

    def equations(self, perms, length: int) -> tuple[tuple[Equation, ...], ...]:
        """Per database, its renamed equations: tuples sliced from `refs`.

        Each message keeps its range, so each equation stays sorted.
        """
        return tuple([  # each tuple of a list: see _relabel
            tuple(list(map(refs.__getitem__, spans)))
            for refs, spans in zip(self.refs(perms, length), self.spans)
        ])


def _relabel(per_db) -> _Relabeling:
    """Compile a layout, per database a sequence of equations, for renaming.

    The distributional audits' renamer: compile once, then apply
    `_Relabeling.refs` or `_Relabeling.equations` per draw; every audit draw
    is its corner layout under one of these.  Equations come out as slices
    of a tuple, which is allocated at its final size, as `tuple()` of a
    list is.  A tuple built from a generator is resized instead, bypassing
    CPython's per-size tuple free list, yet joins that list when it dies,
    so the list fills to its cap and holds the memory (0.25 MiB in an audit
    that renames a layout per draw).
    """
    gathers, spans = [], []
    for eqs in per_db:
        refs, slices = _flatten(eqs)
        gathers.append(_gather(tuple(refs)))
        slices = list(slices)
        # a corner's databases list equations of the same lengths: one list serves
        spans.append(spans[-1] if spans and spans[-1] == slices else slices)
    return _Relabeling(gathers=tuple(gathers), spans=tuple(spans))


def _failing(views, predicted: Counter, k: int, length: int) -> list:
    """The databases whose view breaks (i) or (ii), in order.

    Each view is one database's references in order and an iterable of each
    equation's slice of them, checked by `_breaks` and released before the
    next view is made.
    """
    broken = map(_breaks, views, repeat(predicted), repeat(k), repeat(length))
    return [db for db, fails in enumerate(broken) if fails]


def _breaks(view, predicted: Counter, k: int, length: int) -> bool:
    """Check (ii) as a census of the slices of the references' messages
    x // length, then check (i) by marking one byte per bit of the k
    messages (70 KiB at (4, 2), L = 17 992, where a set of one database's
    references took 2 MiB): distinct references mark as many bytes.

    A reference outside range(k·length) names a message outside range(k),
    which no predicted subset holds, so once the census passes every
    reference is in range and can mark its byte.
    """
    refs, spans = view
    supports = tuple(list(map(floordiv, refs, repeat(length))))  # see _relabel
    if Counter(map(supports.__getitem__, spans)).items() != predicted.items():
        return True
    seen = bytearray(k * length)
    for x in refs:
        seen[x] = 1
    return seen.count(1) != len(refs)


def _reason(eqs, predicted: Counter, k: int, length: int) -> str:
    """Why one failing database breaks the certificate: its first reference
    outside range(k·length), else its first repeated bit, as (m, j), else its
    smallest subset with the count found and the count predicted."""
    top = k * length
    for x in chain.from_iterable(eqs):
        if not 0 <= x < top:
            return f"reference {x} lies outside range({top})"
    seen = bytearray(top)
    for x in chain.from_iterable(eqs):
        if seen[x]:
            times = sum(eq.count(x) for eq in eqs)
            return f"bit {divmod(x, length)} appears {times} times"
        seen[x] = 1
    found = Counter([tuple([x // length for x in eq]) for eq in eqs])
    subset = min(
        (sub for sub in chain(found, predicted) if found[sub] != predicted[sub]),
        key=lambda sub: (len(sub), sub),
    )
    return (
        f"subset {subset} has {found[subset]} equations, "
        f"round_profile predicts {predicted[subset]}"
    )


def _explain(reasons: dict) -> str:
    return "; ".join([f"db {db}: {why}" for db, why in reasons.items()])


def structural_symmetry(plan: QueryPlan) -> PrivacyReport:
    """Privacy certificate of one plan: (i) and (ii) of the module docstring.

    A database's distance is 1 when it fails the certificate and 0 when it
    passes.  Query order is deliberately ignored.
    """
    predicted = _predicted_supports(Params(plan.k, plan.n), plan.blocks)
    k, length = plan.k, plan.length
    reasons = {
        db: _reason(eqs, predicted, k, length)
        for db, eqs in enumerate(plan.per_db)
        if _breaks(_flatten(eqs), predicted, k, length)
    }
    per_db = tuple(Fraction(int(db in reasons)) for db in range(plan.n))
    return PrivacyReport(passed=not reasons, per_db=per_db, detail=_explain(reasons))


def _corner_plan(p: Params, corner: CornerPoint, theta: int, per_db) -> QueryPlan:
    """One-block plan at `corner` holding `per_db` as given, for the mutation hook."""
    return QueryPlan(
        k=p.k,
        n=p.n,
        length=corner.msg_len,
        theta=theta,
        r=corner.ratio,
        seed=None,
        blocks=((corner.s, 1),),
        per_db=per_db,
    )


def _draw_distance(p: Params, corner: CornerPoint, draws, mutation=None) -> tuple:
    """Per database, the worst share over the desired indices of draws
    failing the certificate.

    `draws(theta)` yields one permutation per message, which relabels that
    index's layout of `corner`, compiled once per index, onto references
    m·L(s) + j; `mutation`, when given, first sees the draw's equations
    wrapped in a one-block plan.  Each share is exact, so it is 0 on a
    private scheme.  Also returns the first failing draw, explained; no
    other draw is.
    """
    length = corner.msg_len
    predicted = _predicted_supports(p, ((corner.s, 1),))
    worst = [Fraction(0)] * p.n
    first = ""
    for theta in range(p.k):
        rename = _relabel(corner_equations(p, corner.s, theta))
        total = 0
        misses = [0] * p.n
        for perms in draws(theta):
            total += 1
            # The views are an argument only, so they die with the call,
            # before the next draw is drawn.
            if mutation is None:
                bad = _failing(
                    zip(rename.refs(perms, length), rename.spans), predicted, p.k, length
                )
            else:
                per_db = rename.equations(perms, length)
                per_db = mutation(_corner_plan(p, corner, theta, per_db)).per_db
                bad = _failing(map(_flatten, per_db), predicted, p.k, length)
            for db in bad:
                misses[db] += 1
            if bad and not first:
                if mutation is None:
                    per_db = rename.equations(perms, length)
                why = {db: _reason(per_db[db], predicted, p.k, length) for db in bad}
                first = f"theta {theta}, draw {total}: {_explain(why)}"
        worst = [max(w, Fraction(miss, total)) for w, miss in zip(worst, misses)]
    return tuple(worst), first


# The exact walk certifies k·L(s)!^k draws, one permutation per message
# for each desired index, at 8-18 µs a draw (Python 3.11 on a shared
# 2-vCPU machine, (2, 2, 1) through (6, 2, 5)): this many take about 2 s.
MAX_EXACT_DRAWS = 150_000


def enumerate_privacy(p: Params, s: int) -> PrivacyReport:
    """Exhaustive privacy audit over the whole randomness space.

    Walks every per-message index permutation (cache placement plus both
    consumption orders) for every desired index and passes only when every
    draw passes the certificate.  A draw only relabels bits within each
    message, which the certificate cannot see, so that is the expected
    outcome; this walk is the brute-force evidence for the argument on tiny
    instances.  Query shuffles are not walked: the certificate is
    order-invariant.  The guard multiplies the k·L(s)!^k draws up one
    factor at a time and refuses the instance, with ValueError, as soon as
    they pass MAX_EXACT_DRAWS, before any layout is built (and a corner
    over the simulation budget before its corner arithmetic).
    """
    corner = _budgeted_corner(p, s)
    length = corner.msg_len
    draws = p.k
    for factor in chain.from_iterable(repeat(range(2, length + 1), p.k)):
        draws *= factor
        if draws > MAX_EXACT_DRAWS:
            raise ValueError(
                f"instance too large for exact enumeration: more than the "
                f"{MAX_EXACT_DRAWS} outcomes (walked draws) its guard allows"
            )
    per_db, detail = _draw_distance(
        p, corner, lambda _: product(permutations(range(length)), repeat=p.k)
    )
    return PrivacyReport(passed=max(per_db) == 0, per_db=per_db, detail=detail)


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
    A sample is one uniform permutation per message, drawn by `rng.sample`
    as all L(s) of its indices (bit for bit `random.Random.sample`); that is
    the space `enumerate_privacy` walks: its head is a uniform cache, and
    head and tail are in uniform consumption order, as `prefetch` and
    `draw_plan` draw them.  `mutation` hooks a plan transform in front of the
    certificate, which is how the negative controls are exercised.  A
    corner whose k·L(s) exceeds `protocol.MAX_SIMULATED_BITS` is refused,
    with ValueError, by `protocol._budgeted_corner`, before its layout is built.
    """
    _check_range("trials", trials, 1000)
    corner = _budgeted_corner(p, s)
    length = corner.msg_len

    def draws(theta):
        rng = derive_rng(seed, "mc", theta)
        for _ in range(trials if theta == 0 else trials // (p.k - 1)):
            yield [sample(rng, length, length) for _ in range(p.k)]

    per_db, detail = _draw_distance(p, corner, draws, mutation)
    return PrivacyReport(passed=max(per_db) == 0, per_db=per_db, detail=detail)


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
    per_db = tuple([  # each tuple of a list: see _relabel
        tuple([eq for eq in eqs if any(map(desired, eq))]) for eqs in plan.per_db
    ])
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
                mixtures.append(tuple([x for x in eq if not desired(x)]))
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
    """The plan with each database's queries in sorted order.

    Not a negative control: a sorted list depends only on the multiset of
    queries, so it leaks nothing, and it passes structural_symmetry.  It
    shows that the certificate ignores order; the leak of a skipped shuffle
    is the built order, which puts the desired sums first.
    """
    return replace(plan, per_db=tuple(tuple(sorted(eqs)) for eqs in plan.per_db))
