"""Query-plan construction for the cache-aided retrieval scheme.

A corner scheme is one fixed query table, its *layout*, built in rounds:
round i downloads GF(2) sums touching exactly i distinct messages.  The
opening round (i = s+1) pairs one fresh uncached desired bit with a mixture
of s cached bits, one mixture per s-subset of the undesired messages, and
the same mixtures are reused at every database.  Message symmetry then adds,
per database, one fresh undesired sum per (s+1)-subset of the undesired
messages.  Every later round reuses, verbatim, each undesired sum the
*other* databases produced in the previous round, topped with a fresh
desired bit, and re-symmetrizes with fresh undesired sums.  In the layout,
each message's first binom(k-2, s-1) bits are its cached ones, in mixture
order, and the rest its uncached ones, in consumption order; a plan renames
them by a uniform permutation per message (`relabel`) and finally shuffles
each database's query list.

An equation is held in one canonical form everywhere: a tuple of (m, j) bit
references sorted by message.  No sum touches a message twice, so the message
indices strictly increase, and two equations over the same bits are equal
tuples.  Renaming keeps every m, so relabeled equations stay sorted.
`is_canonical` states this rule; `protocol.answer` and the transcript loader,
where equations enter from outside the builder, refuse any other form.  A tuple
of int pairs is about a third the size of the equivalent frozenset, and the
cyclic garbage collector stops tracking it after one pass, so a live plan is
neither large nor walked on every collection.

Every rational caching ratio is served by memory-sharing: the message is
split into blocks, each a relabeled copy of one of the two corner layouts
enclosing the ratio (past the last corner, blocks are single fully-cached
bits that need no queries at all).  A corner ratio is the one-block case of
the same split, so `compose_plans` is the only plan builder and
`build_corner_plan` is a name for it at r = r_s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count, islice
from math import lcm

from .bounds import (
    Params,
    _as_ratio,
    _check_s,
    _check_theta,
    binom,
    corner_download_total,
    corner_message_length,
    corner_ratio,
)
from .rng import derive_rng, shuffle

BitRef = tuple[int, int]  # (message index, bit index)
Equation = tuple  # tuple[BitRef, ...], sorted by strictly increasing message index

__all__ = [
    "BitRef",
    "Equation",
    "is_canonical",
    "ContractViolation",
    "RoundCounts",
    "RoundProfile",
    "QueryPlan",
    "SplitSpec",
    "round_profile",
    "corner_equations",
    "relabel",
    "build_corner_plan",
    "split_for_ratio",
    "compose_plans",
]


class ContractViolation(ValueError):
    """A caller-supplied structure (cache shape, plan shape) breaks a contract."""


def is_canonical(eq, k: int, length: int) -> bool:
    """True when `eq` is a tuple of (m, j) int pairs, 0 <= m < k strictly
    increasing and 0 <= j < length: the canonical form of a GF(2) sum."""
    if type(eq) is not tuple:
        return False
    previous = -1
    for ref in eq:
        if type(ref) is not tuple or len(ref) != 2:
            return False
        m, j = ref
        if not (type(m) is int is type(j) and previous < m < k and 0 <= j < length):
            return False
        previous = m
    return True


@dataclass(frozen=True)
class RoundCounts:
    index: int
    desired_per_db: int
    undesired_per_db: int


@dataclass(frozen=True)
class RoundProfile:
    """Per-round, per-database equation counts of one corner scheme."""

    k: int
    n: int
    s: int
    rounds: tuple[RoundCounts, ...]

    @property
    def per_db_equations(self) -> int:
        return sum(r.desired_per_db + r.undesired_per_db for r in self.rounds)

    @property
    def total_downloads(self) -> int:
        return self.n * self.per_db_equations

    @property
    def desired_downloads(self) -> int:
        return self.n * sum(r.desired_per_db for r in self.rounds)


def round_profile(p: Params, s: int) -> RoundProfile:
    """Desired/undesired equation counts for rounds s+1 .. k of corner s."""
    _check_s(p, s)
    rounds = tuple(
        RoundCounts(
            index=i,
            desired_per_db=binom(p.k - 1, i - 1) * (p.n - 1) ** (i - s - 1),
            undesired_per_db=binom(p.k - 1, i) * (p.n - 1) ** (i - s - 1),
        )
        for i in range(s + 1, p.k + 1)
    )
    return RoundProfile(k=p.k, n=p.n, s=s, rounds=rounds)


@dataclass(frozen=True)
class QueryPlan:
    """Per-database GF(2) query lists plus the metadata needed to audit them.

    `blocks` records the memory-sharing layout as (corner index, block count)
    pairs; a corner index of None marks fully-cached filler blocks that
    contribute no queries.  Equations are not checked here: the sampled
    audit's negative controls build two plans per draw, and would pay for it.
    """

    k: int
    n: int
    length: int
    theta: int
    r: Fraction
    seed: object
    blocks: tuple[tuple[int | None, int], ...]
    per_db: tuple[tuple[Equation, ...], ...]

    def __post_init__(self) -> None:
        _check_theta(self.k, self.theta)
        if len(self.per_db) != self.n:
            raise ValueError("per_db length does not match database count")

    @property
    def downloads_per_db(self) -> tuple[int, ...]:
        return tuple(len(eqs) for eqs in self.per_db)

    @property
    def total_downloads(self) -> int:
        return sum(self.downloads_per_db)


def corner_equations(p: Params, s: int, theta: int) -> list[list[Equation]]:
    """Unshuffled per-database equations of corner s over its identity layout.

    Message m's cached bits are 0..c-1, c = binom(k-2, s-1), consumed in
    mixture order, and its uncached bits c..L(s)-1, consumed in order.  A
    block or an audit draw is this layout under `relabel`.  The returned
    lists are in generation order (round by round, desired sums before
    undesired ones); privacy additionally requires shuffling them.
    """
    _check_s(p, s)
    _check_theta(p.k, theta)
    others = [m for m in range(p.k) if m != theta]
    cached = [count() for _ in range(p.k)]
    fresh = [count(binom(p.k - 2, s - 1)) for _ in range(p.k)]

    def take(m: int) -> BitRef:
        return (m, next(fresh[m]))

    def topped(eq: Equation) -> Equation:
        return tuple(sorted((take(theta), *eq)))

    per_db: list[list[Equation]] = [[] for _ in range(p.n)]

    # Round s+1: one mixture per s-subset of the undesired messages, shared
    # verbatim by all databases; each database tops each mixture with its own
    # fresh desired bit.  Subsets come in increasing message order, so every
    # sum below is built sorted and only a topped one needs sorting.
    mixtures = [
        tuple((m, next(cached[m])) for m in subset)
        for subset in combinations(others, s)
    ]
    for db in range(p.n):
        for mixture in mixtures:
            per_db[db].append(topped(mixture))
    prev_undesired: list[list[Equation]] = []
    for db in range(p.n):
        eqs = [
            tuple(take(m) for m in subset)
            for subset in combinations(others, s + 1)
        ]
        per_db[db].extend(eqs)
        prev_undesired.append(eqs)

    # Rounds s+2 .. k: every database consumes, verbatim, every undesired sum
    # the other databases produced in the previous round, then re-symmetrizes
    # with fresh undesired sums ((n-1)^(i-s-1) per i-subset).
    for i in range(s + 2, p.k + 1):
        for db in range(p.n):
            for donor in range(p.n):
                if donor == db:
                    continue
                for eq in prev_undesired[donor]:
                    per_db[db].append(topped(eq))
        copies = (p.n - 1) ** (i - s - 1)
        fresh_round: list[list[Equation]] = []
        for db in range(p.n):
            eqs = [
                tuple(take(m) for m in subset)
                for subset in combinations(others, i)
                for _ in range(copies)
            ]
            per_db[db].extend(eqs)
            fresh_round.append(eqs)
        prev_undesired = fresh_round

    expected = corner_download_total(p, s) // p.n
    assert all(len(eqs) == expected for eqs in per_db)
    return per_db


def relabel(per_db, perms) -> list[list[Equation]]:
    """Rename every bit (m, j) of a layout to (m, perms[m][j]).

    Each renamed bit is one tuple shared by every equation naming it.  The
    message indices are kept, so each equation stays sorted.
    """
    names = [[(m, j) for j in perm] for m, perm in enumerate(perms)]
    # tuple() of a list is allocated at its final size.  From a generator it
    # is resized instead, bypassing CPython's per-size tuple free list, yet
    # joins that list when it dies, so the list fills to its cap and holds
    # the memory (0.25 MiB in an audit that relabels a layout per draw).
    return [[tuple([names[m][j] for m, j in eq]) for eq in eqs] for eqs in per_db]


def build_corner_plan(p: Params, s: int, theta: int, cache, seed) -> QueryPlan:
    """Build one corner plan from a prefetched cache.

    A corner ratio is the one-block memory-sharing split, so this is
    `compose_plans` at r = r_s: the cache must hold exactly binom(k-2, s-1)
    bits per message over messages of length L(s), and only its *indices*
    are read.
    """
    return compose_plans(p, corner_ratio(p, s), theta, cache, seed)


def _block_geometry(p: Params, s: int | None) -> tuple[int, int]:
    """(length, cached bits per message) of one block; None is fully-cached filler."""
    if s is None:
        return 1, 1
    return corner_message_length(p, s), binom(p.k - 2, s - 1)


@dataclass(frozen=True)
class SplitSpec:
    """Memory-sharing split between the two corners enclosing a caching ratio.

    `low_blocks` sub-messages run corner s and `high_blocks` run the next
    corner up (the 1-bit fully-cached filler when s is already the last
    corner); `alpha` is the weight of the low corner, so
    alpha * total_length = low_blocks * L(s) exactly.
    """

    k: int
    n: int
    s: int
    alpha: Fraction
    total_length: int
    low_blocks: int
    high_blocks: int

    @property
    def high_corner(self) -> int | None:
        return self.s + 1 if self.s + 1 <= self.k - 1 else None

    @property
    def blocks(self) -> tuple[tuple[int | None, int], ...]:
        """Non-empty (corner, block count) pairs, low corner first; None is filler."""
        return tuple(
            (corner, size)
            for corner, size in (
                (self.s, self.low_blocks),
                (self.high_corner, self.high_blocks),
            )
            if size
        )

    @property
    def cached_per_message(self) -> int:
        p = Params(self.k, self.n)
        return sum(size * _block_geometry(p, corner)[1] for corner, size in self.blocks)


def split_for_ratio(p: Params, r) -> SplitSpec:
    """Locate the enclosing corner pair of r and solve the divisibility constraints.

    Returns the smallest total message length for which both block counts are
    integers.  The same formula covers the end points: a ratio hitting a
    corner gets alpha = 1 and one block of that corner, and r = 1 gets
    alpha = 0 and one 1-bit filler block.
    """
    r = _as_ratio(r)
    ratios = [corner_ratio(p, s) for s in range(p.k)]
    s = max(i for i, ratio in enumerate(ratios) if ratio <= r)
    low_len, _ = _block_geometry(p, s)
    high_ratio = ratios[s + 1] if s + 1 <= p.k - 1 else Fraction(1)
    high_len, _ = _block_geometry(p, s + 1 if s + 1 <= p.k - 1 else None)
    alpha = (high_ratio - r) / (high_ratio - ratios[s])
    total = lcm(
        (alpha / low_len).denominator, ((1 - alpha) / high_len).denominator
    )
    return SplitSpec(
        k=p.k,
        n=p.n,
        s=s,
        alpha=alpha,
        total_length=total,
        low_blocks=int(alpha * total / low_len),
        high_blocks=int((1 - alpha) * total / high_len),
    )


def compose_plans(p: Params, r, theta: int, cache, seed) -> QueryPlan:
    """Concatenate relabeled corner layouts over disjoint bit ranges for ratio r.

    Each corner of the split builds its layout once.  The cache's indices
    and the uncached ones are dealt, in seeded random order, to the blocks:
    a block takes its corner's cached quota, then its uncached bits, and is
    the layout relabeled by that permutation.  Fully-cached filler blocks
    come last and own no queries, so they are never walked.  The combined
    per-database query list is shuffled once at the end.  Every shuffle is
    `rng.shuffle`, the kernel that matches `random.Random.shuffle` bit for
    bit.  A ratio hitting a corner is the one-block case, and r = 1 returns
    an empty plan.
    """
    _check_theta(p.k, theta)
    r = Fraction(r)
    split = split_for_ratio(p, r)
    if cache.length != split.total_length:
        raise ContractViolation(
            f"ratio {r} needs message length {split.total_length}, "
            f"cache has {cache.length}"
        )
    if cache.bits_per_message != split.cached_per_message:
        raise ContractViolation(
            f"ratio {r} needs {split.cached_per_message} cached bits per message, "
            f"cache has {cache.bits_per_message}"
        )

    dealt = []
    for m in range(p.k):
        held = list(cache.indices[m])
        shuffle(derive_rng(seed, "deal-cached", m), held)
        held_set = set(held)
        rest = [i for i in range(split.total_length) if i not in held_set]
        shuffle(derive_rng(seed, "deal-fresh", m), rest)
        dealt.append((iter(held), iter(rest)))

    per_db: list[list[Equation]] = [[] for _ in range(p.n)]
    for corner, size in split.blocks:
        if corner is None:
            break  # fully-cached filler comes last and downloads nothing
        length, quota = _block_geometry(p, corner)
        layout = corner_equations(p, corner, theta)
        for _ in range(size):
            perms = [
                [*islice(held, quota), *islice(rest, length - quota)]
                for held, rest in dealt
            ]
            for db, eqs in enumerate(relabel(layout, perms)):
                per_db[db].extend(eqs)

    for db in range(p.n):
        shuffle(derive_rng(seed, "shuffle", db), per_db[db])
    return QueryPlan(
        k=p.k,
        n=p.n,
        length=split.total_length,
        theta=theta,
        r=r,
        seed=seed,
        blocks=split.blocks,
        per_db=tuple(tuple(eqs) for eqs in per_db),
    )
