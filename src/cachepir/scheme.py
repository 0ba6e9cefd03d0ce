"""Query-plan construction for the cache-aided retrieval scheme.

A corner plan is built in rounds: round i downloads GF(2) sums touching
exactly i distinct messages.  The opening round (i = s+1) pairs one fresh
uncached desired bit with a mixture of s cached bits, one mixture per
s-subset of the undesired messages, and the same mixtures are reused at
every database.  Message symmetry then adds, per database, one fresh
undesired sum per (s+1)-subset of the undesired messages.  Every later
round reuses, verbatim, each undesired sum the *other* databases produced in
the previous round, topped with a fresh desired bit, and re-symmetrizes with
fresh undesired sums.  Finally each database's query list is shuffled
uniformly.

Every rational caching ratio is served by memory-sharing: the message is
split into blocks, each handled by one of the two corner schemes enclosing
the ratio (past the last corner, blocks are single fully-cached bits that
need no queries at all).  A corner ratio is the one-block case of the same
split, so `compose_plans` is the only plan builder and `build_corner_plan`
is a name for it at r = r_s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
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
from .rng import derive_rng

BitRef = tuple[int, int]  # (message index, bit index)
Equation = frozenset  # frozenset[BitRef], at most one term per message

__all__ = [
    "BitRef",
    "Equation",
    "ContractViolation",
    "RoundCounts",
    "RoundProfile",
    "QueryPlan",
    "SplitSpec",
    "round_profile",
    "corner_equations",
    "build_corner_plan",
    "split_for_ratio",
    "compose_plans",
]


class ContractViolation(ValueError):
    """A caller-supplied structure (cache shape, plan shape) breaks a contract."""


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
    contribute no queries.
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


def corner_equations(
    p: Params,
    s: int,
    theta: int,
    cached_order: list[list[int]],
    fresh_order: list[list[int]],
) -> list[list[Equation]]:
    """Unshuffled per-database equations of corner s over explicit bit orders.

    `cached_order[m]` lists message m's cached bit indices in mixture
    consumption order and `fresh_order[m]` its uncached indices in
    fresh-consumption order; the caller owns the randomization of both.  The
    returned lists are in generation order (round by round, desired sums
    before undesired ones); privacy additionally requires shuffling them.
    """
    _check_s(p, s)
    _check_theta(p.k, theta)
    cached = binom(p.k - 2, s - 1)
    length = corner_message_length(p, s)
    if any(len(order) != cached for order in cached_order):
        raise ContractViolation(
            f"corner s={s} needs exactly {cached} cached bits per message"
        )
    if any(len(order) != length - cached for order in fresh_order):
        raise ContractViolation(
            f"corner s={s} needs exactly {length - cached} uncached bits per message"
        )

    others = [m for m in range(p.k) if m != theta]
    pools = [iter(order) for order in cached_order]
    cursor = [0] * p.k

    def take(m: int) -> BitRef:
        ref = (m, fresh_order[m][cursor[m]])
        cursor[m] += 1
        return ref

    per_db: list[list[Equation]] = [[] for _ in range(p.n)]

    # Round s+1: one mixture per s-subset of the undesired messages, shared
    # verbatim by all databases; each database tops each mixture with its own
    # fresh desired bit.
    mixtures = [
        frozenset((m, next(pools[m])) for m in subset)
        for subset in combinations(others, s)
    ]
    for db in range(p.n):
        for mixture in mixtures:
            per_db[db].append(frozenset({take(theta)}) | mixture)
    prev_undesired: list[list[Equation]] = []
    for db in range(p.n):
        eqs = [
            frozenset(take(m) for m in subset)
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
                    per_db[db].append(frozenset({take(theta)}) | eq)
        copies = (p.n - 1) ** (i - s - 1)
        fresh_round: list[list[Equation]] = []
        for db in range(p.n):
            eqs = [
                frozenset(take(m) for m in subset)
                for subset in combinations(others, i)
                for _ in range(copies)
            ]
            per_db[db].extend(eqs)
            fresh_round.append(eqs)
        prev_undesired = fresh_round

    expected = corner_download_total(p, s) // p.n
    assert all(len(eqs) == expected for eqs in per_db)
    return per_db


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
    def cached_per_message(self) -> int:
        p = Params(self.k, self.n)
        _, low_c = _block_geometry(p, self.s)
        _, high_c = _block_geometry(p, self.high_corner)
        return self.low_blocks * low_c + self.high_blocks * high_c

    def block_layout(self) -> list[tuple[int | None, int, int]]:
        """Unrolled (corner, length, cached) triple per block."""
        p = Params(self.k, self.n)
        low_len, low_c = _block_geometry(p, self.s)
        high_len, high_c = _block_geometry(p, self.high_corner)
        layout = [(self.s, low_len, low_c)] * self.low_blocks
        layout += [(self.high_corner, high_len, high_c)] * self.high_blocks
        return layout


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
    """Concatenate independent corner plans over disjoint bit ranges for ratio r.

    The cache's indices are dealt (in seeded random order) to the blocks of
    the split, each block getting exactly its corner's cached quota; the
    combined per-database query list is shuffled once at the end.  A ratio
    hitting a corner is the one-block case, and r = 1 returns an empty plan.
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

    cached_pool = []
    fresh_pool = []
    for m in range(p.k):
        held = list(cache.indices[m])
        derive_rng(seed, "deal-cached", m).shuffle(held)
        cached_pool.append(held)
        held_set = set(cache.indices[m])
        rest = [i for i in range(split.total_length) if i not in held_set]
        derive_rng(seed, "deal-fresh", m).shuffle(rest)
        fresh_pool.append(rest)

    per_db: list[list[Equation]] = [[] for _ in range(p.n)]
    taken_cached = [0] * p.k
    taken_fresh = [0] * p.k
    for block_s, block_len, block_cached in split.block_layout():
        cached_order = []
        fresh_order = []
        for m in range(p.k):
            lo = taken_cached[m]
            cached_order.append(cached_pool[m][lo : lo + block_cached])
            taken_cached[m] += block_cached
            lo = taken_fresh[m]
            fresh_order.append(fresh_pool[m][lo : lo + block_len - block_cached])
            taken_fresh[m] += block_len - block_cached
        if block_s is None:
            continue  # fully cached: nothing to download
        block_eqs = corner_equations(p, block_s, theta, cached_order, fresh_order)
        for db in range(p.n):
            per_db[db].extend(block_eqs[db])

    for db in range(p.n):
        derive_rng(seed, "shuffle", db).shuffle(per_db[db])
    blocks = tuple(
        (corner, count)
        for corner, count in (
            (split.s, split.low_blocks),
            (split.high_corner, split.high_blocks),
        )
        if count
    )
    return QueryPlan(
        k=p.k,
        n=p.n,
        length=split.total_length,
        theta=theta,
        r=r,
        seed=seed,
        blocks=blocks,
        per_db=tuple(tuple(eqs) for eqs in per_db),
    )
