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
each message's first bits, as many as the corner's `cached` count, are its
cached ones, in mixture order, and the rest its uncached ones, in
consumption order; a plan renames them by a uniform permutation per
message, dealt by `draw_plan`, and finally shuffles each database's query
list.

An equation is held in one canonical form everywhere: a tuple of int bit
references x = m·length + j, bit j of message m, where `length` is the
plan's message length, sorted increasingly.  No sum touches a message twice,
so the messages x // length strictly increase as well, and two equations
over the same bits are equal tuples.  Renaming keeps every message range, so
relabeled equations stay sorted.  `first_non_canonical` states this rule
for a query list (one equation is a list of one); `protocol.answer` and the
transcript loader, where equations enter from outside the builder, refuse
any other form.  An int reference hashes and compares without unpacking a
pair: the composed (4, 2) plan at L = 16 000 holds 3.0 MiB as int tuples
where it held 5.2 MiB as tuples of shared (m, j) pairs and 9.7 MiB as
frozensets.  A tuple of ints also leaves the cyclic garbage collector after
one pass, so a live plan is not walked on every collection.

Every rational caching ratio is served by memory-sharing: the message is
split into blocks, each a relabeled copy of one of the two corner layouts
enclosing the ratio.  A split is those two corners, as `bounds` states them
(`CornerPoint`: length, cached count, downloads), each with its number of
blocks; past the last corner, the high one is the full cache, whose blocks
are single cached bits that need no queries at all.  A corner ratio is the
one-block case of the same split, so one path builds every plan:
`draw_plan` draws all its randomness without the desired index, and
`compose_plans` assembles the plan for one desired index from that draw, a
whole corner at a time: the blocks of a corner differ only in the bits
they are dealt, so each layout equation becomes all its copies in one pass
over per-bit columns.  So each database's view, its layouts renamed within
each message and then shuffled, is drawn the same whichever message is
wanted, by the shape of the interface.
`build_corner_plan` is a name for the path at r = r_s.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, count, filterfalse
from math import lcm

from .bounds import (
    CornerPoint,
    Params,
    _as_ratio,
    _check_int,
    _check_s,
    _check_theta,
    _enclosing_corner,
    binom,
    corner_point,
    corner_ratio,
)
from .rng import derive_rng, shuffle

BitRef = int  # m * length + j: bit j of message m
Equation = tuple  # tuple[BitRef, ...], increasing, at most one bit per message

__all__ = [
    "BitRef",
    "Equation",
    "first_non_canonical",
    "ContractViolation",
    "RoundCounts",
    "RoundProfile",
    "QueryPlan",
    "SplitSpec",
    "round_profile",
    "corner_equations",
    "build_corner_plan",
    "split_for_ratio",
    "PlanDraw",
    "draw_plan",
    "compose_plans",
]


class ContractViolation(ValueError):
    """A caller-supplied structure (cache shape, plan shape) breaks a contract."""


def first_non_canonical(equations, k: int, length: int) -> int | None:
    """Index of the first equation in `equations` that is not canonical, or
    None when each is a tuple of ints 0 <= x < k·length whose messages
    x // length strictly increase: the canonical form of a GF(2) sum.

    Increasing ints alone are not enough: (m·length + 1, m·length + 5) names
    message m twice.  A bool is not an int here.  With length < 1 only the
    empty sum is canonical.
    """
    for i, eq in enumerate(equations):
        if type(eq) is not tuple or (eq and length < 1):
            return i
        previous = -1
        for x in eq:
            if type(x) is not int:
                return i
            m = x // length
            if not previous < m < k:
                return i
            previous = m
    return None


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
    pairs; a corner index of None marks the full cache's blocks, which
    contribute no queries.  The length, θ and each block's corner and count
    must be ints (a bool is not one here).  Equations are not checked here:
    the sampled audit's negative controls build two plans per draw, and
    would pay for it.
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
        _check_int("plan length", self.length)
        _check_theta(self.k, self.theta)
        for corner, size in self.blocks:
            if corner is not None:
                _check_int("block corner", corner)
            _check_int("block count", size)
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

    Message m's cached bits are 0..c-1, c the corner's `cached` count,
    consumed in mixture order, and its uncached bits c..L(s)-1, consumed in
    order; bit j of message m is the int m·L(s) + j.  A block or an audit
    draw is this layout renamed within each message.  The returned lists
    are in generation order (round by round, desired sums before undesired
    ones); privacy additionally requires shuffling them.
    """
    corner = corner_point(p, s)
    _check_theta(p.k, theta)
    others = [m for m in range(p.k) if m != theta]
    length = corner.msg_len
    cached = [count(m * length) for m in range(p.k)]
    fresh = [count(m * length + corner.cached) for m in range(p.k)]

    def take(m: int) -> BitRef:
        return next(fresh[m])

    def topped(eq: Equation) -> Equation:
        return tuple(sorted((take(theta), *eq)))

    per_db: list[list[Equation]] = [[] for _ in range(p.n)]

    # Round s+1: one mixture per s-subset of the undesired messages, shared
    # verbatim by all databases; each database tops each mixture with its own
    # fresh desired bit.  Subsets come in increasing message order, so every
    # sum below is built sorted and only a topped one needs sorting.
    mixtures = [
        tuple(next(cached[m]) for m in subset)
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

    expected = corner.total_download // p.n
    assert all(len(eqs) == expected for eqs in per_db)
    return per_db


def build_corner_plan(p: Params, s: int, theta: int, cache, seed) -> QueryPlan:
    """Build one corner plan from a prefetched cache.

    A corner ratio is the one-block memory-sharing split, so this is
    `compose_plans` of a `draw_plan` at r = r_s: the cache must hold exactly
    the corner's `cached` count of bits per message over messages of length
    L(s), and only its *indices* are read.
    """
    split = split_for_ratio(p, corner_ratio(p, s))
    return compose_plans(p, theta, draw_plan(p, split, cache, seed))


@dataclass(frozen=True)
class SplitSpec:
    """Memory-sharing split of a message between the corners enclosing a ratio.

    Each part is one of the two enclosing corners, low corner first, with the
    number of its blocks: sub-messages of the corner's `msg_len` bits, each
    caching the corner's `cached` of them.  A part with no blocks is left
    out.  The high corner past the last one is the full cache, whose 1-bit
    blocks download nothing.
    """

    total_length: int
    parts: tuple[tuple[CornerPoint, int], ...]

    @property
    def blocks(self) -> tuple[tuple[int | None, int], ...]:
        """(corner index, block count) per part, as a plan records them; None
        is the full cache."""
        return tuple((corner.s, size) for corner, size in self.parts)

    @property
    def cached_per_message(self) -> int:
        return sum(size * corner.cached for corner, size in self.parts)


def split_for_ratio(p: Params, r) -> SplitSpec:
    """Split r between its enclosing corners and solve the divisibility constraints.

    The corners and alpha, the low corner's weight, come from the outer
    bound's bisection.  Returns the smallest total message length for which
    both block counts, alpha·total / L_low and (1 - alpha)·total / L_high,
    are integers.  The same formula covers the end points: a ratio hitting
    a corner gets alpha = 1 and one block of that corner, and r = 1 gets
    alpha = 0 and one block of the full cache.
    """
    low, high, alpha = _enclosing_corner(p, _as_ratio(r))
    shares = ((low, alpha), (high, 1 - alpha))
    total = lcm(*[(share / corner.msg_len).denominator for corner, share in shares])
    return SplitSpec(
        total_length=total,
        parts=tuple(
            (corner, int(share * total / corner.msg_len))
            for corner, share in shares
            if share
        ),
    )


@dataclass(frozen=True)
class PlanDraw:
    """The randomness of one plan, drawn without the desired index.

    `dealt[m]` orders the indices of message m: its cached ones first, then
    its uncached ones, each run in seeded random order; the blocks take
    their bits from the two runs in turn.  `order[db]` holds, for each
    position of database db's shipped query list, the position of the built
    list whose equation it ships.
    """

    split: SplitSpec
    seed: object
    dealt: tuple[tuple[int, ...], ...]
    order: tuple[array, ...]


def draw_plan(p: Params, split: SplitSpec, cache, seed) -> PlanDraw:
    """Deal the cache's indices to the blocks and draw each database's shuffle.

    Reads only the cache's *indices*, which must be the split's quota of
    each message.  Every shuffle is `rng.shuffle`, whose swaps depend only
    on the length, so shuffling positions orders the queries exactly as
    shuffling the queries would.
    """
    if cache.length != split.total_length:
        raise ContractViolation(
            f"split needs message length {split.total_length}, "
            f"cache has {cache.length}"
        )
    if cache.bits_per_message != split.cached_per_message:
        raise ContractViolation(
            f"split needs {split.cached_per_message} cached bits per message, "
            f"cache has {cache.bits_per_message}"
        )

    dealt = []
    for m in range(p.k):
        held = list(cache.indices[m])
        shuffle(derive_rng(seed, "deal-cached", m), held)
        rest = list(filterfalse(set(held).__contains__, range(split.total_length)))
        shuffle(derive_rng(seed, "deal-fresh", m), rest)
        dealt.append(tuple(held + rest))

    rows = sum(size * corner.total_download for corner, size in split.parts) // p.n
    order = []
    for db in range(p.n):
        # Shuffled as a list, whose items are read without boxing, then held
        # as machine ints: a list would keep one int object per position.
        positions = list(range(rows))
        shuffle(derive_rng(seed, "shuffle", db), positions)
        order.append(array("l", positions))
    return PlanDraw(split=split, seed=seed, dealt=tuple(dealt), order=tuple(order))


def compose_plans(p: Params, theta: int, drawn: PlanDraw) -> QueryPlan:
    """Concatenate relabeled corner layouts over disjoint bit ranges; draws nothing.

    Block b of a corner is its layout relabeled by the next `quota` bits of
    each message's dealt cached run and the next `length - quota` of its
    uncached run, so layout bit j of message m takes, across the corner's
    blocks, one strided slice of one run: a column.  Each dealt bit that an
    equation reads is named m·L + j once, in its column, and each layout
    equation becomes all its relabeled copies in one `zip` over its bits'
    columns; the copies go back in block order, so the plan equals the
    layout renamed block by block, each block by its own slice of the
    dealt runs.  Bits no equation reads (the full
    cache's blocks, which come last, and the uncached undesired bits a
    last-corner block never downloads) are never named.  Each database's
    list ships in the drawn order.  A ratio hitting a corner is the
    one-block case, and r = 1 returns an empty plan.
    """
    _check_theta(p.k, theta)
    split = drawn.split
    total, cached = split.total_length, split.cached_per_message
    dealt = drawn.dealt

    built: list[list[Equation]] = [[] for _ in range(p.n)]
    held, fresh = 0, cached  # where the corner's blocks start in each dealt order
    for corner, size in split.parts:
        if corner.s is None:
            break  # the full cache comes last and downloads nothing
        length, quota = corner.msg_len, corner.cached
        rest = length - quota
        layout = corner_equations(p, corner.s, theta)
        # Layout bit x, bit j of message m, named in every block: one strided
        # slice of m's cached run when j < quota, else of its uncached run.
        columns = [None] * (p.k * length)
        for x in chain.from_iterable(chain.from_iterable(layout)):
            if columns[x] is None:
                m, j = divmod(x, length)
                if j < quota:
                    run = dealt[m][held + j : held + size * quota : quota]
                else:
                    run = dealt[m][fresh + j - quota : fresh + size * rest : rest]
                columns[x] = list(map((m * total).__add__, run))
        for db, eqs in enumerate(layout):
            copies = [zip(*map(columns.__getitem__, eq)) for eq in eqs]
            built[db].extend(chain.from_iterable(zip(*copies)))
        held += size * quota
        fresh += size * rest

    return QueryPlan(
        k=p.k,
        n=p.n,
        length=total,
        theta=theta,
        r=Fraction(cached, total),
        seed=drawn.seed,
        blocks=split.blocks,
        per_db=tuple(
            tuple([eqs[i] for i in order]) for eqs, order in zip(built, drawn.order)
        ),
    )
