"""End-to-end retrieval simulation over replicated bit-vector databases.

A run generates random message content, prefetches a uniform random cache,
builds the query plan for the requested caching ratio, computes each
database's GF(2) answers, and decodes the desired message, producing an
immutable transcript.  Every layer holds a message as its L bytes of 0/1,
bit j at index j, so reference x = m·L + j is byte x of the k messages
joined end to end; the packed int form (`pack_bits`, `unpack_bits`) exists
only where content is drawn and where a transcript file stores it as hex.
Database unawareness is structural: `answer` receives only the message store
and the equations, never the cache or the desired index.

Each constructor checks the form and shape of its own fields;
`check_transcript` is the one statement of the rules that tie a
transcript's fields together (the plan against its ratio's split, the cache
and the answers against the store, the decoded message against message θ),
which the transcript loader in `cli` applies to every file it reads.
`_check_simulation_budget` states the one limit on simulated message bits and
`_check_budget_floor` its floor from (k, n) alone; `_budgeted_split` (a ratio)
and `_budgeted_corner` (a corner index) size every simulation through them.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .bounds import (
    CornerPoint, Params, _as_ratio, _check_range, _check_s, _check_theta, corner_point,
)
from .rng import derive_rng, sample
from .scheme import (
    ContractViolation,
    Equation,
    PlanDraw,
    QueryPlan,
    SplitSpec,
    compose_plans,
    draw_plan,
    first_non_canonical,
    split_for_ratio,
)

__all__ = [
    "MessageStore",
    "CacheState",
    "Transcript",
    "check_transcript",
    "DecodeError",
    "random_store",
    "prefetch",
    "answer",
    "decode",
    "retrieve",
]


def _are_bit_bytes(w, length: int) -> bool:
    """True when `w` is `length` bytes, each 0 or 1."""
    return (
        type(w) is bytes
        and len(w) == length
        and not w.translate(None, b"\x00\x01")  # no byte left that is not 0 or 1
    )


def _are_bits(values) -> bool:
    """True when every value is the int 0 or 1; a bool is not an int here."""
    return set(values) <= {0, 1} and set(map(type, values)) <= {int}


@dataclass(frozen=True)
class MessageStore:
    """k messages of identical length, each its `length` 0/1 bytes, bit j at index j."""

    count: int
    length: int
    bits: tuple[bytes, ...]

    def __post_init__(self) -> None:
        if len(self.bits) != self.count:
            raise ValueError("message count does not match stored messages")
        if not all(_are_bit_bytes(w, self.length) for w in self.bits):
            raise ValueError(f"each message must be {self.length} bytes, each 0 or 1")


_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def unpack_bits(word: int, length: int) -> bytes:
    """The `length` low bits of `word`, least significant first, one 0/1 byte each."""
    return format(word, f"0{length}b").encode()[::-1].translate(_FROM_DIGITS)


def pack_bits(bits) -> int:
    """Inverse of `unpack_bits`: 0/1 values, least significant first, as one int."""
    return int(bytes(bits)[::-1].translate(_TO_DIGITS), 2)


def random_store(k: int, length: int, seed) -> MessageStore:
    """Uniform random content; each message drawn from its own derived stream."""
    _check_range("k", k, 1)
    _check_range("length", length, 1)
    return MessageStore(
        count=k,
        length=length,
        bits=tuple(
            unpack_bits(derive_rng(seed, "content", m).getrandbits(length), length)
            for m in range(k)
        ),
    )


@dataclass(frozen=True)
class CacheState:
    """Per-message cached bit indices and their values, hidden from databases."""

    length: int
    indices: tuple[tuple[int, ...], ...]
    values: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.indices):
            raise ValueError("cached values misaligned with cached indices")
        sizes = {len(idx) for idx in self.indices}
        if len(sizes) > 1:
            raise ValueError("all messages must cache the same number of bits")
        for idx, vals in zip(self.indices, self.values):
            if len(idx) != len(vals):
                raise ValueError("cached values misaligned with cached indices")
            if not _are_bits(vals):
                raise ValueError("cached values must be bits (0 or 1)")
            odd = set(map(type, idx)) - {int}  # a bool is not an int here
            if odd:
                raise ValueError(f"cached index must be an int, got {odd.pop().__name__}")
            if idx and (min(idx) < 0 or max(idx) >= self.length):
                raise ValueError("cached index outside message length")
            if len(set(idx)) != len(idx):
                raise ValueError("cached indices must be distinct")

    @property
    def bits_per_message(self) -> int:
        return len(self.indices[0]) if self.indices else 0


def prefetch(store: MessageStore, bits_per_message: int, seed) -> CacheState:
    """Cache a uniform random index subset of every message, values copied in.

    Index choice is independent of message content and of any later desired
    index; only the seed and the message length matter.
    """
    _check_range("bits_per_message", bits_per_message, 0, store.length)
    indices = []
    values = []
    for m in range(store.count):
        rng = derive_rng(seed, "cache", m)
        chosen = tuple(sorted(sample(rng, store.length, bits_per_message)))
        indices.append(chosen)
        values.append(tuple(map(store.bits[m].__getitem__, chosen)))
    return CacheState(length=store.length, indices=tuple(indices), values=tuple(values))


def answer(store: MessageStore, equations: list[Equation]) -> list[int]:
    """GF(2) sum of the referenced bits, one output bit per equation.

    Pure function of (store, equations): this is the whole database-side
    computation, and by taking no cache and no desired index it cannot leak
    what it never sees.  Reference x = m·L + j reads byte x of the k
    messages unpacked end to end.  If any equation is not canonical over
    the store (a frozenset, unsorted, a repeated message, a reference out of
    range; see `scheme.first_non_canonical`, which checks the whole list
    before any bit is read), ContractViolation names the first.
    """
    bad = first_non_canonical(equations, store.count, store.length)
    if bad is not None:
        raise ContractViolation(
            f"equation {equations[bad]!r} is not canonical (see first_non_canonical)"
        )
    bits = b"".join(store.bits)
    out = []
    for eq in equations:
        acc = 0
        for x in eq:
            acc ^= bits[x]
        out.append(acc)
    return out


class DecodeError(Exception):
    """Decoding could not complete; carries the offending structure."""

    def __init__(self, reason: str, *, db: int | None = None, equation=None, missing=()):
        self.reason = reason
        self.db = db
        self.equation = equation
        self.missing = tuple(missing)
        parts = [reason]
        if db is not None:
            parts.append(f"db={db}")
        if self.equation is not None:
            parts.append(f"equation={self.equation}")
        if self.missing:
            parts.append(f"missing bits={self.missing}")
        super().__init__("; ".join(parts))


def decode(plan: QueryPlan, answers: list[list[int]], cache: CacheState) -> bytes:
    """Recover the desired message from the answers as its L 0/1 bytes.

    Every downloaded sum without a desired-message term (a reference in
    θ·L <= x < (θ+1)·L) is side information whose value is its own answer
    bit; every sum with a desired term is cancelled either against cached
    bits or against one such side-information sum appearing verbatim inside
    it (dropping the desired term keeps the equation's canonical order, so
    the rest is looked up as it is).  Cached desired bits are copied from
    the cache.  Structural problems (unresolvable sums, unrecovered or
    conflicting bits) raise DecodeError rather than returning wrong content.

    Each equation is classified by one `bisect_left(eq, θ·L)`: its desired
    term is eq[i] when eq[i] < (θ+1)·L, and a second one at eq[i+1] raises
    DecodeError.  That reads the terms in the canonical order of
    `scheme.first_non_canonical`, which `answer` and the transcript loader
    enforce.  A non-tuple equation, or a cache over another message length
    or count than the plan's, raises ContractViolation.  Decoding stays
    sound on any plan, canonical or not, whose answers are the GF(2) sums of
    its equations: each recovered bit is its answer XOR the exact parity of
    that equation's other terms, read from a downloaded sum of exactly those
    terms or from the cache.
    """
    if len(answers) != plan.n:
        raise ContractViolation("answers do not cover every database")
    length = plan.length
    if cache.length != length:
        raise ContractViolation(
            f"cache holds messages of {cache.length} bits, the plan {length}"
        )
    if len(cache.indices) != plan.k:
        raise ContractViolation(
            f"cache holds {len(cache.indices)} messages, the plan {plan.k}"
        )
    theta = plan.theta
    low = theta * length
    high = low + length
    # Every downloaded sum, keyed by its terms.  On a canonical plan a rest
    # holds no desired term, so only side information is ever looked up.
    side: dict[Equation, int] = {}
    for db, (eqs, bits) in enumerate(zip(plan.per_db, answers)):
        if len(eqs) != len(bits):
            raise ContractViolation(f"answer length mismatch at database {db}")
        odd = [eq for eq in eqs if type(eq) is not tuple]
        if odd:
            raise ContractViolation(f"equation {odd[0]!r} is not a tuple")
        side.update(zip(eqs, bits))

    # One byte per bit of the k messages: its cached value, or 2.
    size = plan.k * length
    cached = bytearray([2]) * size
    for m, (idx, vals) in enumerate(zip(cache.indices, cache.values)):
        base = m * length
        for j, bit in zip(idx, vals):
            cached[base + j] = bit
    # One byte per desired bit: 2 until it is recovered, then the bit.
    recovered = cached[low:high]
    for db, (eqs, bits) in enumerate(zip(plan.per_db, answers)):
        for eq, value in zip(eqs, bits):
            i = bisect_left(eq, low)
            if i == len(eq) or eq[i] >= high:
                continue
            if i + 1 < len(eq) and eq[i + 1] < high:
                raise DecodeError(
                    "equation carries multiple desired-message terms",
                    db=db,
                    equation=eq,
                )
            rest = eq[:i] + eq[i + 1:]
            if rest:
                parity = side.get(rest)
                if parity is None:
                    parity = 0
                    for y in rest:
                        bit = cached[y] if 0 <= y < size else 2
                        if bit == 2:
                            raise DecodeError(
                                "side information neither cached nor downloaded",
                                db=db,
                                equation=eq,
                            )
                        parity ^= bit
                value ^= parity
            j = eq[i] - low
            if recovered[j] == 2:
                recovered[j] = value
            elif recovered[j] != value:
                raise DecodeError(
                    "conflicting recoveries for desired bit", db=db, equation=eq
                )

    if 2 in recovered:
        raise DecodeError(
            "desired bits unrecovered",
            missing=[j for j, bit in enumerate(recovered) if bit == 2],
        )
    return bytes(recovered)


@dataclass(frozen=True)
class Transcript:
    """One full retrieval run, immutable and self-contained for audits.

    Only the run's inputs and outputs are stored; the parameters, message
    length and normalized cost are read off the plan, so they cannot
    disagree with it.  `decoded` is the desired message in the form of
    `store.bits`, its L 0/1 bytes, so a correct run has
    `decoded == store.bits[theta]`.  Answers that are not the ints 0 and 1
    (a bool is not an int here) or a `decoded` that is not L bytes of 0/1
    raise ValueError.  Whether the fields agree with each other is
    `check_transcript`'s question.
    """

    plan: QueryPlan
    answers: tuple[tuple[int, ...], ...]
    decoded: bytes
    store: MessageStore
    cache: CacheState

    def __post_init__(self) -> None:
        if tuple(len(a) for a in self.answers) != self.plan.downloads_per_db:
            raise ValueError("answer lengths do not match the plan's queries per database")
        if not all(map(_are_bits, self.answers)):
            raise ValueError("answers must be bits (0 or 1)")
        if not _are_bit_bytes(self.decoded, self.plan.length):
            raise ValueError(f"decoded must be {self.plan.length} bytes, each 0 or 1")

    @property
    def params(self) -> Params:
        return Params(self.plan.k, self.plan.n)

    @property
    def length(self) -> int:
        return self.plan.length

    @property
    def cost(self) -> Fraction:
        return Fraction(self.plan.total_downloads, self.length)


def check_transcript(t: Transcript) -> None:
    """Refuse, with ValueError, a transcript whose fields disagree with each other.

    The one statement of those rules: the store and the cache hold k
    messages of the plan's length; the plan's length and blocks are the ones
    `split_for_ratio` gives its k, n and r, a split over the simulation
    budget refused first (see `_budgeted_split`); the cache holds the split's
    number of bits of each of the k messages, each equal to the stored
    message's bit at that index; each database's answers are the GF(2) sums
    `answer` computes over the store (which refuses, with ContractViolation,
    an equation that is not canonical); and `decoded` is message θ.
    `retrieve` does not call it, because its transcripts agree by
    construction and the check would recompute every answer.
    """
    plan, store, cache = t.plan, t.store, t.cache
    if (store.count, store.length, cache.length) != (plan.k, plan.length, plan.length):
        raise ValueError(
            f"transcript store holds {store.count} messages of {store.length} bits "
            f"and its cache messages of {cache.length}, the plan {plan.k} of {plan.length}"
        )
    split = _budgeted_split(t.params, plan.r)
    for key, recorded, derived in (
        ("length", plan.length, split.total_length),
        ("blocks", plan.blocks, split.blocks),
        ("cached messages", len(cache.indices), plan.k),
        ("cached bits per message", cache.bits_per_message, split.cached_per_message),
    ):
        if recorded != derived:
            raise ValueError(
                f"transcript {key} {recorded} disagrees with its k, queries "
                f"and ratio ({derived})"
            )
    for m, (idx, vals) in enumerate(zip(cache.indices, cache.values)):
        message = store.bits[m]
        if tuple([message[j] for j in idx]) != vals:
            raise ValueError(f"transcript messages contradict the cache of message {m}")
    for db, (eqs, recorded) in enumerate(zip(plan.per_db, t.answers)):
        if tuple(answer(store, eqs)) != recorded:
            raise ValueError(f"transcript messages contradict the answers of db {db}")
    if t.decoded != store.bits[plan.theta]:
        raise ValueError(f"transcript decoded bits differ from message {plan.theta}")


# Measured near the edge in a fresh process (Python 3.11, shared 2-vCPU
# machine): `simulate --k 4 --n 2 --r 1/50000 --theta 1 --seed 5 --out f`,
# k·L = 3.2·10^6 bits, took 14.6 s and 458 MiB of max RSS and wrote 33 MB;
# `cli.load_transcript` of that file took 3.3 s and 413 MiB.
MAX_SIMULATED_BITS = 2**22


def _check_simulation_budget(k: int, length: int, what: str) -> None:
    """Refuse, with ValueError, k messages of `length` bits over MAX_SIMULATED_BITS.

    `what` opens the message, for example "transcript holds".  The message
    gives the size as a power of two, not the number: a corner's length at
    large k has hundreds of digits.
    """
    bits = k * length
    if bits > MAX_SIMULATED_BITS:
        raise ValueError(
            f"{what} at least 2^{bits.bit_length() - 1} message bits in all, "
            f"more than the simulation budget of {MAX_SIMULATED_BITS} bits"
        )


def _check_budget_floor(p: Params, what: str) -> None:
    """Refuse k·L(k - 2) bits over the budget, with no corner computed (about k²
    work each).  L(s) falls in s, and a split below r_{k-1} = 1/(1 + n) has a low
    corner s <= k - 2 at a share alpha > 0, so every corner but the last, and
    every such split, is at least L(k - 2) = (k - 2) + n(k + n - 2) bits long."""
    _check_simulation_budget(p.k, p.k - 2 + p.n * (p.k + p.n - 2), what)


def _budgeted_corner(p: Params, s: int) -> CornerPoint:
    """`corner_point(p, s)`, refused with ValueError over the simulation budget,
    before it is computed unless s = k - 1 (`_check_budget_floor`)."""
    _check_s(p, s)
    what = f"corner {s} needs"
    if s < p.k - 1:
        _check_budget_floor(p, what)
    corner = corner_point(p, s)
    _check_simulation_budget(p.k, corner.msg_len, what)
    return corner


def _budgeted_split(p: Params, r) -> SplitSpec:
    """`split_for_ratio(p, r)`, refused with ValueError over the simulation budget,
    below r_{k-1} = 1/(1 + n) before any corner is computed (`_check_budget_floor`)."""
    r = _as_ratio(r)
    what = "the ratio's split needs"
    if r < Fraction(1, 1 + p.n):
        _check_budget_floor(p, what)
    split = split_for_ratio(p, r)
    _check_simulation_budget(p.k, split.total_length, what)
    return split


def _draw(p: Params, r, seed) -> tuple[MessageStore, CacheState, PlanDraw]:
    """The store, the cache and the plan draw of `retrieve` at ratio r: all but θ."""
    split = _budgeted_split(p, r)
    store = random_store(p.k, split.total_length, seed)
    cache = prefetch(store, split.cached_per_message, seed)
    return store, cache, draw_plan(p, split, cache, seed)


def retrieve(p: Params, theta: int, r, seed) -> Transcript:
    """Run one complete retrieval at caching ratio r under one master seed.

    The simulated store holds k messages of the split's length L, and k·L
    may not exceed MAX_SIMULATED_BITS; the ratio is refused before anything
    is allocated.  That also bounds the plan: it downloads fewer than 2L
    sums (the cost is at most its value at r = 0, which is below 2), each of
    at most k bits.  Analytic bound queries have no such limit.  Identical
    arguments produce bit-identical transcripts, which pass
    `check_transcript` by construction.
    """
    _check_theta(p.k, theta)
    store, cache, drawn = _draw(p, r, seed)
    plan = compose_plans(p, theta, drawn)
    answers = tuple(tuple(answer(store, eqs)) for eqs in plan.per_db)
    decoded = decode(plan, answers, cache)
    return Transcript(plan=plan, answers=answers, decoded=decoded, store=store, cache=cache)
