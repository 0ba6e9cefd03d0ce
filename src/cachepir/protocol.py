"""End-to-end retrieval simulation over replicated bit-vector databases.

A run generates random message content, prefetches a uniform random cache,
builds the query plan for the requested caching ratio, computes each
database's GF(2) answers, and decodes the desired message, producing an
immutable transcript.  Database unawareness is structural: `answer` receives
only the message store and the equations, never the cache or the desired
index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bounds import Params, _check_theta
from .rng import derive_rng
from .scheme import (
    ContractViolation,
    Equation,
    QueryPlan,
    compose_plans,
    draw_plan,
    is_canonical,
    split_for_ratio,
)

__all__ = [
    "MessageStore",
    "CacheState",
    "pack_bits",
    "unpack_bits",
    "Transcript",
    "DecodeError",
    "random_store",
    "prefetch",
    "answer",
    "decode",
    "retrieve",
]


@dataclass(frozen=True)
class MessageStore:
    """k messages of identical length, each packed little-endian into one int."""

    count: int
    length: int
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) != self.count:
            raise ValueError("message count does not match stored messages")
        if any(not 0 <= w < (1 << self.length) for w in self.bits):
            raise ValueError("message content wider than declared length")

    def bit(self, m: int, j: int) -> int:
        return (self.bits[m] >> j) & 1


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
    if length < 1:
        raise ValueError(f"message length must be positive, got {length}")
    return MessageStore(
        count=k,
        length=length,
        bits=tuple(derive_rng(seed, "content", m).getrandbits(length) for m in range(k)),
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
            if set(vals) - {0, 1}:
                raise ValueError("cached values must be bits (0 or 1)")
            if any(not 0 <= i < self.length for i in idx):
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
    if not 0 <= bits_per_message <= store.length:
        raise ValueError(
            f"cannot cache {bits_per_message} of {store.length} bits per message"
        )
    indices = []
    values = []
    for m in range(store.count):
        rng = derive_rng(seed, "cache", m)
        chosen = tuple(sorted(rng.sample(range(store.length), bits_per_message)))
        message = unpack_bits(store.bits[m], store.length)
        indices.append(chosen)
        values.append(tuple(message[j] for j in chosen))
    return CacheState(length=store.length, indices=tuple(indices), values=tuple(values))


def answer(store: MessageStore, equations: list[Equation]) -> list[int]:
    """GF(2) sum of the referenced bits, one output bit per equation.

    Pure function of (store, equations): this is the whole database-side
    computation, and by taking no cache and no desired index it cannot leak
    what it never sees.  Reference x = m·L + j reads byte x of the k
    messages unpacked end to end.  An equation that is not
    `scheme.is_canonical` over the store (a frozenset, unsorted, a repeated
    message, a reference out of range) raises ContractViolation.
    """
    k, length = store.count, store.length
    bits = b"".join([unpack_bits(w, length) for w in store.bits])
    out = []
    for eq in equations:
        if not is_canonical(eq, k, length):
            raise ContractViolation(f"equation {eq!r} is not canonical (see is_canonical)")
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


def decode(plan: QueryPlan, answers: list[list[int]], cache: CacheState) -> int:
    """Recover the desired message from the answers, packed little-endian.

    Every downloaded sum without a desired-message term (a reference in
    θ·L <= x < (θ+1)·L) is side information whose value is its own answer
    bit; every sum with a desired term is cancelled either against cached
    bits or against one such side-information sum appearing verbatim inside
    it (dropping the desired term keeps the equation's canonical order, so
    the rest is looked up as it is).  Cached desired bits are copied from
    the cache.  Structural problems (unresolvable sums, unrecovered or
    conflicting bits) raise DecodeError rather than returning wrong content.
    """
    if len(answers) != plan.n:
        raise ContractViolation("answers do not cover every database")
    length = plan.length
    if cache.length != length:
        raise ContractViolation(
            f"cache holds messages of {cache.length} bits, the plan {length}"
        )
    theta = plan.theta
    low = theta * length
    high = low + length
    side: dict[Equation, int] = {}
    desired: list[tuple[int, Equation, int, int]] = []
    for db, (eqs, bits) in enumerate(zip(plan.per_db, answers)):
        if len(eqs) != len(bits):
            raise ContractViolation(f"answer length mismatch at database {db}")
        for eq, value in zip(eqs, bits):
            own = [x for x in eq if low <= x < high]
            if not own:
                side[eq] = value
            elif len(own) == 1:
                desired.append((db, eq, own[0], value))
            else:
                raise DecodeError(
                    "equation carries multiple desired-message terms",
                    db=db,
                    equation=eq,
                )

    # One dict per message: a flat dict keyed m·L + j would allocate an int
    # per cached bit, and took twice as long to build at r near 1/2.
    lookup = [dict(zip(idx, vals)) for idx, vals in zip(cache.indices, cache.values)]
    # One byte per desired bit: 2 until it is recovered, then the bit.
    recovered = bytearray([2]) * length
    for j, bit in zip(cache.indices[theta], cache.values[theta]):
        recovered[j] = bit
    for db, eq, x, value in desired:
        rest = tuple([y for y in eq if y != x])  # see scheme.relabel
        if not rest:
            bit = value
        elif rest in side:
            bit = value ^ side[rest]
        else:
            try:
                bit = value ^ (sum([lookup[y // length][y % length] for y in rest]) & 1)
            except (KeyError, IndexError):
                raise DecodeError(
                    "side information neither cached nor downloaded",
                    db=db,
                    equation=eq,
                ) from None
        j = x - low
        if recovered[j] == 2:
            recovered[j] = bit
        elif recovered[j] != bit:
            raise DecodeError("conflicting recoveries for desired bit", db=db, equation=eq)

    if 2 in recovered:
        raise DecodeError(
            "desired bits unrecovered",
            missing=[j for j, bit in enumerate(recovered) if bit == 2],
        )
    return pack_bits(recovered)


@dataclass(frozen=True)
class Transcript:
    """One full retrieval run, immutable and self-contained for audits.

    Only the run's inputs and outputs are stored; the parameters, message
    length and normalized cost are read off the plan, so they cannot
    disagree with it.
    """

    plan: QueryPlan
    answers: tuple[tuple[int, ...], ...]
    decoded: int
    store: MessageStore
    cache: CacheState

    def __post_init__(self) -> None:
        if tuple(len(a) for a in self.answers) != self.plan.downloads_per_db:
            raise ValueError("answer lengths do not match the plan's queries per database")
        if any(set(a) - {0, 1} for a in self.answers):
            raise ValueError("answers must be bits (0 or 1)")

    @property
    def params(self) -> Params:
        return Params(self.plan.k, self.plan.n)

    @property
    def length(self) -> int:
        return self.plan.length

    @property
    def cost(self) -> Fraction:
        return Fraction(self.plan.total_downloads, self.length)

    def decoded_bits(self) -> list[int]:
        return list(unpack_bits(self.decoded, self.length))


MAX_SIMULATED_BITS = 2**22


def retrieve(p: Params, theta: int, r, seed) -> Transcript:
    """Run one complete retrieval at caching ratio r under one master seed.

    The simulated store holds k messages of the split's length L, and k·L
    may not exceed MAX_SIMULATED_BITS; the ratio is refused before anything
    is allocated.  That also bounds the plan: it downloads fewer than 2L
    sums (the cost is at most its value at r = 0, which is below 2), each of
    at most k bits.  Analytic bound queries have no such limit.  Identical
    arguments produce bit-identical transcripts.
    """
    _check_theta(p.k, theta)
    split = split_for_ratio(p, r)
    if p.k * split.total_length > MAX_SIMULATED_BITS:
        raise ValueError(
            f"ratio {r} needs {p.k} messages of {split.total_length} bits, "
            f"over the simulation budget of {MAX_SIMULATED_BITS} bits"
        )
    store = random_store(p.k, split.total_length, seed)
    cache = prefetch(store, split.cached_per_message, seed)
    plan = compose_plans(p, theta, draw_plan(p, split, cache, seed))
    answers = tuple(tuple(answer(store, eqs)) for eqs in plan.per_db)
    decoded = decode(plan, answers, cache)
    return Transcript(plan=plan, answers=answers, decoded=decoded, store=store, cache=cache)
