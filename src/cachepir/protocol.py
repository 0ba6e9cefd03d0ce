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
"""

from __future__ import annotations

from bisect import bisect_left
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
    """k messages of identical length, each its `length` 0/1 bytes, bit j at index j."""

    count: int
    length: int
    bits: tuple[bytes, ...]

    def __post_init__(self) -> None:
        if len(self.bits) != self.count:
            raise ValueError("message count does not match stored messages")
        for w in self.bits:
            if (
                type(w) is not bytes
                or len(w) != self.length
                or w.translate(None, b"\x00\x01")  # a byte left that is not 0 or 1
            ):
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
    if length < 1:
        raise ValueError(f"message length must be positive, got {length}")
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
            if set(vals) - {0, 1}:
                raise ValueError("cached values must be bits (0 or 1)")
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
    if not 0 <= bits_per_message <= store.length:
        raise ValueError(
            f"cannot cache {bits_per_message} of {store.length} bits per message"
        )
    indices = []
    values = []
    for m in range(store.count):
        rng = derive_rng(seed, "cache", m)
        chosen = tuple(sorted(rng.sample(range(store.length), bits_per_message)))
        message = store.bits[m]
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
    bits = b"".join(store.bits)
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
    `scheme.is_canonical`, which `answer` and the transcript loader already
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
    `decoded == store.bits[theta]`.
    """

    plan: QueryPlan
    answers: tuple[tuple[int, ...], ...]
    decoded: bytes
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
