"""Deterministic sub-seed derivation and the permutation kernels.

Every randomized step of a run (message content, cache index choice, bit
consumption order per message, per-database query shuffle, Monte-Carlo
trials) draws from its own stream derived from one master seed and a label
path, so reruns are bit-identical and streams for different purposes never
alias.

The scheme's privacy rests on uniform permutations: a database sees the
corner layout relabeled by one per message, then shuffled.  The two
kernels, `sample` and `shuffle`, draw them through one Fisher-Yates loop.
They return exactly what `rng.sample(range(n), c)` and `rng.shuffle(x)`
return and leave the stream in the same state: the loop draws below a size
by asking `getrandbits` for the size's bit length and rejecting draws at or
above the size, the algorithm of `random.Random._randbelow_with_getrandbits`,
so it consumes the same 32-bit words in the same order.  It skips the
interpreter work of one `_randbelow` call per element, about half the cost
of a draw.  `sample` draws the cache's c of L indices, or with c = L a
uniform permutation: CPython picks from a pool, through the same loop, or,
when a c-item set is smaller than an L-item list by its floating-point size
rule, by rejecting repeats, and `sample` copies that rule.  The kernels
also fix the algorithm inside this package, so transcripts no longer depend
on how CPython implements `sample` or `shuffle`.
"""

from __future__ import annotations

import random
from math import ceil, log


def derive_rng(seed, *labels) -> random.Random:
    """Random stream for (seed, *labels).

    String seeding of `random.Random` hashes the bytes, which is stable
    across runs and platforms; the ":"-joined label path keeps distinct
    purposes on distinct streams.
    """
    return random.Random(":".join(str(part) for part in (seed, *labels)))


def _fisher_yates(rng: random.Random, x: list, smallest: int) -> None:
    """Swap x[size - 1] with x[j], j uniform below size, for size = len(x)
    down to `smallest`; j is drawn as `_randbelow` draws it."""
    getrandbits = rng.getrandbits
    for size in range(len(x), smallest - 1, -1):
        bits = size.bit_length()
        j = getrandbits(bits)
        while j >= size:
            j = getrandbits(bits)
        i = size - 1
        x[i], x[j] = x[j], x[i]


def sample(rng: random.Random, n: int, c: int) -> list[int]:
    """c distinct picks from range(n), 0 <= c <= n, exactly `rng.sample(range(n), c)`.

    `sample` keeps a pool when an n-item list is no larger than a c-item
    set (21 slots, plus a 4**ceil(log(3c, 4)) table when c > 5), which
    always holds at c = n, so a permutation skips the rule; otherwise it
    draws below n and redraws picks it already holds.  From the pool,
    `sample` moves its i-th pick out and the pool's last item into the gap;
    parking the pick at the end instead leaves the picks in reverse order
    at the top.  Like `sample`, it draws below 1 for the last of n picks,
    which consumes a word.
    """
    if c == n or n <= 21 + (4 ** ceil(log(c * 3, 4)) if c > 5 else 0):
        pool = list(range(n))
        _fisher_yates(rng, pool, n - c + 1)
        del pool[: n - c]
        pool.reverse()
        return pool
    getrandbits = rng.getrandbits
    bits = n.bit_length()
    picked = {}  # a set that keeps the picks in draw order
    for _ in range(c):
        j = getrandbits(bits)
        while j >= n or j in picked:
            j = getrandbits(bits)
        picked[j] = None
    return list(picked)


def shuffle(rng: random.Random, x: list) -> None:
    """Shuffle x in place, exactly as `rng.shuffle(x)` does."""
    _fisher_yates(rng, x, 2)
