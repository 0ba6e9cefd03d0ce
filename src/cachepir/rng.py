"""Deterministic sub-seed derivation and the permutation kernels.

Every randomized step of a run (message content, cache index choice, bit
consumption order per message, per-database query shuffle, Monte-Carlo
trials) draws from its own stream derived from one master seed and a label
path, so reruns are bit-identical and streams for different purposes never
alias.

The scheme's privacy rests on uniform permutations: a database sees the
corner layout relabeled by one per message, then shuffled.  `permutation`
and `shuffle` draw them, through one Fisher-Yates loop.  They return exactly
what `rng.sample(range(n), n)` and `rng.shuffle(x)` return and leave the
stream in the same state: the loop draws below a size by asking
`getrandbits` for the size's bit length and rejecting draws at or above the
size, the algorithm of `random.Random._randbelow_with_getrandbits`, so it
consumes the same 32-bit words in the same order.  It skips the interpreter
work of one `_randbelow` call per element, about half the cost of a draw.
`sample` draws the cache's c of L indices as `rng.sample(range(L), c)`
does: CPython picks from a pool, through the same loop, or, when a c-item
set is smaller than an L-item list by its floating-point size rule, by
rejecting repeats, and `sample` copies that rule.  The kernels also fix the
algorithm inside this package, so transcripts no longer depend on how
CPython implements `sample` or `shuffle`.
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


def permutation(rng: random.Random, n: int) -> list[int]:
    """Uniform permutation of range(n), exactly `rng.sample(range(n), n)`.

    `sample` moves its i-th pick out of a pool and the pool's last item into
    the gap; parking the pick at the end instead leaves the picks in reverse
    order at the top.  Like `sample`, it draws below 1 for the last pick,
    which consumes a word.
    """
    pool = list(range(n))
    _fisher_yates(rng, pool, 1)
    pool.reverse()
    return pool


def sample(rng: random.Random, n: int, c: int) -> list[int]:
    """c distinct picks from range(n), 0 <= c <= n, exactly `rng.sample(range(n), c)`.

    `sample` keeps a pool when an n-item list is no larger than a c-item
    set (21 slots, plus a 4**ceil(log(3c, 4)) table when c > 5), drawing
    the picks as `permutation` does but stopping after c of them;
    otherwise it draws below n and redraws picks it already holds.
    """
    setsize = 21
    if c > 5:
        setsize += 4 ** ceil(log(c * 3, 4))
    if n <= setsize:
        pool = list(range(n))
        _fisher_yates(rng, pool, n - c + 1)
        picks = pool[n - c:]
        picks.reverse()
        return picks
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
