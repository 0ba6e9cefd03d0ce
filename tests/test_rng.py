"""Seeded streams: the permutation kernels and the draws they pin."""

import hashlib
import json
from fractions import Fraction as F

import pytest

from cachepir import Params, retrieve
from cachepir.audit import montecarlo_privacy
from cachepir.cli import transcript_to_dict
from cachepir.rng import derive_rng, permutation, shuffle

SIZES = [0, 1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 40, 1000]
STREAMS = range(20)


def twins(stream):
    return derive_rng(11, "kernel", stream), derive_rng(11, "kernel", stream)


@pytest.mark.parametrize("n", SIZES)
def test_permutation_is_sample_bit_for_bit(n):
    for stream in STREAMS:
        rng, twin = twins(stream)
        assert permutation(rng, n) == twin.sample(range(n), n)
        assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("n", SIZES)
def test_shuffle_is_random_shuffle_bit_for_bit(n):
    for stream in STREAMS:
        rng, twin = twins(stream)
        mine = [object() for _ in range(n)]
        theirs = list(mine)
        shuffle(rng, mine)
        twin.shuffle(theirs)
        assert all(a is b for a, b in zip(mine, theirs, strict=True))
        assert rng.getstate() == twin.getstate()


def as_pairs(per_db, length):
    """Int references x as the (m, j) pairs, divmod(x, length), that the digests hashed."""
    return tuple(tuple(tuple(divmod(x, length) for x in eq) for eq in eqs) for eqs in per_db)


def test_transcript_digest_is_pinned():
    # Cache choice, dealing and the final shuffles all feed this transcript.
    # The digest was taken over format-1 files: pairs and no "format" key.
    t = retrieve(Params(4, 2), 1, F(1, 50), 5)
    data = transcript_to_dict(t)
    assert data.pop("format") == 2
    data["per_db"] = as_pairs(data["per_db"], t.length)
    text = json.dumps(data, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "da809e3b5118ef06e333428648382e0f098c3e2efd377d4892f09cfbb826e929"
    )


def test_montecarlo_draw_stream_is_pinned():
    # Every draw of the sampled audit, in order, as the mutation hook sees it.
    digest = hashlib.sha256()

    def record(plan):
        digest.update(repr(as_pairs(plan.per_db, plan.length)).encode())
        return plan

    assert montecarlo_privacy(Params(3, 2), 1, 1000, 7, mutation=record).passed
    assert digest.hexdigest() == (
        "9a0487098e29ed8bc2fdb6146c0a4066978cfa14a279b1dbef29190361e11f2c"
    )
